"""Coleman integration of the basis differentials between Q_p-points.

Integrals inside one residue disc are formal antiderivatives in a local
coordinate (tiny integrals).  Every other integral is a difference of two
integrals from infinity, and those come from one primitive.  Frobenius
fixes infinity and the Teichmueller point T of a non-Weierstrass disc, so
equivariance turns the unknown values into the solution of

    (M^T - I) [.. int_infinity^T omega_i ..] = [.. -f_i(T) ..],

with M and the f_i from the cohomology module.  The matrix is the same for
every T, so it is eliminated once per Frobenius action
(FrobeniusAction.fixed_point_system), and all six f_i(T) come from one pass
over the corrections.  A tiny integral then carries T to the endpoint R,
read in R's own chart (as in Balakrishnan, Bradshaw and Kedlaya, "Explicit
Coleman integration for hyperelliptic curves", ANTS IX, 2010): with
anti_i(t) = int_R^t omega_i the formal antiderivatives about R, it is
-anti_i(t_T), t_T = x(T) - x(R) the parameter of T.  A disc expansion
(chabauty.disc_series) hands its antiderivatives in, so each disc has one
chart.  The involution negates every basis differential, so in a
Weierstrass disc (the infinity disc included) the integral from infinity
is half the tiny integral from iota(R) to R, and 0 at the exact center;
this avoids both the poles of the non-holomorphic basis elements at
infinity and the absence of a Frobenius lift on Weierstrass discs.

Precision: coefficient n + 1 of an antiderivative is known to v_p(n + 1)
digits less than coefficient n of the pullback (padic.formal_integrate).
Its value at t_T claims the scalar Horner's precision, capped at
(order + 1) v(t) - ilog_p(order + 1): every term past the order, an
integral coefficient over n, has valuation at least n v(t) - ilog_p(n),
which grows with n.
"""

from __future__ import annotations

from .cohomology import FrobeniusAction, evaluate_corrections
from .curve import (
    HyperellipticCurve,
    Point,
    involution,
    local_chart,
    reduce_point,
)
from .errors import DifferentDiscs, PoleAtPoint, WeierstrassDisc
from .padic import (
    PadicPowerSeries,
    PadicRing,
    PadicScalar,
    formal_integrate,
    hensel_simple_root,
    hensel_sqrt,
    ilog,
)


def series_order(p: int, n: int) -> int:
    """The t-adic truncation order M that p-adic precision n calls for.

    M is the least order from n - 4 up with (M+1) - ilog_p(M+1) >= n - 3:
    the terms a truncated series drops at a parameter of valuation >= 1 then
    sit at or past the floor n - 3.  At n = 2p + 4, M = 2p + 1.
    """
    order = n - 4
    while (order + 1) - ilog(p, order + 1) < n - 3:
        order += 1
    return order


def _is_weierstrass_center(point: Point) -> bool:
    return point.at_infinity or point.y.is_zero


def _in_weierstrass_disc(point: Point, p: int) -> bool:
    if point.at_infinity:
        return True
    if not point.x.is_zero and point.x.val < 0:
        return True
    return point.y.is_zero or point.y.val >= 1


def _same_point(a: Point, b: Point) -> bool:
    if a.at_infinity or b.at_infinity:
        return a.at_infinity and b.at_infinity
    return (a.x - b.x).is_zero and (a.y - b.y).is_zero


# ---------------------------------------------------------------------------
# Tiny integrals
# ---------------------------------------------------------------------------


def tiny_integral(
    curve: HyperellipticCurve,
    start: Point,
    end: Point,
    ring: PadicRing,
    order: int,
) -> list[PadicScalar]:
    """Integrals of x^i dx/(2y), i = 0..2g-1, between two points in one residue disc.

    Pulls each basis differential back along the disc chart, integrates
    formally, and evaluates between the chart parameters of the endpoints.
    Exact-infinity endpoints are rejected: the i >= g differentials have a
    pole there (coleman_integral routes such integrals through the involution).
    """
    p = ring.p
    if start.at_infinity and end.at_infinity:
        return [ring.zero() for _ in range(2 * curve.genus)]
    if start.at_infinity or end.at_infinity:
        raise PoleAtPoint("tiny integral with an exact infinity endpoint diverges for i >= g")
    if reduce_point(start, p) != reduce_point(end, p):
        raise DifferentDiscs(f"{start} and {end} reduce to different points")
    chart = local_chart(start, curve, ring, order)
    t0 = chart.param_of(start)
    t1 = chart.param_of(end)
    return [_integrate_pullback(series, shift, t0, t1, ring) for shift, series in chart.omega_pullbacks()]


def _integrate_pullback(series, shift, t0, t1, ring) -> PadicScalar:
    """Evaluate the antiderivative of t^shift * series(t) between t0 and t1."""
    p = ring.p
    if shift == 0:
        anti = formal_integrate(series)
        tail = -ilog(p, anti.order + 1)
        return anti.evaluate(t1, tail) - anti.evaluate(t0, tail)

    # Laurent case (infinity disc): integrate termwise.  The pullbacks there
    # are even in t, so the residue term (exponent -1, odd n) is zero by
    # structure; every other coefficient, zero to precision or not, carries
    # its precision into the sum.
    def eval_at(t: PadicScalar) -> PadicScalar:
        acc = PadicScalar.zero(p, series.precs[0] + series.order + abs(shift))
        for n, c in enumerate(series.coeffs):
            e = shift + n
            if e == -1:
                if not c.is_zero:
                    raise PoleAtPoint("residue term in a Laurent pullback (internal)")
                continue
            acc = acc + c.div_int(e + 1) * t ** (e + 1)
        tail_exp = shift + series.order + 1
        cap = tail_exp * t.val - ilog(p, abs(tail_exp) + series.order + 2)
        return acc.cap(cap)

    return eval_at(t1) - eval_at(t0)


# ---------------------------------------------------------------------------
# Teichmueller points
# ---------------------------------------------------------------------------


def teichmuller_point(point: Point, curve: HyperellipticCurve, ring: PadicRing) -> Point:
    """The Frobenius-fixed point in the residue disc of a non-Weierstrass point."""
    p = ring.p
    if _in_weierstrass_disc(point, p):
        raise WeierstrassDisc("Teichmueller points require a non-Weierstrass disc")
    # x is the root of x^p - x in the residue class of x mod p
    xs = hensel_simple_root([0, -1] + [0] * (p - 2) + [1], point.x.lift(), p, ring.prec)
    return Point(xs, hensel_sqrt(curve.f_at(xs), point.y.lift() % p))


# ---------------------------------------------------------------------------
# Coleman integrals
# ---------------------------------------------------------------------------


def coleman_integral(
    curve: HyperellipticCurve,
    fa: FrobeniusAction,
    start: Point,
    end: Point,
    order: int | None = None,
) -> list[PadicScalar]:
    """Coleman integral of every basis differential from start to end.

    When an endpoint is exactly the point at infinity the i >= g entries are
    the regularized values for which int_infinity^(iota R) = -int_infinity^R.
    """
    ring, order = _ring_and_order(fa, order)
    n = 2 * curve.genus
    if _same_point(start, end):
        return [ring.zero() for _ in range(n)]
    # an exact Weierstrass center has integral 0 from infinity; the other
    # end's integral is returned as is rather than less a capped zero
    if _is_weierstrass_center(start):
        return _from_infinity(curve, fa, end, ring, order, n)
    if _is_weierstrass_center(end):
        return [-v for v in _from_infinity(curve, fa, start, ring, order, n)]
    if reduce_point(start, ring.p) == reduce_point(end, ring.p):
        return tiny_integral(curve, start, end, ring, order)
    to_end = _from_infinity(curve, fa, end, ring, order, n)
    to_start = _from_infinity(curve, fa, start, ring, order, n)
    return [a - b for a, b in zip(to_end, to_start)]


def _ring_and_order(fa: FrobeniusAction, order: int | None) -> tuple[PadicRing, int]:
    if order is None:
        order = series_order(fa.p, fa.precision)
    return PadicRing(fa.p, fa.precision), order


def _from_infinity(curve, fa, point, ring, order, count, antiderivatives=None) -> list[PadicScalar]:
    """int_infinity^point of the first count basis differentials (see the module doc).

    The Teichmueller system is half the one between iota(T) and T: every
    correction f_i is odd in y, so f_i(iota T) = -f_i(T).  The tiny
    integral from T to the point is -anti_i(t_T) for the antiderivatives
    anti_i in the chart centered at the point, t_T = x(T) - x(point) the
    parameter of T there; they are built unless the caller has them.
    """
    if _is_weierstrass_center(point):
        return [ring.zero() for _ in range(count)]
    if _in_weierstrass_disc(point, ring.p):
        inv2 = ring.one().div_int(2)
        mirror = tiny_integral(curve, involution(point), point, ring, order)
        return [v * inv2 for v in mirror[:count]]
    teich = teichmuller_point(point, curve, ring)
    head = fa.fixed_point_system.solve([-v for v in evaluate_corrections(fa.corrections, teich)])
    if antiderivatives is None:
        antiderivatives = local_chart(point, curve, ring, order).antiderivatives(count)
    t = teich.x - point.x
    return [
        h - anti.evaluate(t, -ilog(ring.p, anti.order + 1))
        for h, anti in zip(head, antiderivatives)
    ]


def integral_functional(
    curve: HyperellipticCurve,
    fa: FrobeniusAction,
    point: Point,
    order: int | None = None,
    antiderivatives: list[PadicPowerSeries] | None = None,
) -> list[PadicScalar]:
    """The holomorphic triple int_infinity^point of x^i dx/2y, i = 0..g-1.

    antiderivatives, when given, are the g holomorphic antiderivatives in
    the chart centered at point (LocalChart.antiderivatives), which a disc
    expansion has already built; they carry the tiny integral there.
    """
    ring, order = _ring_and_order(fa, order)
    return _from_infinity(curve, fa, point, ring, order, curve.genus, antiderivatives)
