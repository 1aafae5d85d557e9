"""Coleman integration of the basis differentials between Q_p-points.

Integrals inside one residue disc are formal antiderivatives in a local
coordinate (tiny integrals).  Between non-Weierstrass discs the integral is
anchored at Teichmueller points, where Frobenius equivariance turns the
unknown values into the solution of the linear system

    (M^T - I) [.. I_i ..] = [.. f_i(P') - f_i(Q') ..],

with M and the f_i from the cohomology module.  Endpoints in Weierstrass
discs (the infinity disc included) are routed through the identity
int_P^Q = (psi(Q) - psi(P))/2 with psi(R) = int_{iota R}^R, which avoids
both the poles of the non-holomorphic basis elements at infinity and the
absence of a Frobenius lift on Weierstrass discs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import FrobeniusAction, evaluate_correction
from .curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    involution,
    local_chart,
    reduce_point,
)
from .errors import DifferentDiscs, PoleAtPoint, WeierstrassDisc
from .padic import (
    PadicRing,
    PadicScalar,
    formal_integrate,
    hensel_sqrt,
    ilog,
    solve_linear_system,
)


@dataclass
class IntegralVector:
    """Values of int_start^end of x^i dx/(2y) for i = 0 .. 2g-1.

    The holomorphic block (i < g) is what the rational point search consumes;
    when an endpoint is exactly the point at infinity the i >= g entries are
    the regularized values defined by the involution identity.
    """

    values: list[PadicScalar]
    start: Point
    end: Point
    p: int
    precision: int

    @property
    def holomorphic(self) -> list[PadicScalar]:
        return self.values[: len(self.values) // 2]


def _vector(values, start, end, p) -> IntegralVector:
    return IntegralVector(values, start, end, p, min(v.prec for v in values))


def _zero_vector(curve, start, end, ring) -> IntegralVector:
    z = [ring.zero() for _ in range(2 * curve.genus)]
    return _vector(z, start, end, ring.p)


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
) -> IntegralVector:
    """Integrals between two points in a single residue disc.

    Pulls each basis differential back along the disc chart, integrates
    formally, and evaluates between the chart parameters of the endpoints.
    Exact-infinity endpoints are rejected: the i >= g differentials have a
    pole there (the caller routes such integrals through the involution).
    """
    p = ring.p
    if start.at_infinity and end.at_infinity:
        return _zero_vector(curve, start, end, ring)
    if start.at_infinity or end.at_infinity:
        raise PoleAtPoint("tiny integral with an exact infinity endpoint diverges for i >= g")
    if reduce_point(start, p) != reduce_point(end, p):
        raise DifferentDiscs(f"{start} and {end} reduce to different points")
    chart = local_chart(start, curve, ring, order)
    t0 = chart.param_of(start)
    t1 = chart.param_of(end)
    values = []
    for shift, series in chart.omega_pullbacks():
        values.append(_integrate_pullback(series, shift, t0, t1, ring))
    return _vector(values, start, end, p)


def _integrate_pullback(series, shift, t0, t1, ring) -> PadicScalar:
    """Evaluate the antiderivative of t^shift * series(t) between t0 and t1."""
    p = ring.p
    if shift == 0:
        anti = formal_integrate(series)
        tail = -ilog(p, anti.order + 1)
        return anti.evaluate(t1, tail) - anti.evaluate(t0, tail)

    # Laurent case (infinity disc): integrate termwise; the exponent -1
    # never occurs because the pullbacks there only have even exponents
    def eval_at(t: PadicScalar) -> PadicScalar:
        acc = PadicScalar.zero(p, series.coeffs[0].prec + series.order + abs(shift))
        for n, c in enumerate(series.coeffs):
            e = shift + n
            if e == -1:
                if not c.is_zero:
                    raise PoleAtPoint("residue term in a Laurent pullback (internal)")
                continue
            if c.is_zero:
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
    m = p**ring.prec
    x = point.x.lift() % m
    for _ in range(ring.prec + 1):
        nxt = pow(x, p, m)
        if nxt == x:
            break
        x = nxt
    xs = ring(x)
    f = curve.padic_poly(ring)
    ybar = point.y.lift() % p
    return Point(xs, hensel_sqrt(f.evaluate(xs), ybar))


def frobenius_point(point: Point, curve: HyperellipticCurve, ring: PadicRing) -> Point:
    """Image of a non-Weierstrass point under the Frobenius lift x -> x^p."""
    p = ring.p
    if _in_weierstrass_disc(point, p):
        raise WeierstrassDisc("the Frobenius lift is not defined on Weierstrass discs")
    xp = point.x**p
    f = curve.padic_poly(ring)
    return Point(xp, hensel_sqrt(f.evaluate(xp), point.y.lift() % p))


# ---------------------------------------------------------------------------
# Coleman integrals
# ---------------------------------------------------------------------------


def coleman_integral(
    curve: HyperellipticCurve,
    fa: FrobeniusAction,
    start: Point,
    end: Point,
    order: int | None = None,
) -> IntegralVector:
    """Coleman integral of every basis differential from start to end."""
    p = fa.p
    ring = PadicRing(p, fa.precision)
    if order is None:
        order = 2 * p + 1
    if _same_point(start, end):
        return _zero_vector(curve, start, end, ring)
    if _is_weierstrass_center(start):
        psi = _involution_path_integral(curve, fa, end, ring, order)
        return _vector(_half(psi.values, ring), start, end, p)
    if _is_weierstrass_center(end):
        psi = _involution_path_integral(curve, fa, start, ring, order)
        return _vector([-v for v in _half(psi.values, ring)], start, end, p)
    if reduce_point(start, p) == reduce_point(end, p):
        return tiny_integral(curve, start, end, ring, order)
    if _in_weierstrass_disc(start, p) or _in_weierstrass_disc(end, p):
        psi_end = _involution_path_integral(curve, fa, end, ring, order)
        psi_start = _involution_path_integral(curve, fa, start, ring, order)
        diff = [a - b for a, b in zip(psi_end.values, psi_start.values)]
        return _vector(_half(diff, ring), start, end, p)
    return _teichmuller_route(curve, fa, start, end, ring, order)


def _half(values, ring):
    inv2 = ring.one().div_int(2)
    return [v * inv2 for v in values]


def _involution_path_integral(curve, fa, point, ring, order) -> IntegralVector:
    """psi(R) = int from iota(R) to R, valid for any R != exact center."""
    p = ring.p
    mirror = involution(point)
    if _is_weierstrass_center(point):
        return _zero_vector(curve, mirror, point, ring)
    if _in_weierstrass_disc(point, p):
        return tiny_integral(curve, mirror, point, ring, order)
    return _teichmuller_route(curve, fa, mirror, point, ring, order)


def _teichmuller_route(curve, fa, start, end, ring, order) -> IntegralVector:
    p = ring.p
    t_start = teichmuller_point(start, curve, ring)
    t_end = teichmuller_point(end, curve, ring)
    head = tiny_integral(curve, start, t_start, ring, order)
    mid = _solve_between_teichmuller(curve, fa, t_start, t_end, ring)
    tail = tiny_integral(curve, t_end, end, ring, order)
    values = [a + b + c for a, b, c in zip(head.values, mid, tail.values)]
    return _vector(values, start, end, p)


def _solve_between_teichmuller(curve, fa, t_start, t_end, ring) -> list[PadicScalar]:
    """Solve (M^T - I) I = [f_i(P') - f_i(Q')] for the Teichmueller integrals."""
    g = curve.genus
    n = 2 * g
    one = ring.one()
    a = [
        [fa.matrix[j][i] - (one if i == j else ring.zero()) for j in range(n)]
        for i in range(n)
    ]
    rhs = [
        evaluate_correction(fa.corrections[i], t_start)
        - evaluate_correction(fa.corrections[i], t_end)
        for i in range(n)
    ]
    return solve_linear_system(a, rhs, ring.p)


def integral_functional(
    curve: HyperellipticCurve,
    fa: FrobeniusAction,
    point: Point,
    order: int | None = None,
) -> IntegralVector:
    """The holomorphic triple int_infinity^point of x^i dx/2y, i = 0..g-1."""
    full = coleman_integral(curve, fa, INFINITY, point, order)
    hol = full.holomorphic
    return IntegralVector(hol, INFINITY, point, fa.p, min(v.prec for v in hol))
