"""Classification of found p-adic points: rational, 2-torsion, higher torsion.

Rational coordinates are recovered by lattice (extended-Euclid) rational
reconstruction; algebraic coordinates by an integer-relation search among
1, a, ..., a^d modulo p^N (a compact LLL at dimension <= 4, no external
reduction library).  Torsion orders are computed in J(F_p) with Cantor's
composition/reduction algorithm on Mumford representatives, using the group
order #J(F_p) = P(1) from the zeta module; for odd p of good reduction the
prime-to-p torsion of J(Q_p) injects under reduction, and the possible
p-part ambiguity is surfaced as a flag rather than resolved.  classify_point
makes one pass per point: rational reconstruction, else one minimal
polynomial and one refinement, with y = 0 choosing the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import FrobeniusAction, jacobian_order_fp
from .curve import INFINITY, HyperellipticCurve, Point, reduce_point
from .errors import CkError, LatticeReductionStalled, NotTorsionConsistent
from .intpoly import add, divmod_monic, evaluate, monic, mul, scale, trim, xgcd
from .padic import PadicRing, PadicScalar, hensel_simple_root, hensel_sqrt


# ---------------------------------------------------------------------------
# Rational reconstruction
# ---------------------------------------------------------------------------


def rational_reconstruct(a: PadicScalar) -> Fraction | None:
    """The unique n/d with |n|, |d| <= floor(sqrt(p^N/2)) congruent to a, if any.

    Negative valuations are handled by reconstructing the unit part and
    scaling by the appropriate power of p afterwards.
    """
    if a.is_zero:
        return Fraction(0)
    if a.val < 0:
        unit = PadicScalar(a.p, 0, a.unit, a.prec - a.val)
        rec = rational_reconstruct(unit)
        if rec is None:
            return None
        return rec * Fraction(1, a.p ** (-a.val))
    m = a.p**a.prec
    bound = math.isqrt(m // 2)
    target = a.lift()
    r0, r1 = m, target
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    n, d = r1, t1
    if d == 0:
        return None
    if d < 0:
        n, d = -n, -d
    if d > bound or math.gcd(n, d) != 1 or d % a.p == 0:
        return None
    if (n - target * d) % m != 0:
        return None
    return Fraction(n, d)


# ---------------------------------------------------------------------------
# Integer relations (minimal polynomial recovery)
# ---------------------------------------------------------------------------


_MAX_DEGREE = 2  # extras are defined over Q or a quadratic field
_SLACK = 3  # digits of a that a relation need not match


def algebraic_dependency(a: PadicScalar) -> list[int] | None:
    """Lowest-degree integer polynomial g with g(a) = 0 mod p^(N - _SLACK).

    Searches degrees 1.._MAX_DEGREE through the relation lattice spanned by
    (m, 0, ..), (-a, 1, 0, ..), (-a^2, 0, 1, ..) and keeps a reduced vector
    only when it is decisively shorter than the covolume heuristic allows
    for random input; the accepted polynomial is content-free, irreducible,
    and has a positive leading coefficient.
    """
    if a.is_zero:
        return [0, 1]
    if a.val < 0:
        return None
    p, prec = a.p, a.prec
    m = p**prec
    lift = a.lift()
    for degree in range(1, _MAX_DEGREE + 1):
        dim = degree + 1
        basis = [[m] + [0] * degree]
        power = 1
        for i in range(1, dim):
            power = power * lift % m
            row = [(-power) % m] + [0] * degree
            row[i] = 1
            basis.append(row)
        reduced = _lll(basis)
        threshold = int(round(p ** (prec / dim))) // 64 + 2
        for vec in reduced:
            g = _normalize_poly(list(vec))
            if g is None:
                continue
            if max(abs(c) for c in g) > threshold:
                continue
            if evaluate(g, lift, p ** max(prec - _SLACK, 1)) != 0:
                continue
            g = _irreducible_or_factor(g, lift, p, prec)
            if g is None:
                continue
            return g
    return None


def _normalize_poly(coeffs: list[int]) -> list[int] | None:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return None
    content = 0
    for c in coeffs:
        content = math.gcd(content, c)
    if content > 1:
        coeffs = [c // content for c in coeffs]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _irreducible_or_factor(g, lift, p, prec):
    """Return g if irreducible; else its irreducible factor vanishing at a."""
    if len(g) == 2:
        return g
    if len(g) == 3:
        disc = g[1] * g[1] - 4 * g[0] * g[2]
        if disc < 0:
            return g
        s = math.isqrt(disc)
        if s * s != disc:
            return g
        # rational roots: (-b +- s) / (2c); pick the one matching a
        m = p ** max(prec - _SLACK, 1)
        for sign in (1, -1):
            num = -g[1] + sign * s
            den = 2 * g[2]
            gg = math.gcd(num, den)
            num //= gg
            den //= gg
            if den < 0:
                num, den = -num, -den
            if den % p == 0:
                continue
            if (num - lift * den) % m == 0:
                return _normalize_poly([-num, den])
        return None
    return g


_LLL_MAX_ROUNDS = 10000
_LLL_DELTA = Fraction(3, 4)


def _lll(basis: list[list[int]]) -> list[list[int]]:
    """Textbook LLL for the tiny lattices used here (dimension <= 4)."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)

    def gramschmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar_sq = [Fraction(0)] * n
        bstar = [[Fraction(0)] * len(b[0]) for _ in range(n)]
        for i in range(n):
            bstar[i] = [Fraction(x) for x in b[i]]
            for j in range(i):
                if bstar_sq[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], bstar[j])) / bstar_sq[j]
                bstar[i] = [x - mu[i][j] * y for x, y in zip(bstar[i], bstar[j])]
            bstar_sq[i] = sum(x * x for x in bstar[i])
        return mu, bstar_sq

    mu, bstar_sq = gramschmidt()
    k, rounds = 1, 0
    while k < n:
        rounds += 1
        if rounds > _LLL_MAX_ROUNDS:
            raise LatticeReductionStalled(f"LLL did not finish in {_LLL_MAX_ROUNDS} rounds")
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                # b_k -= r b_j leaves every b*_i alone and moves only row k of mu
                r = int(round(mu[k][j]))
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        if bstar_sq[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * bstar_sq[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bstar_sq = gramschmidt()
            k = max(k - 1, 1)
    b.sort(key=lambda row: sum(x * x for x in row))
    return b


# ---------------------------------------------------------------------------
# Cantor's algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MumfordDivisor:
    """Reduced divisor class (u(x), v(x)) on J(F_p): u monic, v^2 = F mod u."""

    u: tuple
    v: tuple
    p: int

    @classmethod
    def identity(cls, p: int) -> "MumfordDivisor":
        return cls((1,), (), p)

    @classmethod
    def from_point(cls, pbar: Point, p: int) -> "MumfordDivisor":
        """The class [P - infinity] of an affine F_p point."""
        return cls(((-pbar.x) % p, 1), (pbar.y % p,) if pbar.y % p else (), p)

    @property
    def is_identity(self) -> bool:
        return self.u == (1,)

    def neg(self) -> "MumfordDivisor":
        return MumfordDivisor(self.u, tuple((-c) % self.p for c in self.v), self.p)


def _check_mumford(d: MumfordDivisor, fbar: list[int], p: int) -> None:
    """Raise unless u is monic, deg v < deg u and u divides F - v^2 over F_p."""
    u = trim([c % p for c in d.u])
    v = trim([c % p for c in d.v])
    if not u or u[-1] != 1 or len(v) >= len(u):
        raise NotTorsionConsistent(f"(u, v) = ({d.u}, {d.v}) is not in Mumford form")
    if divmod_monic(add(fbar, scale(mul(v, v, p), -1, p), p), u, p)[1]:
        raise NotTorsionConsistent(f"u = {d.u} does not divide F - v^2 for v = {d.v}")


def cantor_compose_reduce(
    d1: MumfordDivisor, d2: MumfordDivisor, curve: HyperellipticCurve, p: int
) -> MumfordDivisor:
    """Cantor's algorithm: the reduced representative of d1 + d2."""
    g = curve.genus
    fbar = curve.fp_coeffs(p)
    for d_in in (d1, d2):
        _check_mumford(d_in, fbar, p)
    u1, v1 = list(d1.u), list(d1.v)
    u2, v2 = list(d2.u), list(d2.v)
    e, e1, e2 = xgcd(u1, u2, p)
    d, c1, c2 = xgcd(e, add(v1, v2, p), p)
    if not d:
        d, c1, c2 = [1], [1], []
    s1 = mul(c1, e1, p)
    s2 = mul(c1, e2, p)
    s3 = c2
    # every divisor below is monic: d from xgcd, u1u2 and u_new by construction
    u1u2, rem = divmod_monic(mul(u1, u2, p), mul(d, d, p), p)
    if rem:
        raise NotTorsionConsistent("d^2 does not divide u1 u2 in Cantor composition")
    # v = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + F)) / d mod u
    t = add(
        add(mul(mul(s1, u1, p), v2, p), mul(mul(s2, u2, p), v1, p), p),
        mul(s3, add(mul(v1, v2, p), fbar, p), p),
        p,
    )
    tq, trem = divmod_monic(t, d, p)
    if trem:
        raise NotTorsionConsistent("d does not divide the composed v in Cantor composition")
    _, v = divmod_monic(tq, u1u2, p)
    u = u1u2
    # reduction: replace (u, v) by ((F - v^2)/u, -v mod new u) until deg u <= g
    while len(u) - 1 > g:
        num = add(fbar, scale(mul(v, v, p), -1, p), p)
        u_new, rem = divmod_monic(num, u, p)
        if rem:
            raise NotTorsionConsistent("u does not divide F - v^2 in Cantor reduction")
        u_new = monic(u_new, p)
        _, v_new = divmod_monic(scale(v, -1, p), u_new, p)
        u, v = u_new, v_new
    u = monic(u, p)
    if not u:
        u = [1]
    return MumfordDivisor(tuple(u), tuple(v), p)


def cantor_scalar_mul(
    n: int, d: MumfordDivisor, curve: HyperellipticCurve, p: int
) -> MumfordDivisor:
    if n < 0:
        return cantor_scalar_mul(-n, d.neg(), curve, p)
    result = MumfordDivisor.identity(p)
    base = d
    while n:
        if n & 1:
            result = cantor_compose_reduce(result, base, curve, p)
        n >>= 1
        if n:
            base = cantor_compose_reduce(base, base, curve, p)
    return result


def divisor_order(
    d: MumfordDivisor, curve: HyperellipticCurve, p: int, group_order: int
) -> int:
    """Order of d in J(F_p), by stripping primes from the group order."""
    if cantor_scalar_mul(group_order, d, curve, p).is_identity is False:
        raise NotTorsionConsistent("group order does not kill the divisor class")
    order = group_order
    for q in _prime_factors(group_order):
        while order % q == 0 and cantor_scalar_mul(order // q, d, curve, p).is_identity:
            order //= q
    return order


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def torsion_order(point: Point, curve: HyperellipticCurve, p: int, group_order: int) -> int:
    """Order of [Q-bar - infinity-bar] in J(F_p) for a non-rational extra Q.

    Reduction is injective on prime-to-p torsion for odd p of good reduction,
    so this is the exact torsion order whenever p does not divide the group
    order #J(F_p); ClassifiedPoint.order_p_ambiguous flags the other case.
    """
    qbar = reduce_point(point, p)
    if qbar.at_infinity:
        return 1
    return divisor_order(MumfordDivisor.from_point(qbar, p), curve, p, group_order)


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------


@dataclass
class ClassifiedPoint:
    """A found Q_p point with its verdict and reconstruction data.

    verdict: "rational" | "two-torsion" | "higher-torsion" (mutually
    exclusive, with the precedence rational > two-torsion > higher-torsion).
    """

    point: Point
    verdict: str
    rational: Point | None = None
    x_min_poly: list[int] | None = None
    order: int | None = None
    order_p_ambiguous: bool = False


def classify_point(point: Point, curve: HyperellipticCurve, fa: FrobeniusAction) -> ClassifiedPoint:
    """Steps 4-5 of run_chabauty, one pass per point.

    A point whose coordinates reconstruct to a rational point on the curve
    is rational.  Any other point gets the minimal polynomial of x and one
    refinement from it; y = 0 then makes it a two-torsion extra (a Weierstrass
    point), else a higher-torsion extra whose order and p-part flag both come
    from the one group order #J(F_p).
    """
    if point.at_infinity:
        return ClassifiedPoint(point, "rational", rational=INFINITY)
    ring = PadicRing(fa.p, fa.precision)
    rx = rational_reconstruct(point.x)
    ry = rational_reconstruct(point.y)
    if rx is not None and ry is not None and curve.f_eval(rx) == ry * ry:
        lift = Point(ring(rx), ring(ry))
        if (point.x - lift.x).is_zero and (point.y - lift.y).is_zero:
            return ClassifiedPoint(lift, "rational", rational=Point(rx, ry))
    poly = algebraic_dependency(point.x)
    refined = _refine_from_min_poly(point, poly, curve, ring)
    if point.y.is_zero:
        return ClassifiedPoint(refined, "two-torsion", x_min_poly=poly, order=2)
    group_order = jacobian_order_fp(fa)
    return ClassifiedPoint(
        refined,
        "higher-torsion",
        x_min_poly=poly,
        order=torsion_order(refined, curve, fa.p, group_order),
        order_p_ambiguous=group_order % fa.p == 0,
    )


def _refine_from_min_poly(point, poly, curve, ring) -> Point:
    """Re-lift the coordinates to full precision from the minimal polynomial."""
    if poly is None:
        return point
    p = ring.p
    try:
        x = hensel_simple_root(poly, point.x.lift(), p, ring.prec)
    except CkError:
        return point
    if not (x - point.x).is_zero:
        return point
    if point.y.is_zero:
        return Point(x, ring.zero())
    try:
        y = hensel_sqrt(curve.f_at(x), point.y.lift() % p)
    except CkError:
        return point
    return Point(x, y)
