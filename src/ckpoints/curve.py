"""Odd-degree hyperelliptic curve models and their local analytic data.

A curve is y^2 = F(x) with F monic, squarefree, of odd degree 2g+1 over Q.
The module covers model validation, rescaling non-monic models to monic
ones, reduction mod p, point enumeration and Hensel lifting, local charts
(power-series coordinates on residue discs), a sieved rational point search,
and heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadReduction,
    EvenDegree,
    InternalInvariant,
    NotMonic,
    ParseError,
    PrecisionExhausted,
    SingularModel,
)
from .intpoly import evaluate, taylor_shift
from .padic import (
    PadicPowerSeries,
    PadicRing,
    PadicScalar,
    formal_integrate,
    hensel_simple_root,
    hensel_sqrt,
)


@dataclass(frozen=True)
class Point:
    """A curve point: affine (x, y) or the point at infinity.

    Coordinates live in whatever ring the context dictates: Fraction for
    rational points, int for F_p points, PadicScalar for Z_p points.
    """

    x: object = None
    y: object = None
    at_infinity: bool = False

    def __repr__(self):
        if self.at_infinity:
            return "inf"
        return f"({self.x}, {self.y})"


INFINITY = Point(at_infinity=True)


def involution(point: Point) -> Point:
    """The hyperelliptic involution (x, y) -> (x, -y); fixes infinity."""
    if point.at_infinity:
        return INFINITY
    return Point(point.x, -point.y)


class HyperellipticCurve:
    """Monic squarefree odd-degree model y^2 = F(x) over Q."""

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) % 2 != 0:
            raise EvenDegree(f"degree {len(coeffs) - 1} model; need odd degree 2g+1")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient {coeffs[-1]} != 1")
        self.coeffs = tuple(coeffs)
        self.genus = (len(coeffs) - 2) // 2
        self.disc = _poly_discriminant(list(coeffs))
        if self.disc == 0:
            raise SingularModel("F(x) is not squarefree")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def f_eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def fp_coeffs(self, m: int) -> list[int]:
        """Coefficients of F as integers mod m; denominators must be prime to m."""
        out = []
        for c in self.coeffs:
            if math.gcd(c.denominator, m) != 1:
                raise BadReduction(f"coefficient denominator {c.denominator} not prime to {m}")
            out.append(c.numerator * pow(c.denominator, -1, m) % m)
        return out

    def f_at(self, x: PadicScalar) -> PadicScalar:
        """F(x) at a p-integral x, to the precision of x."""
        m = x.p**x.prec
        return PadicScalar.from_int(evaluate(self.fp_coeffs(m), x.lift(), m), x.p, x.prec)

    def has_good_reduction(self, p: int) -> bool:
        """p odd, F p-integral and squarefree mod p: p does not divide disc(F)."""
        return p >= 3 and all(c.denominator % p for c in self.coeffs) and self.disc.numerator % p != 0

    def contains(self, point: Point) -> bool:
        """Exact check for rational points; precision check for p-adic ones."""
        if point.at_infinity:
            return True
        x, y = point.x, point.y
        if isinstance(x, PadicScalar):
            # Horner over PadicScalar: x may have negative valuation
            ring = PadicRing(x.p, max(x.prec, 1))
            acc = PadicScalar.zero(x.p, ring.prec + max(x.val, 0) * len(self.coeffs))
            for c in reversed(self.coeffs):
                acc = acc * x + ring(c)
            return (acc - y * y).is_zero
        return self.f_eval(Fraction(x)) == Fraction(y) ** 2

    def __repr__(self):
        return f"HyperellipticCurve(genus={self.genus}, coeffs={list(self.coeffs)})"


@dataclass(frozen=True)
class PointMap:
    """Invertible coordinate change between an input model and its monic model.

    forward: (x, y) -> (a*x, a^g*y) from the input model to the monic model.
    """

    lead: Fraction
    genus: int

    def forward(self, point: Point) -> Point:
        if point.at_infinity:
            return INFINITY
        a = self.lead
        return Point(Fraction(point.x) * a, Fraction(point.y) * a**self.genus)

    def backward(self, point: Point) -> Point:
        if point.at_infinity:
            return INFINITY
        a = self.lead
        return Point(Fraction(point.x) / a, Fraction(point.y) / a**self.genus)


def scale_to_monic(coeffs) -> tuple[HyperellipticCurve, PointMap]:
    """Rescale y^2 = a*x^(2g+1) + ... to a monic model via (x,y) -> (a x, a^g y).

    Rational points on the two models correspond bijectively under the map.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) % 2 != 0:
        raise EvenDegree(f"degree {len(coeffs) - 1} model; need odd degree 2g+1")
    a = coeffs[-1]
    if a == 0:
        raise EvenDegree("leading coefficient vanishes")
    g = (len(coeffs) - 2) // 2
    # multiplying the equation by a^(2g) makes v^2 = u^(2g+1) + ... monic
    new = [coeffs[j] * a ** (2 * g - j) for j in range(len(coeffs) - 1)] + [Fraction(1)]
    return HyperellipticCurve(new), PointMap(lead=a, genus=g)


def good_reduction_prime(curve: HyperellipticCurve, p_min: int = 7) -> int:
    """Smallest prime p >= p_min at which the model has good reduction."""
    p = max(p_min, 3)
    while True:
        if is_prime(p) and curve.has_good_reduction(p):
            return p
        p += 1


def enumerate_fp_points(curve: HyperellipticCurve, p: int) -> list[Point]:
    """All F_p-points of the reduction, infinity included."""
    if not curve.has_good_reduction(p):
        raise BadReduction(f"bad reduction at {p}")
    fbar = curve.fp_coeffs(p)
    sqrt_table: dict[int, int] = {}
    for y in range(p):
        sqrt_table.setdefault(y * y % p, y)
    points = [INFINITY]
    for x in range(p):
        acc = evaluate(fbar, x, p)
        if acc == 0:
            points.append(Point(x, 0))
        elif acc in sqrt_table:
            y = sqrt_table[acc]
            points.append(Point(x, min(y, p - y)))
            points.append(Point(x, max(y, p - y)))
    return points


def fp_disc_representatives(curve: HyperellipticCurve, p: int) -> list[tuple[Point, bool]]:
    """F_p points up to involution: (representative, has-distinct-mirror).

    The representative of a mirrored pair is the one with the smaller y.
    """
    out = []
    for pt in enumerate_fp_points(curve, p):
        if pt.at_infinity:
            out.append((pt, False))
        elif pt.y == 0:
            out.append((pt, False))
        elif pt.y <= p - pt.y:
            out.append((pt, True))
    return out


def lift_point(pbar: Point, curve: HyperellipticCurve, ring: PadicRing) -> Point:
    """Deterministic Z_p lift of an F_p point.

    Weierstrass residues lift to the exact Weierstrass point (Hensel root of
    F paired with y = 0); otherwise the least nonnegative lift of x-bar is
    used and y comes from Hensel's lemma applied to y^2 = F(x0).
    """
    if pbar.at_infinity:
        return INFINITY
    p, n = ring.p, ring.prec
    if pbar.y % p == 0:
        return Point(hensel_simple_root(curve.fp_coeffs(p**n), pbar.x, p, n), ring.zero())
    x = ring(pbar.x)
    return Point(x, hensel_sqrt(curve.f_at(x), pbar.y))


def reduce_point(point: Point, p: int) -> Point:
    """Reduction of a Z_p point to F_p; negative x-valuation lands at infinity."""
    if point.at_infinity:
        return INFINITY
    x, y = point.x, point.y
    if not x.is_zero and x.val < 0:
        return INFINITY
    return Point(x.lift() % p, y.lift() % p)


# ---------------------------------------------------------------------------
# Local charts
# ---------------------------------------------------------------------------


@dataclass
class LocalChart:
    """Power-series local coordinate t on one residue disc.

    kind is one of "non-weierstrass", "weierstrass", "infinity".  The stored
    series satisfy y(t)^2 = F(x(t)) to the truncation order; at infinity the
    coordinates are Laurent: x(t) = t^-2 and y(t) = t^-(2g+1) * y_series(t).
    y_inverse is 1/y_series, a byproduct of the square root that found
    y_series; a Weierstrass chart (y = t) has none.
    """

    kind: str
    center: Point
    curve: HyperellipticCurve
    ring: PadicRing
    order: int
    x_series: PadicPowerSeries
    y_series: PadicPowerSeries
    y_inverse: PadicPowerSeries | None = None

    def param_of(self, point: Point) -> PadicScalar:
        """Chart parameter of a point in this disc (center maps to 0)."""
        ring = self.ring
        if self.kind == "infinity":
            if point.at_infinity:
                return ring.zero()
            w = ring.one() / point.x  # t^2 = 1/x
            if w.is_zero or w.val % 2 != 0:
                raise PrecisionExhausted("point is not in the infinity disc")
            half_val = w.val // 2
            unit = PadicScalar(ring.p, 0, w.unit, w.prec - w.val)
            seed = None
            for s in range(1, ring.p):
                if (s * s - unit.unit) % ring.p == 0:
                    seed = s
                    break
            if seed is None:
                raise PrecisionExhausted("1/x is not a square: point not in disc")
            t = hensel_sqrt(unit, seed).shift(half_val)
            # two square roots: pick the branch matching the y-coordinate
            y_t = self.y_series.evaluate(t) * t ** (-(2 * self.curve.genus + 1))
            if (y_t - point.y).is_zero:
                return t
            t = -t
            y_t = self.y_series.evaluate(t) * t ** (-(2 * self.curve.genus + 1))
            if not (y_t - point.y).is_zero:
                raise PrecisionExhausted("neither branch matches the y-coordinate")
            return t
        if point.at_infinity:
            raise PrecisionExhausted("infinity is not in a finite disc")
        if self.kind == "weierstrass":
            return point.y
        return point.x - self.center.x

    def point_at(self, t: PadicScalar) -> Point:
        ring = self.ring
        if self.kind == "infinity":
            if t.is_zero:
                return INFINITY
            x = ring.one() / (t * t)
            y = self.y_series.evaluate(t) * t ** (-(2 * self.curve.genus + 1))
            return Point(x, y)
        if self.kind == "weierstrass":
            return Point(self.x_series.evaluate(t), t)
        # x(t) = x(P) + t is exact; only the y-series is truncated
        return Point(self.center.x + t, self.y_series.evaluate(t))

    def omega_pullbacks(self, count: int | None = None) -> list[tuple[int, PadicPowerSeries]]:
        """Pullbacks of x^i dx/(2y), i = 0..count-1 (count 2g by default), as (shift, series).

        The pullback of omega_i is t^shift * series(t) dt; the shift is only
        nonzero (and then even and possibly negative) on the infinity disc.
        """
        g = self.curve.genus
        count = 2 * g if count is None else count
        if self.kind == "infinity":
            minus_inv = -self.y_inverse
            return [(2 * (g - 1 - i), minus_inv) for i in range(count)]
        if self.kind == "weierstrass":
            dx = self.x_series.derivative()
            if not dx.coeffs[0].is_zero:
                raise PrecisionExhausted("weierstrass chart with odd x-series")
            base = PadicPowerSeries(dx.coeffs[1:], dx.order - 1, self.ring.p).scale(self.ring(Fraction(1, 2)))
            xs = self.x_series.truncate(base.order)
        else:
            base = self.y_inverse.scale(self.ring(Fraction(1, 2)))
            xs = self.x_series
        out = [(0, base)]
        while len(out) < count:
            out.append((0, out[-1][1] * xs))
        return out

    def antiderivatives(self, count: int) -> list[PadicPowerSeries]:
        """The integrals from the center of the first count basis
        differentials, as series in t; each must be holomorphic on the disc."""
        out = []
        for shift, pull in self.omega_pullbacks(count):
            if shift < 0:
                raise InternalInvariant("holomorphic pullback with a pole (internal)")
            out.append(formal_integrate(pull.shift_pow(shift)))
        return out


def local_chart(point: Point, curve: HyperellipticCurve, ring: PadicRing, order: int) -> LocalChart:
    """Chart on the residue disc of a Z_p point, to t-adic order `order`.

    Non-Weierstrass discs are charted at the point itself (x = x(P) + t);
    Weierstrass discs at their exact Weierstrass center (y = t); the infinity
    disc via x = t^-2, y = t^-(2g+1) * unit-series.
    """
    p = ring.p
    g = curve.genus
    f = [ring(c) for c in curve.coeffs]
    if point.at_infinity or (not point.x.is_zero and point.x.val < 0):
        # V(t) = t^(2(2g+1)) * F(1/t^2) = 1 + c_{2g} t^2 + ... + c_0 t^(2(2g+1))
        coeffs = [ring.zero() for _ in range(order + 1)]
        coeffs[0] = ring.one()
        for j in range(2 * g + 1):
            e = 2 * (2 * g + 1 - j)
            if e <= order:
                coeffs[e] = f[j]
        v = PadicPowerSeries(coeffs, order, p)
        u, u_inv = v.sqrt_and_inverse(ring.one())
        x_series = PadicPowerSeries.constant(ring.one(), order)
        return LocalChart("infinity", INFINITY, curve, ring, order, x_series, u, u_inv)
    if point.y.is_zero or point.y.val >= 1:
        # center at the exact Weierstrass point of the disc
        x0 = hensel_simple_root(curve.fp_coeffs(p**ring.prec), point.x.lift(), p, ring.prec)
        center = Point(x0, ring.zero())
        x_series = _solve_weierstrass_x(f, x0, ring, order)
        y_series = PadicPowerSeries(
            [ring.zero(), ring.one()] + [ring.zero()] * (order - 1), order, p
        )
        return LocalChart("weierstrass", center, curve, ring, order, x_series, y_series)
    xs = PadicPowerSeries(
        [point.x, ring.one()] + [ring.zero()] * (order - 1), order, p
    )
    # F(x(P) + t) by one Taylor shift over the integers; a change of x(P) by
    # O(p^k) moves each coefficient by O(p^k)
    shifted = taylor_shift(curve.fp_coeffs(p**ring.prec), point.x.lift())
    fx = PadicRing(p, min(ring.prec, point.x.prec)).series(shifted, order)
    y_series, y_inverse = fx.sqrt_and_inverse(point.y)
    return LocalChart("non-weierstrass", point, curve, ring, order, xs, y_series, y_inverse)


def _solve_weierstrass_x(f: list[PadicScalar], x0: PadicScalar, ring: PadicRing, order: int) -> PadicPowerSeries:
    """Series x(t) with F(x(t)) = t^2 and x(0) = x0 (F'(x0) a unit).

    x is even in t (x(-t) solves the same equation), so x(t) = X(t^2) with
    F(X(s)) = s, a series of half the length.  Newton's step
    X <- X - (F(X) - s) / F'(X) doubles the number of correct terms, so
    each step runs at twice the order of the last, from x0 (right mod s)
    up to order floor(order / 2).
    """
    half = order // 2
    df = [f[i].mul_int(i) for i in range(1, len(f))]
    s = ring.series([0, 1], half)
    x = PadicPowerSeries.constant(x0, 0)
    while x.order < half:
        x = x.extend(min(2 * x.order + 1, half))
        x = x - (x.compose_poly(f) - s.truncate(x.order)) * x.compose_poly(df).inverse()
    # final correctness check at full order
    resid = x.compose_poly(f) - s
    if any(not c.is_zero for c in resid.coeffs):
        raise PrecisionExhausted("weierstrass chart did not converge")
    zero = ring.zero()
    coeffs = [v for c in x.coeffs for v in (c, zero)]
    return PadicPowerSeries(coeffs[: order + 1] + [zero] * (order + 1 - len(coeffs)), order, ring.p)


# ---------------------------------------------------------------------------
# Rational point search and heights
# ---------------------------------------------------------------------------


# Sieve moduli: one power of each prime below 64.  The higher powers of 2,
# 3, 5 and 7 strike more numerators than the primes alone would.
_SIEVE_MODULI = (64, 27, 25, 49, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def search_rational_points(curve: HyperellipticCurve, height_bound: int) -> list[Point]:
    """All rational points (n/d, y) with max(|n|, |d|) <= height_bound, plus infinity.

    With L the lcm of the coefficient denominators and ic = L^2 F (an
    integer polynomial), a point with x = n/d in lowest terms has
    y = s / (L d^((deg+1)/2)), where s^2 = q(n, d) = d^(deg+1) ic(n/d) is
    an integer.  The search is a sieve in the style of Stoll's ratpoints:
    for each d it keeps one bitmask over the numerators n in [-H, H] and
    ANDs into it one mask per sieve modulus m, a power of a prime l.  The
    sieve is exact.  When l does not divide d,
    q(n, d) = d^(deg+1) ic(n d^-1) (mod m) and d^(deg+1) is a unit square
    (deg + 1 is even), so q(n, d) can be a square only if ic(n d^-1 mod m)
    is a square mod m, counting 0.  When l divides d, only the n that l
    divides are struck, which gcd(n, d) = 1 rules out anyway.  The mask of
    a class d mod m is one m-bit period tiled across the box by a single
    multiplication.  Every survivor still passes gcd(n, d) = 1, an exact
    integer square test and F(x) = y^2.  Deterministic output order:
    infinity first, then by (x, y).
    """
    points = [INFINITY]
    if height_bound < 1:
        return points
    lcm = 1
    for c in curve.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ic = [int(c * lcm * lcm) for c in curve.coeffs]
    deg = curve.degree
    half = (deg + 1) // 2

    def q_of(n: int, d: int) -> int:
        acc = 0
        dp = 1
        for c in reversed(ic):
            acc = acc * n + c * dp
            dp *= d
        return acc * d

    # bit i of a mask stands for the numerator n = i - height_bound
    width = 2 * height_bound + 1
    full = (1 << width) - 1
    sieve = []
    for m in _SIEVE_MODULI:
        squares = {x * x % m for x in range(m)}
        ok = [evaluate(ic, x, m) in squares for x in range(m)]
        tiles = -(-width // m)
        repunit = ((1 << (m * tiles)) - 1) // ((1 << m) - 1)
        sieve.append((m, ok, repunit))
    masks: dict[tuple[int, int], int] = {}

    found = []
    for d in range(1, height_bound + 1):
        alive = full
        for m, ok, repunit in sieve:
            b = d % m
            mask = masks.get((m, b))
            if mask is None:
                unit = math.gcd(b, m) == 1
                inv = pow(b, -1, m) if unit else 0
                period = 0
                for j in range(m):
                    n = j - height_bound
                    if ok[n * inv % m] if unit else math.gcd(n, m) == 1:
                        period |= 1 << j
                mask = masks[m, b] = period * repunit & full
            alive &= mask
        while alive:
            low = alive & -alive
            alive ^= low
            n = low.bit_length() - 1 - height_bound
            if math.gcd(n, d) != 1:
                continue
            q = q_of(n, d)
            if q < 0:
                continue
            s = math.isqrt(q)
            if s * s != q:
                continue
            x = Fraction(n, d)
            y = Fraction(s, lcm * d**half)
            if curve.f_eval(x) != y * y:
                continue
            if y == 0:
                found.append(Point(x, Fraction(0)))
            else:
                found.append(Point(x, y))
                found.append(Point(x, -y))
    found.sort(key=lambda pt: (pt.x, pt.y))
    return points + found


def global_height(point: Point) -> float:
    """Naive height max(log|n|, log|d|) of the x-coordinate n/d; 0 at infinity."""
    if point.at_infinity:
        return 0.0
    x = Fraction(point.x)
    n, d = abs(x.numerator), x.denominator
    if n == 0:
        return math.log(d)
    return max(math.log(n), math.log(d))


# ---------------------------------------------------------------------------
# Curve text format
# ---------------------------------------------------------------------------


def parse_curve_line(line: str) -> list[Fraction]:
    """Parse one `[c0,c1,...,c7]` line of ascending rational coefficients."""
    s = line.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"expected a bracketed coefficient list, got: {line!r}")
    body = s[1:-1].strip()
    if not body:
        raise ParseError("empty coefficient list")
    out = []
    for piece in body.split(","):
        piece = piece.strip()
        try:
            out.append(Fraction(piece))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {piece!r}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Small exact-arithmetic helpers
# ---------------------------------------------------------------------------


def _poly_discriminant(coeffs: list[Fraction]) -> Fraction:
    n = len(coeffs) - 1
    deriv = [coeffs[i] * i for i in range(1, n + 1)]
    res = _resultant(coeffs, deriv)
    disc = res / coeffs[-1]
    if (n * (n - 1) // 2) % 2 == 1:
        disc = -disc
    return disc


def _resultant(f: list[Fraction], g: list[Fraction]) -> Fraction:
    """Resultant over Q via the Euclidean remainder sequence."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]

    def deg(h):
        for i in range(len(h) - 1, -1, -1):
            if h[i] != 0:
                return i
        return -1

    def rem(a, b):
        a = list(a)
        db, lb = deg(b), b[deg(b)]
        while deg(a) >= db:
            da = deg(a)
            q = a[da] / lb
            for i in range(db + 1):
                a[da - db + i] -= q * b[i]
            a[da] = Fraction(0)
        return a

    res = Fraction(1)
    while True:
        df, dg = deg(f), deg(g)
        if dg < 0:
            return Fraction(0) if df > 0 else res
        if dg == 0:
            return res * g[0] ** df
        r = rem(f, g)
        dr = deg(r)
        res *= Fraction(-1) ** (df * dg) * g[dg] ** (df - (dr if dr >= 0 else 0))
        if dr < 0:
            return Fraction(0)
        f, g = g, r[: dr + 1]


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    i = 41
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True
