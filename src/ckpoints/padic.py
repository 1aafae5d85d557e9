"""Capped-precision p-adic arithmetic.

Scalars are elements of Q_p known modulo p^N: a unit part, a valuation
(possibly negative) and an absolute precision N.  Arithmetic never reports
more precision than the inputs justify: addition takes the minimum of the
absolute precisions, multiplication the valuation-adjusted minimum.  A value
indistinguishable from 0 at its precision is flagged zero-to-precision and
comparisons against it are three-valued; undecidable comparisons raise
PrecisionExhausted at decision points instead of silently passing.

On top of the scalars the module provides truncated power series (inverse
and square root each one pass of a coefficient recurrence), Hensel lifting
(square roots, and simple roots of integer polynomials), a guaranteed Z_p
root finder for polynomials with PadicScalar coefficients, formal
integration, and small-matrix linear algebra with minimum-valuation
pivoting.  Exact polynomials stay integer lists (see intpoly).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NotASquare,
    NotSimpleRoot,
    PrecisionExhausted,
    SingularSystem,
    ZeroSeed,
)
from .intpoly import evaluate, taylor_shift


def int_valuation(n: int, p: int) -> int:
    """Largest e with p^e | n; raises on n = 0 (valuation is unbounded)."""
    if n == 0:
        raise ValueError("valuation of 0 is unbounded")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ilog(p: int, n: int) -> int:
    """Largest k with p^k <= n (0 when n < p)."""
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


class PadicScalar:
    """An element of Q_p known modulo p^prec.

    Stored as unit * p^val with the unit coprime to p, reduced modulo
    p^(prec - val).  unit == 0 encodes zero-to-precision, i.e. O(p^prec),
    and then val = prec, a lower bound on the valuation.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int):
        self.p = p
        if unit == 0:
            self.val = prec
            self.unit = 0
        else:
            self.val = val
            self.unit = unit
        self.prec = prec

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, p: int, prec: int) -> "PadicScalar":
        if n == 0:
            return cls(p, prec, 0, prec)
        v = int_valuation(n, p)
        if v >= prec:
            return cls(p, prec, 0, prec)
        unit = (n // p**v) % p ** (prec - v)
        return cls(p, v, unit, prec)

    @classmethod
    def from_fraction(cls, q: Fraction, p: int, prec: int) -> "PadicScalar":
        q = Fraction(q)
        if q == 0:
            return cls(p, prec, 0, prec)
        num, den = q.numerator, q.denominator
        vn = int_valuation(num, p)
        vd = int_valuation(den, p)
        v = vn - vd
        if v >= prec:
            return cls(p, prec, 0, prec)
        rel = prec - v
        m = p**rel
        unit = (num // p**vn) * pow(den // p**vd, -1, m) % m
        return cls(p, v, unit, prec)

    @classmethod
    def zero(cls, p: int, prec: int) -> "PadicScalar":
        return cls(p, prec, 0, prec)

    @classmethod
    def one(cls, p: int, prec: int) -> "PadicScalar":
        return cls(p, 0, 1, prec)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the value is indistinguishable from 0 at its precision."""
        return self.unit == 0

    def congruent(self, other, required: int | None = None):
        """Three-valued equality: True / False / None (undecidable).

        True when the difference vanishes to precision at least `required`
        (or to the full shared precision when `required` is None); False when
        the difference is certainly nonzero below that level; None when the
        shared precision is too low to decide.
        """
        d = self - other
        level = d.prec if required is None else required
        if not d.is_zero and d.val < level:
            return False
        if d.prec >= level:
            return True
        return None

    # -- representatives ----------------------------------------------

    def lift(self) -> int:
        """Least nonnegative integer representative (valuation must be >= 0)."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer lift")
        return self.unit * self.p**self.val % self.p**self.prec

    def lift_centered(self) -> int:
        m = self.p**self.prec
        r = self.lift()
        return r - m if r > m // 2 else r

    def digits(self, count: int | None = None) -> list[int]:
        """Base-p digits of the lift, least significant first."""
        n = self.lift()
        count = self.prec if count is None else count
        out = []
        for _ in range(count):
            n, r = divmod(n, self.p)
            out.append(r)
        return out

    # -- precision management -----------------------------------------

    def cap(self, prec: int) -> "PadicScalar":
        """Restrict to absolute precision prec (never increases precision)."""
        if prec >= self.prec:
            return self
        if self.unit == 0 or self.val >= prec:
            return PadicScalar(self.p, prec, 0, prec)
        return PadicScalar(self.p, self.val, self.unit % self.p ** (prec - self.val), prec)

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p^k exactly (precision shifts along)."""
        if self.unit == 0:
            return PadicScalar(self.p, self.prec + k, 0, self.prec + k)
        return PadicScalar(self.p, self.val + k, self.unit, self.prec + k)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        prec = min(self.prec, other.prec)
        if self.unit == 0:
            return other.cap(prec)
        if other.unit == 0:
            return self.cap(prec)
        v = min(self.val, other.val)
        rel = prec - v
        if rel <= 0:
            return PadicScalar(p, prec, 0, prec)
        m = p**rel
        s = (self.unit * p ** (self.val - v) + other.unit * p ** (other.val - v)) % m
        if s == 0:
            return PadicScalar(p, prec, 0, prec)
        w = int_valuation(s, p)
        if v + w >= prec:
            return PadicScalar(p, prec, 0, prec)
        return PadicScalar(p, v + w, (s // p**w) % p ** (prec - v - w), prec)

    def __neg__(self) -> "PadicScalar":
        if self.unit == 0:
            return self
        m = self.p ** (self.prec - self.val)
        return PadicScalar(self.p, self.val, (-self.unit) % m, self.prec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        if self.unit == 0 or other.unit == 0:
            prec = min(self.prec + other.val, other.prec + self.val)
            return PadicScalar(p, prec, 0, prec)
        val = self.val + other.val
        rel = min(self.prec - self.val, other.prec - other.val)
        return PadicScalar(p, val, self.unit * other.unit % p**rel, val + rel)

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        if other.unit == 0:
            raise PrecisionExhausted("division by a value that is zero to precision")
        if self.unit == 0:
            prec = min(self.prec - other.val, other.prec - 2 * other.val + self.val)
            return PadicScalar(p, prec, 0, prec)
        val = self.val - other.val
        rel = min(self.prec - self.val, other.prec - other.val)
        m = p**rel
        return PadicScalar(p, val, self.unit * pow(other.unit, -1, m) % m, val + rel)

    def mul_int(self, n: int) -> "PadicScalar":
        """Multiply by an exact integer (no precision cost beyond valuation)."""
        if n == 0:
            return PadicScalar(self.p, self.prec + 64, 0, self.prec + 64)
        v = int_valuation(n, self.p)
        u = n // self.p**v
        if self.unit == 0:
            return PadicScalar(self.p, self.prec + v, 0, self.prec + v)
        rel = self.prec - self.val
        return PadicScalar(self.p, self.val + v, self.unit * u % self.p**rel, self.prec + v)

    def div_int(self, n: int) -> "PadicScalar":
        """Divide by an exact nonzero integer; loses v_p(n) digits of precision."""
        if n == 0:
            raise ZeroDivisionError
        v = int_valuation(n, self.p)
        u = n // self.p**v
        if self.unit == 0:
            return PadicScalar(self.p, self.prec - v, 0, self.prec - v)
        rel = self.prec - self.val
        m = self.p**rel
        return PadicScalar(self.p, self.val - v, self.unit * pow(u, -1, m) % m, self.prec - v)

    def __pow__(self, n: int) -> "PadicScalar":
        if n == 0:
            return PadicScalar.one(self.p, self.prec - self.val)
        if n < 0:
            inv = PadicScalar.one(self.p, self.prec - self.val) / self
            return inv ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicScalar):
            return NotImplemented
        d = self - other
        return d.is_zero

    def __hash__(self):
        raise TypeError("PadicScalar is not hashable (equality is to precision)")

    def __repr__(self):
        return f"PadicScalar(p={self.p}, {self})"

    def __str__(self):
        if self.unit == 0:
            return f"O({self.p}^{self.prec})"
        if self.val >= 0:
            terms = []
            for i, d in enumerate(self.digits()):
                if d == 0:
                    continue
                if i == 0:
                    terms.append(str(d))
                elif i == 1:
                    terms.append(f"{d}*{self.p}")
                else:
                    terms.append(f"{d}*{self.p}^{i}")
            body = " + ".join(terms) if terms else "0"
            return f"{body} + O({self.p}^{self.prec})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.prec})"


class PadicRing:
    """Convenience factory fixing (p, prec) for scalars and series."""

    def __init__(self, p: int, prec: int):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime >= 3")
        self.p = p
        self.prec = prec

    def __call__(self, value) -> PadicScalar:
        if isinstance(value, PadicScalar):
            return value.cap(self.prec)
        if isinstance(value, Fraction):
            return PadicScalar.from_fraction(value, self.p, self.prec)
        return PadicScalar.from_int(int(value), self.p, self.prec)

    def zero(self) -> PadicScalar:
        return PadicScalar.zero(self.p, self.prec)

    def one(self) -> PadicScalar:
        return PadicScalar.one(self.p, self.prec)

    def series(self, coeffs, order: int) -> "PadicPowerSeries":
        cs = [self(c) for c in coeffs]
        cs += [self.zero()] * (order + 1 - len(cs))
        return PadicPowerSeries(cs[: order + 1], order, self.p)


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class PadicPowerSeries:
    """Power series truncated at t-adic order M (coefficients a_0 .. a_M).

    Binary operations propagate the minimum truncation order of the operands.
    """

    __slots__ = ("coeffs", "order", "p")

    def __init__(self, coeffs: list[PadicScalar], order: int, p: int):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list must have length order + 1")
        self.coeffs = list(coeffs)
        self.order = order
        self.p = p

    @classmethod
    def zero(cls, p: int, prec: int, order: int) -> "PadicPowerSeries":
        z = PadicScalar.zero(p, prec)
        return cls([z] * (order + 1), order, p)

    @classmethod
    def constant(cls, c: PadicScalar, order: int) -> "PadicPowerSeries":
        z = PadicScalar.zero(c.p, c.prec)
        return cls([c] + [z] * order, order, c.p)

    def truncate(self, order: int) -> "PadicPowerSeries":
        if order >= self.order:
            return self
        return PadicPowerSeries(self.coeffs[: order + 1], order, self.p)

    def __add__(self, other: "PadicPowerSeries") -> "PadicPowerSeries":
        order = min(self.order, other.order)
        return PadicPowerSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(order + 1)], order, self.p
        )

    def __neg__(self):
        return PadicPowerSeries([-c for c in self.coeffs], self.order, self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PadicPowerSeries") -> "PadicPowerSeries":
        order = min(self.order, other.order)
        za = PadicScalar.zero(self.p, self.coeffs[0].prec + other.coeffs[0].prec)
        out = [za] * (order + 1)
        for i in range(min(len(self.coeffs), order + 1)):
            a = self.coeffs[i]
            if a.is_zero:
                continue
            for j in range(min(len(other.coeffs), order + 1 - i)):
                b = other.coeffs[j]
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return PadicPowerSeries(out, order, self.p)

    def scale(self, c: PadicScalar) -> "PadicPowerSeries":
        return PadicPowerSeries([a * c for a in self.coeffs], self.order, self.p)

    def shift_pow(self, k: int) -> "PadicPowerSeries":
        """Multiply by t^k (truncation order unchanged, top terms dropped)."""
        z = PadicScalar.zero(self.p, self.coeffs[0].prec)
        out = [z] * k + self.coeffs[: self.order + 1 - k]
        return PadicPowerSeries(out, self.order, self.p)

    def __pow__(self, n: int) -> "PadicPowerSeries":
        result = None
        base = self
        if n == 0:
            prec = self.coeffs[0].prec
            return PadicPowerSeries.constant(PadicScalar.one(self.p, prec), self.order)
        if n < 0:
            return self.inverse() ** (-n)
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "PadicPowerSeries":
        if self.order == 0:
            return PadicPowerSeries(
                [PadicScalar.zero(self.p, self.coeffs[0].prec)], 0, self.p
            )
        return PadicPowerSeries(
            [self.coeffs[i].mul_int(i) for i in range(1, self.order + 1)],
            self.order - 1,
            self.p,
        )

    def evaluate(self, t: PadicScalar, tail_valuation: int = 0) -> PadicScalar:
        """Horner evaluation at a disc parameter (v(t) >= 1).

        The result's precision is capped by the unknown tail: terms beyond the
        truncation order contribute O(p^((order+1)*v(t) + tail_valuation)),
        assuming tail coefficients have valuation >= tail_valuation.
        """
        if not t.is_zero and t.val < 1:
            raise ValueError("series evaluation requires a parameter with v(t) >= 1")
        acc = PadicScalar.zero(self.p, self.coeffs[0].prec + max(t.val, 0) * (self.order + 1))
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc.cap((self.order + 1) * t.val + tail_valuation)

    def inverse(self) -> "PadicPowerSeries":
        """Inverse by z_0 = 1/c_0, z_n = -z_0 * sum_{i=1..n} c_i z_{n-i}; c_0 must be a unit."""
        c = self.coeffs
        if c[0].is_zero or c[0].val != 0:
            raise PrecisionExhausted("series inverse requires a unit constant term")
        z = [PadicScalar.one(self.p, c[0].prec) / c[0]]
        for n in range(1, self.order + 1):
            acc = sum((c[i] * z[n - i] for i in range(2, n + 1)), c[1] * z[n - 1])
            z.append(-(z[0] * acc))
        return PadicPowerSeries(z, self.order, self.p)

    def sqrt(self, seed: PadicScalar) -> "PadicPowerSeries":
        """The square root whose constant term is congruent to seed mod p.

        The seed only picks the branch: y_0 = hensel_sqrt(a_0, seed mod p)
        holds a_0's full precision, and y_n = (a_n - sum_{i=1..n-1} y_i
        y_{n-i}) / (2 y_0).  A seed or an a_0 that is not a unit raises
        PrecisionExhausted, and seed^2 != a_0 (mod p) NotASquare.
        """
        if seed.is_zero or seed.val != 0:
            raise PrecisionExhausted("series sqrt requires a unit constant term")
        a = self.coeffs
        y = [hensel_sqrt(a[0], seed.unit)]
        two_y0 = y[0].mul_int(2)
        for n in range(1, self.order + 1):
            y.append(sum((-(y[i] * y[n - i]) for i in range(1, n)), a[n]) / two_y0)
        return PadicPowerSeries(y, self.order, self.p)

    def compose_poly(self, coeffs: list[PadicScalar]) -> "PadicPowerSeries":
        """Evaluate the polynomial with these ascending coefficients at this series (Horner)."""
        acc = PadicPowerSeries.constant(PadicScalar.zero(self.p, coeffs[-1].prec), self.order)
        for c in reversed(coeffs):
            acc = acc * self + PadicPowerSeries.constant(c, self.order)
        return acc

    def __str__(self):
        return " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs)) + f" + O(t^{self.order + 1})"


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def _newton_root(f: list[int], x: int, p: int, n: int) -> int:
    """Newton-lift x to a root of the integer polynomial f, modulo p^(n - d).

    Requires Hensel's condition v(f(x)) > 2d with d = v(f'(x)); the root
    is then unique mod p^(n - d) and d stays fixed along the lift.  All
    arithmetic is mod p^n.  Each step at least doubles v(f(x)) - 2d, so
    n.bit_length() + 1 steps reach f(x) = 0 (mod p^n); the loop raises
    PrecisionExhausted rather than run past that bound.
    """
    m = p**n
    df = [i * f[i] for i in range(1, len(f))]
    for _ in range(n.bit_length() + 1):
        fx, dfx = evaluate(f, x, m), evaluate(df, x, m)
        if dfx == 0:
            raise PrecisionExhausted("derivative vanishes to working precision")
        d = int_valuation(dfx, p)
        if fx == 0:
            return x % p ** (n - d)
        if int_valuation(fx, p) <= 2 * d:
            raise PrecisionExhausted("Hensel's condition v(f(x)) > 2 v(f'(x)) fails")
        x = (x - fx // p**d * pow(dfx // p**d, -1, m)) % m
    raise PrecisionExhausted("Newton lift did not converge")


def hensel_sqrt(a: PadicScalar, seed: int) -> PadicScalar:
    """Square root of a unit a in Z_p, pinned by its residue mod p.

    Requires v(a) = 0 (else PrecisionExhausted), seed nonzero mod p, and
    seed^2 = a (mod p); the result r satisfies r^2 = a to the full precision
    of a and r = seed (mod p).
    """
    p, prec = a.p, a.prec
    if a.is_zero or a.val != 0:
        raise PrecisionExhausted("hensel_sqrt requires a unit argument (valuation 0)")
    seed %= p
    if seed == 0:
        raise ZeroSeed("square-root seed is 0 mod p")
    a_int = a.unit % p**prec
    if (seed * seed - a_int) % p != 0:
        raise NotASquare(f"{seed}^2 != a (mod {p})")
    return PadicScalar(p, 0, _newton_root([-a_int, 0, 1], seed, p, prec), prec)


def hensel_simple_root(f: list[int], seed: int, p: int, prec: int) -> PadicScalar:
    """The root of the integer polynomial f modulo p^prec that is seed mod p.

    f holds ascending coefficients, exact or reduced mod p^prec.  Requires
    f(seed) = 0 and f'(seed) != 0 (mod p), else NotSimpleRoot; Newton
    iteration then converges to the unique root of f congruent to seed.
    """
    seed %= p
    if evaluate(f, seed, p) != 0:
        raise NotSimpleRoot(f"{seed} is not a root mod {p}")
    if evaluate([i * f[i] for i in range(1, len(f))], seed, p) == 0:
        raise NotSimpleRoot(f"derivative vanishes at {seed} mod {p}")
    return PadicScalar.from_int(_newton_root(f, seed, p, prec), p, prec)


# ---------------------------------------------------------------------------
# Formal integration
# ---------------------------------------------------------------------------


def formal_integrate(s: PadicPowerSeries) -> PadicPowerSeries:
    """Termwise antiderivative with zero constant term.

    The t^(n+1) coefficient is a_n/(n+1); dividing by n+1 costs exactly
    v_p(n+1) digits of absolute precision on that coefficient.
    """
    if s.order < 1:
        raise ValueError("formal_integrate requires truncation order >= 1")
    out = [PadicScalar.zero(s.p, s.coeffs[0].prec)]
    for n in range(s.order + 1):
        out.append(s.coeffs[n].div_int(n + 1))
    return PadicPowerSeries(out, s.order + 1, s.p)


# ---------------------------------------------------------------------------
# Z_p root finding
# ---------------------------------------------------------------------------


def _zp_roots_int(coeffs: list[int], p: int, budget: int, depth: int) -> list[tuple[int, int]]:
    """All Z_p roots of the integer polynomial, as (residue, known-mod-p^k).

    Each root x comes with k >= budget - v(f'(x)), the most that Hensel's
    lemma allows, so no Newton polish can add digits.  A simple root mod p
    is lifted to k = budget with v(f'(x)) = 0.  A cluster root x = r + p*u
    comes from a root u of g(u) = f(r + p*u) / p^c, where c is the content,
    returned with k' >= (budget - c) - v(g'(u)).  Since
    g'(u) = p f'(x) / p^c, v(f'(x)) = v(g'(u)) + c - 1, and the root is
    known to k = min(budget, 1 + k') >= budget - v(f'(x)) digits.
    """
    if budget < 1:
        raise PrecisionExhausted("root search ran out of p-adic precision")
    if depth > 4 * budget + 8:
        raise PrecisionExhausted("root cluster could not be separated")
    fp = [c % p for c in coeffs]
    if all(c == 0 for c in fp):
        raise PrecisionExhausted("polynomial vanishes mod p after content removal")
    dfp = [i * coeffs[i] % p for i in range(1, len(coeffs))]
    out: list[tuple[int, int]] = []
    for r in range(p):
        if evaluate(fp, r, p) != 0:
            continue
        if evaluate(dfp, r, p) != 0:
            # simple root mod p: classical Hensel, unique root in this class
            out.append((_newton_root(coeffs, r, p, budget), budget))
        else:
            # cluster: zoom into the residue with x = r + p*u
            shifted = taylor_shift(coeffs, r)
            g = [shifted[i] * p**i for i in range(len(shifted))]
            nonzero = [c for c in g if c != 0]
            if not nonzero:
                raise PrecisionExhausted("series indistinguishable from 0 in a residue class")
            content = min(int_valuation(c, p) for c in nonzero)
            g = [c // p**content for c in g]
            sub_budget = budget - content
            if sub_budget < 1:
                raise PrecisionExhausted("root cluster below precision floor")
            for u, k in _zp_roots_int(g, p, sub_budget, depth + 1):
                know = min(budget, 1 + k)
                out.append(((r + p * u) % p**know, know))
    return out


def padic_poly_roots(coeffs: list[PadicScalar]) -> list[PadicScalar]:
    """Every Z_p root of the polynomial with these ascending coefficients.

    Expects coefficients that are not all zero to working precision; they
    may have negative valuation.  Every root returned is simple, to the best
    available precision: Newton's lemma isolates it within the digits it
    claims.  A root cluster that cannot be separated at the working
    precision (a multiple root, or roots closer than the precision can
    tell) raises PrecisionExhausted; chabauty bounds the number of roots by
    Strassmann's theorem.
    """
    p = coeffs[0].p
    nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero]
    if not nonzero:
        raise PrecisionExhausted("polynomial is zero to working precision")
    if nonzero == [0]:
        return []
    shift = -min(min(coeffs[i].val for i in nonzero), 0)
    prec = min(c.prec for c in coeffs) + shift
    ints = [c.shift(shift).lift() for c in coeffs]
    content = min(int_valuation(c, p) for c in ints if c != 0)
    if content:
        ints = [c // p**content for c in ints]
        prec -= content
    if prec < 1:
        raise PrecisionExhausted("no significant digits left after content removal")
    roots = [PadicScalar.from_int(x, p, k).cap(k) for x, k in _zp_roots_int(ints, p, prec, 0)]
    # distinct residues by construction; sort for determinism
    roots.sort(key=lambda r: r.lift())
    return roots


# ---------------------------------------------------------------------------
# Truncated discriminant
# ---------------------------------------------------------------------------


def truncated_discriminant(s: PadicPowerSeries, order: int) -> PadicScalar:
    """Discriminant of the degree-<=order polynomial truncation of s.

    Nonvanishing (to precision) certifies that the truncation has only
    simple roots.
    """
    if s.order < order:
        raise ValueError("series truncation order is below the requested degree")
    coeffs = s.coeffs[: order + 1]
    deg = -1
    for i in range(len(coeffs) - 1, -1, -1):
        if not coeffs[i].is_zero:
            deg = i
            break
    prec = min(c.prec for c in coeffs)
    if deg <= 0:
        return PadicScalar.zero(s.p, prec)
    if deg == 1:
        return PadicScalar.one(s.p, prec)
    f = coeffs[: deg + 1]
    df = [f[i].mul_int(i) for i in range(1, deg + 1)]
    res = _sylvester_resultant(f, df, s.p)
    disc = res / f[deg]
    if (deg * (deg - 1) // 2) % 2 == 1:
        disc = -disc
    return disc


def _sylvester_resultant(f: list[PadicScalar], g: list[PadicScalar], p: int) -> PadicScalar:
    n = len(f) - 1
    m = len(g) - 1
    size = n + m
    prec = min(min(c.prec for c in f), min(c.prec for c in g))
    zero = PadicScalar.zero(p, prec)
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(m):
        rows.append([zero] * i + fr + [zero] * (size - n - 1 - i))
    for i in range(n):
        rows.append([zero] * i + gr + [zero] * (size - m - 1 - i))
    return _determinant(rows, p)


def _forward_eliminate(rows: list[list[PadicScalar]], n: int) -> int | None:
    """Reduce the first n columns of rows (in place) to upper-triangular form.

    Pivots are chosen by minimum valuation.  Returns the sign of the row
    permutation, or None if some pivot column is zero to working precision.
    """
    sign = 1
    for col in range(n):
        pivot_row = None
        best_val = None
        for r in range(col, n):
            c = rows[r][col]
            if c.is_zero:
                continue
            if best_val is None or c.val < best_val:
                best_val = c.val
                pivot_row = r
        if pivot_row is None:
            return None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        for r in range(col + 1, n):
            c = rows[r][col]
            if c.is_zero:
                continue
            factor = c / pivot
            for k in range(col, len(rows[r])):
                rows[r][k] = rows[r][k] - factor * rows[col][k]
    return sign


def _determinant(rows: list[list[PadicScalar]], p: int) -> PadicScalar:
    n = len(rows)
    rows = [list(r) for r in rows]
    prec = min(c.prec for r in rows for c in r)
    sign = _forward_eliminate(rows, n)
    if sign is None:
        return PadicScalar.zero(p, prec)
    det = PadicScalar.one(p, prec)
    for i in range(n):
        det = det * rows[i][i]
    return det if sign == 1 else -det


def solve_linear_system(matrix: list[list[PadicScalar]], rhs: list[PadicScalar], p: int) -> list[PadicScalar]:
    """Solve A x = b by Gaussian elimination with minimum-valuation pivoting."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if _forward_eliminate(a, n) is None:
        raise SingularSystem("pivot column is zero to working precision")
    x = [None] * n
    for i in reversed(range(n)):
        acc = a[i][n]
        for k in range(i + 1, n):
            acc = acc - a[i][k] * x[k]
        x[i] = acc / a[i][i]
    return x
