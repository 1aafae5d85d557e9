"""Capped-precision p-adic arithmetic.

Scalars are elements of Q_p known modulo p^N: a unit part, a valuation
(possibly negative) and an absolute precision N.  Arithmetic never reports
more precision than the inputs justify: addition takes the minimum of the
absolute precisions, multiplication the valuation-adjusted minimum.  A value
indistinguishable from 0 at its precision is flagged zero-to-precision and
comparisons against it are three-valued; undecidable comparisons raise
PrecisionExhausted at decision points instead of silently passing.

On top of the scalars the module provides truncated power series, stored
flat as one integer row over a common power of p with a precision per
index (products are one Kronecker big-int product, inverse and square
root Newton iterations at doubling order), Hensel lifting (square roots,
and simple roots of integer polynomials), a guaranteed Z_p root finder for
polynomials with PadicScalar coefficients, formal integration, and
small-matrix linear algebra with minimum-valuation pivoting, eliminated
once per matrix.  Exact polynomials stay integer lists (see intpoly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import (
    NotASquare,
    NotSimpleRoot,
    PrecisionExhausted,
    SingularSystem,
    ZeroSeed,
)
from .intpoly import evaluate, mul_trunc, taylor_shift


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
    """Power series a_0 + a_1 t + ... + a_M t^M over Q_p, truncated at t-adic order M.

    Flat: one integer row and one exponent e >= 0 hold every coefficient,
    a_n = row[n] / p^e, and a_n is known modulo p^precs[n]; row[n] is
    reduced modulo p^(precs[n] + e) (0 when that is < 1), and e is the
    least exponent the row needs.  Operations act on whole rows: a product
    is one Kronecker big-int product (intpoly.mul_trunc), inverse and sqrt
    are Newton iterations at doubling order.  Precision follows by prefix
    minima: with P_k(a) the least precision and V_k(a) the least valuation
    among a_0 .. a_k (a zero to precision counting with its precision),
    coefficient k of a product is known to min(P_k(a) + V_k(b),
    P_k(b) + V_k(a)), which every term a_i b_j with i + j = k guarantees.
    Derivative and formal_integrate change precisions per index, by the
    valuation of the integer they multiply or divide by.  Binary operations
    propagate the minimum truncation order of the operands.
    """

    __slots__ = ("p", "order", "row", "e", "precs", "_vals")

    def __init__(self, coeffs: list[PadicScalar], order: int, p: int):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list must have length order + 1")
        e = max([0] + [-c.val for c in coeffs if not c.is_zero])
        row = [c.unit * p ** (c.val + e) if c.unit else 0 for c in coeffs]
        self._set(p, row, e, [c.prec for c in coeffs])

    def _set(self, p: int, row: list[int], e: int, precs: list[int]):
        """Store row / p^e known to precs: reduce every entry, then lower e as far as the row allows."""
        top = max(precs)
        m = p ** max(top + e, 0)
        row = [r % m for r in row]
        if min(precs) < top:
            row = [r % p**k if (k := q + e) > 0 else 0 for r, q in zip(row, precs)]
        if e:
            g = math.gcd(*row)
            v = e if g == 0 else min(e, int_valuation(g, p))
            if v:
                row = [r // p**v for r in row]
                e -= v
        self.p, self.order, self.row, self.e, self.precs = p, len(row) - 1, row, e, precs
        self._vals = None

    @classmethod
    def _flat(cls, p: int, row: list[int], e: int, precs: list[int]) -> "PadicPowerSeries":
        s = object.__new__(cls)
        s._set(p, row, e, precs)
        return s

    @classmethod
    def zero(cls, p: int, prec: int, order: int) -> "PadicPowerSeries":
        return cls._flat(p, [0] * (order + 1), 0, [prec] * (order + 1))

    @classmethod
    def constant(cls, c: PadicScalar, order: int) -> "PadicPowerSeries":
        z = PadicScalar.zero(c.p, c.prec)
        return cls([c] + [z] * order, order, c.p)

    @property
    def coeffs(self) -> list[PadicScalar]:
        """The coefficients as PadicScalars."""
        p, e = self.p, self.e
        out = []
        for r, q in zip(self.row, self.precs):
            if r == 0:
                out.append(PadicScalar(p, q, 0, q))
            else:
                v = int_valuation(r, p)
                out.append(PadicScalar(p, v - e, r // p**v, q))
        return out

    def _valuations(self) -> list[int]:
        """v(a_n) for every n; a zero to precision counts with its precision."""
        if self._vals is None:
            p, e = self.p, self.e
            self._vals = [q if r == 0 else int_valuation(r, p) - e for r, q in zip(self.row, self.precs)]
        return self._vals

    def _least_valuations(self, n: int) -> list[int]:
        """V_k, the least valuation among a_0 .. a_k, for k < n."""
        if self.row[0] % self.p and min(self.precs) >= -self.e:
            # a_0 has valuation -e, the least a nonzero entry or a zero to
            # a precision >= -e can have
            return [-self.e] * n
        return list(accumulate(self._valuations()[:n], min))

    def truncate(self, order: int) -> "PadicPowerSeries":
        if order >= self.order:
            return self
        return PadicPowerSeries._flat(self.p, self.row[: order + 1], self.e, self.precs[: order + 1])

    def extend(self, order: int) -> "PadicPowerSeries":
        """The same series at a higher truncation order: the new terms are
        zeros known to the precision of the constant term."""
        k = order - self.order
        if k <= 0:
            return self
        return PadicPowerSeries._flat(self.p, self.row + [0] * k, self.e, self.precs + [self.precs[0]] * k)

    def __add__(self, other: "PadicPowerSeries") -> "PadicPowerSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "PadicPowerSeries") -> "PadicPowerSeries":
        return self._combine(other, -1)

    def _combine(self, other: "PadicPowerSeries", sign: int) -> "PadicPowerSeries":
        p, n = self.p, min(self.order, other.order) + 1
        e = max(self.e, other.e)
        a = [r * p ** (e - self.e) for r in self.row[:n]]
        b = [sign * r * p ** (e - other.e) for r in other.row[:n]]
        precs = [min(x, y) for x, y in zip(self.precs[:n], other.precs[:n])]
        return PadicPowerSeries._flat(p, [x + y for x, y in zip(a, b)], e, precs)

    def __neg__(self):
        return PadicPowerSeries._flat(self.p, [-r for r in self.row], self.e, self.precs)

    def __mul__(self, other: "PadicPowerSeries") -> "PadicPowerSeries":
        p, n = self.p, min(self.order, other.order) + 1
        pa = accumulate(self.precs[:n], min)
        pb = accumulate(other.precs[:n], min)
        va, vb = self._least_valuations(n), other._least_valuations(n)
        precs = [min(x + w, y + v) for x, w, y, v in zip(pa, vb, pb, va)]
        e = self.e + other.e
        m = p ** max(max(precs) + e, max(self.precs) + self.e, max(other.precs) + other.e, 1)
        return PadicPowerSeries._flat(p, mul_trunc(self.row, other.row, n, m), e, precs)

    def scale(self, c: PadicScalar) -> "PadicPowerSeries":
        precs = [min(q + c.val, c.prec + v) for q, v in zip(self.precs, self._valuations())]
        if c.val >= 0:
            return PadicPowerSeries._flat(self.p, [r * c.unit * self.p**c.val for r in self.row], self.e, precs)
        return PadicPowerSeries._flat(self.p, [r * c.unit for r in self.row], self.e - c.val, precs)

    def shift_pow(self, k: int) -> "PadicPowerSeries":
        """Multiply by t^k (truncation order unchanged, top terms dropped)."""
        n = self.order + 1 - k
        return PadicPowerSeries._flat(
            self.p, [0] * k + self.row[:n], self.e, [self.precs[0]] * k + self.precs[:n]
        )

    def __pow__(self, n: int) -> "PadicPowerSeries":
        result = None
        base = self
        if n == 0:
            return PadicPowerSeries.constant(PadicScalar.one(self.p, self.precs[0]), self.order)
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
        """Termwise derivative: n a_n gains v_p(n) digits of absolute precision."""
        p = self.p
        if self.order == 0:
            return PadicPowerSeries.zero(p, self.precs[0], 0)
        idx = range(1, self.order + 1)
        return PadicPowerSeries._flat(
            p,
            [n * self.row[n] for n in idx],
            self.e,
            [self.precs[n] + int_valuation(n, p) for n in idx],
        )

    def evaluate(self, t: PadicScalar, tail_valuation: int = 0) -> PadicScalar:
        """Horner evaluation at a disc parameter (v(t) >= 1).

        One integer Horner on the row.  The claim is the scalar Horner's:
        each step a <- a*t + a_n is known to min(prec(a) + v(t),
        prec(t) + v(a), prec(a_n)).  The result's precision is also capped
        by the unknown tail: terms beyond the truncation order contribute
        O(p^((order+1)*v(t) + tail_valuation)), assuming tail coefficients
        have valuation >= tail_valuation.
        """
        if not t.is_zero and t.val < 1:
            raise ValueError("series evaluation requires a parameter with v(t) >= 1")
        p, e, tv, tp = self.p, self.e, t.val, t.prec
        ti = t.lift()
        m = p ** max(max(self.precs) + e, 1)
        acc, prec = 0, self.precs[0] + max(tv, 0) * (self.order + 1)
        for r, q in zip(reversed(self.row), reversed(self.precs)):
            k = prec + e
            val = prec if k < 1 or acc % p**k == 0 else int_valuation(acc, p) - e
            prec = min(prec + tv, tp + val, q)
            acc = (acc * ti + r) % m
        prec = min(prec, (self.order + 1) * tv + tail_valuation)
        return PadicScalar.from_int(acc % p ** max(prec + e, 0), p, prec + e).shift(-e)

    def _unit_scaled(self, what: str) -> tuple[list[int], list[int], int]:
        """The row of a(p^e s), integral with a unit constant term, the
        precisions an inverse or a square root of a can claim, and the
        exponent w of the modulus p^w that the result's row needs.

        With L_k = min(0, v(a_1), .., v(a_k)), every coefficient k of 1/a'
        and of sqrt(a') has valuation >= k L_k over all lifts a' of a, so
        the differences 1/a' - 1/a = (a - a')/(a a') and sqrt(a') - sqrt(a)
        = (a' - a)/(sqrt(a') + sqrt(a)) are known to P_k(a) + k L_k.
        """
        vals = self._valuations()
        if self.row[0] == 0 or vals[0] != 0:
            raise PrecisionExhausted(f"series {what} requires a unit constant term")
        p, e = self.p, self.e
        low = accumulate([0] + vals[1:], min)
        precs = [q + k * v for k, (q, v) in enumerate(zip(accumulate(self.precs, min), low))]
        scaled = [self.row[0] // p**e] + [r * p ** (e * (k - 1)) for k, r in enumerate(self.row[1:], 1)]
        return scaled, precs, max(max(q + e * k for k, q in enumerate(precs)), 1)

    def _unscaled(self, row: list[int], precs: list[int]) -> "PadicPowerSeries":
        """The series b(t) = c(t / p^e) from the row of c, known to precs."""
        e, top = self.e, self.order
        return PadicPowerSeries._flat(
            self.p, [r * self.p ** (e * (top - k)) for k, r in enumerate(row)], e * top, precs
        )

    def inverse(self) -> "PadicPowerSeries":
        """1/a by Newton at doubling order, z <- z + z (1 - a z); a_0 must be a unit."""
        a, precs, w = self._unit_scaled("inverse")
        n_all, m = self.order + 1, self.p**w
        a = [c % m for c in a]
        z = [pow(a[0], -1, m)]
        while (n := len(z)) < n_all:
            n2 = min(2 * n, n_all)
            err = mul_trunc(a, z, n2, m)[n:]
            z += mul_trunc(z, [-c % m for c in err], n2 - n, m)
        return self._unscaled(z, precs)

    def sqrt(self, seed: PadicScalar) -> "PadicPowerSeries":
        """The square root whose constant term is congruent to seed mod p (see sqrt_and_inverse)."""
        return self.sqrt_and_inverse(seed)[0]

    def sqrt_and_inverse(self, seed: PadicScalar) -> tuple["PadicPowerSeries", "PadicPowerSeries"]:
        """y = sqrt(a), the root whose constant term is congruent to seed mod p, and 1/y.

        The seed only picks the branch: y_0 is the Hensel root of
        y^2 = a_0 over seed mod p, known to a_0's full precision.  Newton at doubling order finds
        z = 1/sqrt(a), z <- z + z (1 - a z^2)/2, and then y = a z.  Both
        claim the precisions of _unit_scaled: z(a') - z(a) = (a - a') z(a)
        z(a') / (y(a) + y(a')), whose coefficients have valuation >= k L_k.
        A seed or an a_0 that is not a unit raises PrecisionExhausted, and
        seed^2 != a_0 (mod p) NotASquare.
        """
        if seed.is_zero or seed.val != 0:
            raise PrecisionExhausted("series sqrt requires a unit constant term")
        a, precs, w = self._unit_scaled("sqrt")
        p, n_all, m = self.p, self.order + 1, self.p**w
        if (seed.unit**2 - a[0]) % p:
            raise NotASquare(f"{seed.unit % p}^2 != a_0 (mod {p})")
        a = [c % m for c in a]
        half = (m + 1) // 2
        z = [pow(_newton_root([-a[0], 0, 1], seed.unit, p, w), -1, m)]
        while (n := len(z)) < n_all:
            n2 = min(2 * n, n_all)
            err = mul_trunc(a, mul_trunc(z, z, n2, m), n2, m)[n:]
            z += mul_trunc(z, [-c * half % m for c in err], n2 - n, m)
        return self._unscaled(mul_trunc(a, z, n_all, m), precs), self._unscaled(z, precs)

    def compose_poly(self, coeffs: list[PadicScalar]) -> "PadicPowerSeries":
        """Evaluate the polynomial with these ascending coefficients at this series (Horner)."""
        acc = PadicPowerSeries.zero(self.p, coeffs[-1].prec, self.order)
        for c in reversed(coeffs):
            acc = (acc * self)._plus_constant(c)
        return acc

    def _plus_constant(self, c: PadicScalar) -> "PadicPowerSeries":
        """self + c, c taken as a series whose other terms are zeros known to c.prec."""
        p = self.p
        e = max(self.e, -c.val if c.unit else 0)
        row = [r * p ** (e - self.e) for r in self.row] if e > self.e else list(self.row)
        if c.unit:
            row[0] += c.unit * p ** (c.val + e)
        return PadicPowerSeries._flat(p, row, e, [min(q, c.prec) for q in self.precs])

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
    v_p(n+1) digits of absolute precision on that coefficient, and only
    there: the row takes the common exponent e + max v_p(n+1).
    """
    if s.order < 1:
        raise ValueError("formal_integrate requires truncation order >= 1")
    p = s.p
    vs = [int_valuation(n, p) for n in range(1, s.order + 2)]
    top = max(vs)
    e = s.e + top
    row, precs = [0], [s.precs[0]]
    for n, (r, q, v) in enumerate(zip(s.row, s.precs, vs), 1):
        k = q - v + e
        row.append(r * p ** (top - v) * pow(n // p**v, -1, p**k) if k > 0 else 0)
        precs.append(q - v)
    return PadicPowerSeries._flat(p, row, e, precs)


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


def _forward_eliminate(rows: list[list[PadicScalar]], n: int) -> tuple[int, list] | None:
    """Reduce the first n columns of rows (in place) to upper-triangular form.

    Pivots are chosen by minimum valuation.  Every entry below a pivot is
    eliminated, one that is zero to precision too: its factor is a zero
    that still carries the entry's uncertainty into the row.  Returns the
    sign of the row permutation and the steps (col, pivot row, [(row,
    factor)]) that replay the elimination on a right-hand side, or None if
    some pivot column is zero to working precision.
    """
    sign = 1
    steps = []
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
        factors = []
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            factors.append((r, factor))
            for k in range(col, len(rows[r])):
                rows[r][k] = rows[r][k] - factor * rows[col][k]
        steps.append((col, pivot_row, factors))
    return sign, steps


def _determinant(rows: list[list[PadicScalar]], p: int) -> PadicScalar:
    n = len(rows)
    rows = [list(r) for r in rows]
    prec = min(c.prec for r in rows for c in r)
    eliminated = _forward_eliminate(rows, n)
    if eliminated is None:
        return PadicScalar.zero(p, prec)
    det = PadicScalar.one(p, prec)
    for i in range(n):
        det = det * rows[i][i]
    return det if eliminated[0] == 1 else -det


class LinearSystem:
    """A square matrix A eliminated once, for solving A x = b for many b.

    Gaussian elimination with minimum-valuation pivoting; solve replays
    the same row operations on b and back-substitutes, so each solution is
    the one elimination of the augmented matrix [A | b] would give.
    """

    def __init__(self, matrix: list[list[PadicScalar]]):
        self.rows = [list(row) for row in matrix]
        eliminated = _forward_eliminate(self.rows, len(self.rows))
        if eliminated is None:
            raise SingularSystem("pivot column is zero to working precision")
        self.steps = eliminated[1]

    def solve(self, rhs: list[PadicScalar]) -> list[PadicScalar]:
        b = list(rhs)
        for col, pivot_row, factors in self.steps:
            b[col], b[pivot_row] = b[pivot_row], b[col]
            for r, factor in factors:
                b[r] = b[r] - factor * b[col]
        n = len(b)
        x = [None] * n
        for i in reversed(range(n)):
            acc = b[i]
            for k in range(i + 1, n):
                acc = acc - self.rows[i][k] * x[k]
            x[i] = acc / self.rows[i][i]
        return x


def solve_linear_system(matrix: list[list[PadicScalar]], rhs: list[PadicScalar], p: int) -> list[PadicScalar]:
    """Solve A x = b by Gaussian elimination with minimum-valuation pivoting."""
    return LinearSystem(matrix).solve(rhs)
