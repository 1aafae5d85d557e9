"""The per-coefficient power series that padic.PadicPowerSeries replaced.

Every coefficient is its own PadicScalar and every operation runs the
scalar arithmetic term by term; a product skips the terms with an operand
that is zero to precision, so it can claim digits it does not have.  The
tests use it as the oracle for values and, on the charts, for precision
claims that do not rest on that skip.
"""

from __future__ import annotations

from ckpoints.errors import PrecisionExhausted
from ckpoints.padic import PadicScalar, hensel_sqrt


class ScalarSeries:
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
    def zero(cls, p: int, prec: int, order: int) -> "ScalarSeries":
        z = PadicScalar.zero(p, prec)
        return cls([z] * (order + 1), order, p)

    @classmethod
    def constant(cls, c: PadicScalar, order: int) -> "ScalarSeries":
        z = PadicScalar.zero(c.p, c.prec)
        return cls([c] + [z] * order, order, c.p)

    def truncate(self, order: int) -> "ScalarSeries":
        if order >= self.order:
            return self
        return ScalarSeries(self.coeffs[: order + 1], order, self.p)

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        order = min(self.order, other.order)
        return ScalarSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(order + 1)], order, self.p
        )

    def __neg__(self):
        return ScalarSeries([-c for c in self.coeffs], self.order, self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "ScalarSeries") -> "ScalarSeries":
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
        return ScalarSeries(out, order, self.p)

    def scale(self, c: PadicScalar) -> "ScalarSeries":
        return ScalarSeries([a * c for a in self.coeffs], self.order, self.p)

    def shift_pow(self, k: int) -> "ScalarSeries":
        """Multiply by t^k (truncation order unchanged, top terms dropped)."""
        z = PadicScalar.zero(self.p, self.coeffs[0].prec)
        out = [z] * k + self.coeffs[: self.order + 1 - k]
        return ScalarSeries(out, self.order, self.p)

    def __pow__(self, n: int) -> "ScalarSeries":
        result = None
        base = self
        if n == 0:
            prec = self.coeffs[0].prec
            return ScalarSeries.constant(PadicScalar.one(self.p, prec), self.order)
        if n < 0:
            return self.inverse() ** (-n)
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "ScalarSeries":
        if self.order == 0:
            return ScalarSeries(
                [PadicScalar.zero(self.p, self.coeffs[0].prec)], 0, self.p
            )
        return ScalarSeries(
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

    def inverse(self) -> "ScalarSeries":
        """Inverse by z_0 = 1/c_0, z_n = -z_0 * sum_{i=1..n} c_i z_{n-i}; c_0 must be a unit."""
        c = self.coeffs
        if c[0].is_zero or c[0].val != 0:
            raise PrecisionExhausted("series inverse requires a unit constant term")
        z = [PadicScalar.one(self.p, c[0].prec) / c[0]]
        for n in range(1, self.order + 1):
            acc = sum((c[i] * z[n - i] for i in range(2, n + 1)), c[1] * z[n - 1])
            z.append(-(z[0] * acc))
        return ScalarSeries(z, self.order, self.p)

    def sqrt(self, seed: PadicScalar) -> "ScalarSeries":
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
        return ScalarSeries(y, self.order, self.p)

    def compose_poly(self, coeffs: list[PadicScalar]) -> "ScalarSeries":
        """Evaluate the polynomial with these ascending coefficients at this series (Horner)."""
        acc = ScalarSeries.constant(PadicScalar.zero(self.p, coeffs[-1].prec), self.order)
        for c in reversed(coeffs):
            acc = acc * self + ScalarSeries.constant(c, self.order)
        return acc

    def __str__(self):
        return " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs)) + f" + O(t^{self.order + 1})"


def scalar_integrate(s: ScalarSeries) -> ScalarSeries:
    """Termwise antiderivative with zero constant term.

    The t^(n+1) coefficient is a_n/(n+1); dividing by n+1 costs exactly
    v_p(n+1) digits of absolute precision on that coefficient.
    """
    if s.order < 1:
        raise ValueError("formal_integrate requires truncation order >= 1")
    out = [PadicScalar.zero(s.p, s.coeffs[0].prec)]
    for n in range(s.order + 1):
        out.append(s.coeffs[n].div_int(n + 1))
    return ScalarSeries(out, s.order + 1, s.p)

