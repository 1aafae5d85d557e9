"""Frobenius action on the odd cohomology of y^2 = F(x).

Computes the matrix of the p-power Frobenius lift on the 2g-dimensional
basis omega_i = x^i dx/(2y) together with the exact-form corrections f_i
(so that the pullback of omega_i equals its basis expansion plus df_i), by
expanding the lift of 1/y as a p-adically convergent binomial series and
reducing pole orders and degrees against the relations

    d(b y^(1-2s)) = [2 b' F + (1-2s) b F'] y^(-2s) dx/(2y)
    d(x^(j-2g) y) = [2(j-2g) x^(j-2g-1) F + x^(j-2g) F'] dx/(2y).

The hot loops run on plain integers modulo p^Nw, each a residue of the
p-adic value it stands for; there is no running denominator.  Only the
2g x 2g matrix becomes PadicScalars; each correction f_i stays flat
(Correction: one integer row per odd y-exponent and one absolute precision
N), and all of them are evaluated at a point in one pass over their rows
packed into integers.

Why Nw = N + (a few digits) suffices.  The sweep below the series is
linear: pole level s applies its carry map M_s and its correction map
C_s = S/(1 - 2s), level 0 its degree steps, and nothing else happens but
reducing modulo p^Nw.  Each such reduction changes a value by a multiple
of p^Nw at the level where it happens, and the rest of the sweep carries
that change to the outputs through the composite of the maps below it:
M_1 ... M_s into the matrix, C_t M_(t+1) ... M_s into the correction at
level t, and the level-0 steps after either.  Kedlaya's estimate for the
reduction (Kedlaya, J. Ramanujan Math. Soc. 16, 2001; Harvey, "Kedlaya's
algorithm in larger characteristic", IMRN 2007) bounds the denominators
of every such composite from pole levels up to s_max by
p^floor(log_p(2 s_max + 1)), and those of the level-0 steps by
p^floor(log_p(d_max)), d_max the largest odd number they divide by; d_max
comes from a bound on the level-0 degree that the sweep checks, raising
InternalInvariant above it.  So every output is right modulo
p^(Nw - loss), loss the sum of the two; this is precision tracked
through the differential of a linear map (Caruso, Roe and Vaccon,
"Tracking p-adic precision", 2014) rather than step by step.  The tests
compute the composites and check the bound.

The divisions themselves are exact.  Each value divided (S b at pole level
s by p^v(1 - 2s), a leading coefficient at level 0 by p^v(2j - 2g + 1)) is
the image of the inputs under such a composite times a p-adic unit, so it
is divisible whenever the inputs carry its denominator.  Series term k
carries p^(k+1) and reaches no level above p k + (p - 1)/2; for p > 2g
that covers floor(log_p(2s - 1)) at every level s plus the one digit the
level-0 steps can take (d_max < p^2 there, 47 at p = 7).  For p <= 2g the
inputs are multiplied by p^loss first and the results divided by it (the
headroom, Correction.e).  A remainder therefore means a bug, and raises
InternalInvariant, not PrecisionExhausted.

The series is stored in a level representation {s: b_s(x)} standing for
sum_s b_s F^(-s) with deg b_s < deg F.  E = (F(x^p) - F(x)^p)/p is never
formed: F(x^p) = F(x)^p mod p, so the F-adic digits of F(x^p), taken modulo
p^(Nw+1), are a lone 1 at F^p plus p times the digits of E.  Multiplying by
W = E F^(-p) sends level s and digit k to level s + p - k: a convolution in
the level index, done as one Kronecker-substituted big-int product
(intpoly.mul_rows), then one split by F per output level whose quotient
carries one level down.  The series takes about 2 sqrt(k_max) such
products, not k_max: the baby steps W^0 .. W^b, then Horner in Y = W^b,
with Y itself read as a digit list.  The last product, by the digits of
x^(p i + p - 1), goes to the reduction unsplit: there each pole level
applies two maps built once per F and p^Nw, S(b) = b/F' mod F and
Q(b) = (b - S(b) F')/F, Q taking in the quotient a split would carry.  All
of it is linear, so each result is the residue mod p^Nw of the per-pair loop.
The six final products share one packing of the series (intpoly.mul_rows_each).

Both fixed maps run as packed columns (intpoly.pack_columns): column j of
[S; Q] is one integer with the images of x^j in byte slots, one slot per
output row, each wide enough for the exact sum of 2 deg F - 1 products of
residues below p^Nw, so a pole step is one C-level sum of 2 deg F - 1
big-int products and one read per slot, followed by the exact division
by 1 - 2s.  The split by F in the series is a packed map of the same
kind, holding x^k mod F and x^k div F for k = deg F .. 2 deg F - 2.  The
sweep walks the levels from the top one down, and the unit part of each
divisor is inverted once per Frobenius attempt, for all six columns.

Byproducts: the characteristic polynomial of Frobenius (numerator of the
zeta function), worked out once per FrobeniusAction, and from it the point
count and the order of the Jacobian over F_p.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .curve import HyperellipticCurve, Point, is_prime
from .errors import BadReduction, InternalInvariant, PoleAtPoint, RoundingAmbiguous
from .intpoly import add, apply_columns, divmod_monic, mul, mul_rows_each, pack_columns, scale, trim, xgcd
from .padic import LinearSystem, PadicRing, PadicScalar, ilog, int_valuation


@dataclass
class Correction:
    """f = sum_w q_w(x) y^w with every coefficient of q_w equal to r / p^e.

    ws are the sorted odd y-exponents and rows[k] holds the residues r of
    q_{ws[k]} modulo p^(prec + e), trimmed; a q_w that vanishes modulo
    p^prec has no row.  f is known to absolute precision prec.  e is the
    sweep's headroom, 0 for p > 2g.  val is the least valuation of a
    coefficient (prec when all vanish).
    """

    p: int
    ws: list[int]
    rows: list[list[int]]
    e: int
    prec: int

    def __post_init__(self):
        top = self.p ** (self.prec + self.e)
        self.val = ilog(self.p, math.gcd(top, *(c for row in self.rows for c in row))) - self.e

    @functools.cached_property
    def packed_rows(self) -> tuple[int, list[int]]:
        """(size, packed): row k as one int, coefficient j in byte slot j of
        the given size (Kronecker substitution).  A slot holds the exact sum
        of len(rows) products of two residues below p^(prec + e), so
        sum_k packed[k] z_k has sum_k r_kj z_k in slot j for any such z_k.
        """
        return pack_columns(self.rows, self.p ** (self.prec + self.e))


@dataclass
class FrobeniusAction:
    """Matrix of phi* on the basis omega_i plus exact-form corrections.

    matrix[j][i] is the omega_j-coefficient of the reduction of phi*omega_i
    and corrections[i] is the f_i with phi*omega_i = sum_j matrix[j][i]
    omega_j + df_i.
    """

    curve: HyperellipticCurve
    p: int
    precision: int
    matrix: list[list[PadicScalar]]
    corrections: list[Correction]

    @property
    def genus(self) -> int:
        return self.curve.genus

    @functools.cached_property
    def char_poly(self) -> list[int]:
        """zeta_char_poly of this action, computed on first use and kept."""
        return zeta_char_poly(self)

    @functools.cached_property
    def fixed_point_system(self) -> LinearSystem:
        """(M^T - I), eliminated on first use and kept.

        A Frobenius-fixed point T gives (M^T - I) [.. int_infinity^T omega_i ..]
        = [.. -f_i(T) ..] (see coleman); every such T solves this one system.
        """
        n = len(self.matrix)
        ring = PadicRing(self.p, self.precision)
        one, zero = ring.one(), ring.zero()
        return LinearSystem(
            [[self.matrix[j][i] - (one if i == j else zero) for j in range(n)] for i in range(n)]
        )


# ---------------------------------------------------------------------------
# The reduction sweep
# ---------------------------------------------------------------------------


class _ReductionState:
    """Mutable state for one reduction: levels (level 0 included) and
    corrections, every value a plain residue modulo p^nw of the p-adic
    value times p^headroom."""

    def __init__(self, fints, dints, p, nw, genus, headroom, *, maps, columns, degree0, units):
        self.f = fints
        self.df = dints
        self.p = p
        self.nw = nw
        self.m = p**nw
        self.g = genus
        self.headroom = headroom
        # _pole_maps and their _pole_columns, built once per F and modulus
        self.maps = maps
        self.columns = columns
        # the level-0 degree the caller sized its loss for
        self.degree0 = degree0
        # the divisors' unit parts, shared by the states of one Frobenius attempt
        self.units = units
        self.levels: dict[int, list[int]] = {}
        self.corrections: dict[int, list[int]] = {}

    def add(self, level: int, poly: list[int]):
        """Add poly F^(-level); at a pole level poly has at most 2 deg F - 1 coefficients."""
        if self.headroom:
            poly = scale(poly, self.p**self.headroom, self.m)
        for _ in range(-level):
            poly = mul(poly, self.f, self.m)
        _accumulate(self.levels, max(level, 0), poly, self.m)

    def sweep(self):
        """Reduce all pole levels and the level-0 degree to the basis."""
        m = self.m
        two_g = 2 * self.g
        levels = self.levels
        for s in range(max(levels, default=0), 0, -1):
            if b_in := levels.pop(s, None):
                carry, corr = _pole_step(*self.maps, b_in, s, m, self.columns, self.units)
                if corr:  # the one correction at y^(1 - 2s)
                    self.corrections[1 - 2 * s] = corr
                _accumulate(levels, s - 1, carry, m)
        # level 0: lower the polynomial degree below 2g via d(x^(j-2g) y)
        level0 = levels.pop(0, [])
        while len(level0) - 1 >= two_g:
            j = len(level0) - 1
            if j > self.degree0:
                raise InternalInvariant(f"level-0 degree {j} exceeds the bound {self.degree0} (internal)")
            piece = _divide_exactly([level0[j]], 2 * j - two_g + 1, self.units)[0]
            i = j - two_g  # d(x^i y) = [2i x^(i-1) F + x^i F'] dx/(2y)
            dj = add([0] * (i - 1) + scale(self.f, 2 * i, m), [0] * i + self.df, m)
            level0 = add(level0, scale(dj, -piece % m, m), m)
            if len(level0) - 1 >= j:
                raise InternalInvariant("degree reduction failed to cancel (internal)")
            _accumulate(self.corrections, 1, [0] * i + [piece], m)
        self.levels[0] = level0

    def published(self, n_target: int, loss: int) -> tuple[list[PadicScalar], Correction]:
        """Basis coefficients as PadicScalars and the flat correction, at
        min(n_target, nw - loss - headroom) digits: a sweep that can lose loss
        digits to its divisions leaves the rest of the nw right."""
        h = self.headroom
        prec = min(n_target, self.nw - loss - h)
        level0 = (self.levels[0] + [0] * (2 * self.g))[: 2 * self.g]
        col = [PadicScalar.from_int(c, self.p, self.nw).shift(-h).cap(prec) for c in level0]
        top = self.p ** (prec + h)
        ws, rows = [], []
        for w, poly in sorted(self.corrections.items()):
            if row := trim([c % top for c in poly]):
                ws.append(w)
                rows.append(row)
        return col, Correction(self.p, ws, rows, h, prec)


def _accumulate(table: dict[int, list[int]], key: int, poly: list[int], m: int):
    cur = table.get(key)
    table[key] = add(cur, poly, m) if cur else trim(list(poly))


def _divide_exactly(values: list[int], d: int, units: "_UnitParts") -> list[int]:
    """values / d modulo m = units.m for d = u p^v, u a unit, dividing p^v out exactly.

    The values the sweep divides are integral (module docstring), so p^v
    divides their residues and the quotients are right modulo p^(nw - v);
    a remainder is a bug, not a precision shortfall.
    """
    pv, u_inv = units[d]
    m = units.m
    if pv > 1:
        values = [c % m for c in values]
        if any(c % pv for c in values):
            raise InternalInvariant(f"{pv} does not divide a numerator divided by {d} (internal)")
        values = [c // pv for c in values]
    return [c * u_inv % m for c in values]


class _UnitParts(dict):
    """(p^v, u^(-1) mod m) by divisor d = u p^v, each found on first use:
    one table serves the six columns of a Frobenius attempt, so every
    level's unit is inverted once, however many levels there are."""

    def __init__(self, p: int, m: int):
        super().__init__()
        self.p, self.m = p, m

    def __missing__(self, d: int) -> tuple[int, int]:
        pv = self.p ** int_valuation(d, self.p)
        self[d] = unit = (pv, pow(d // pv, -1, self.m))
        return unit


def _reduction_data(curve: HyperellipticCurve, p: int, nw: int):
    """F, F' and (F')^{-1} mod F as integer lists modulo p^nw."""
    m = p**nw
    f = curve.fp_coeffs(m)
    df = [i * f[i] % m for i in range(1, len(f))]
    gcd, sf_p, _ = xgcd(df, f, p)
    if gcd != [1]:
        raise BadReduction("F' is not invertible mod (F, p): bad reduction")
    return f, df, _lift_poly_inverse(df, sf_p, f, p, nw)


def _pole_maps(f: list[int], df: list[int], sf: list[int], m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rows of S: b -> b (F')^(-1) mod F and Q: b -> (b - S(b) F')/F modulo m,
    on numerators b of up to 2 deg F - 1 coefficients."""
    n = len(f) - 1
    cols_s, cols_q = [], []
    for k in range(2 * n - 1):
        x_k = [0] * k + [1]
        _, b = divmod_monic(mul(x_k, sf, m), f, m)
        a, rem = divmod_monic(add(x_k, scale(mul(b, df, m), -1, m), m), f, m)
        if rem:
            raise InternalInvariant("pole reduction map lost exactness (internal)")
        cols_s.append(b + [0] * (n - len(b)))
        cols_q.append(a + [0] * (n - 1 - len(a)))
    return tuple(zip(*cols_s)), tuple(zip(*cols_q))


def _pole_columns(s_rows, q_rows, m: int) -> tuple[int, list[int]]:
    """[S; Q] as packed columns (intpoly.pack_columns): column j holds S x^j
    in slots 0 .. deg F - 1 and Q x^j above, each slot wide enough for the
    exact sum of 2 deg F - 1 products below m^2."""
    return pack_columns(list(zip(*s_rows, *q_rows)), m)


def _pole_step(s_rows, q_rows, b_in: list[int], s: int, m: int, columns, units: "_UnitParts"):
    """(carry, correction) of b_in at pole level s: with b = S b_in, the
    correction b/(1 - 2s) and the carry Q b_in - 2 (b/(1 - 2s))'.  S b_in
    and Q b_in are one sum over the packed columns of [S; Q]
    (_pole_columns), which a sweep builds once, as it finds the unit part
    of each 1 - 2s once in units."""
    size, cols = columns
    n = len(s_rows)
    slots = apply_columns(size, cols, b_in, n + len(q_rows))
    b = _divide_exactly(slots[:n], 1 - 2 * s, units)
    carry = [(a_i - 2 * i * b[i]) % m for i, a_i in enumerate(slots[n:], 1)]
    return trim(carry), trim(b)


# ---------------------------------------------------------------------------
# Frobenius action
# ---------------------------------------------------------------------------


def frobenius_action(curve: HyperellipticCurve, p: int, precision: int) -> FrobeniusAction:
    """Compute the action of the Frobenius lift x -> x^p on cohomology.

    The binomial series for the lift of 1/y is truncated once the dropped
    tail cannot affect the requested precision, and the working modulus
    p^Nw is fixed before anything is computed: the requested digits, plus
    the digits the reduction can lose (module docstring), plus a margin.
    """
    if p < 3 or not is_prime(p):
        raise BadReduction("p must be an odd prime")
    if not curve.has_good_reduction(p):
        raise BadReduction(f"bad reduction at {p}")
    n_target = precision

    # tail cutoff: term k carries p^(k+1), and the sweep loses at most
    # chain_loss digits of it on the way to the basis
    k_max = n_target + 4
    for _ in range(3):
        chain_loss = sum(_sweep_losses(p, k_max)) + 1
        k_max = n_target + chain_loss + 2
    chain_loss = sum(_sweep_losses(p, k_max)) + 1
    # for p <= 2g the results have denominators: sweep p^headroom times the inputs
    headroom = 0 if p > 2 * curve.genus else chain_loss
    # the series carries block j modulo p^(nw - jb), so nw must exceed k_max
    nw = max(n_target + chain_loss + headroom + 4, k_max + 2)
    return _frobenius_attempt(curve, p, n_target, k_max, nw, chain_loss, headroom)


def _sweep_losses(p: int, k_max: int) -> tuple[int, int]:
    """Digits the reduction of a series cut at k_max can lose: (pole levels, level-0 steps).

    Term k_max reaches pole level s_max = p k_max + (p - 1)/2; the level-0
    polynomial stays below degree _level0_degree(p), which the sweep checks.
    """
    s_max = p * k_max + (p - 1) // 2
    return ilog(p, 2 * s_max + 1), ilog(p, 2 * _level0_degree(p) + 1)


def _level0_degree(p: int) -> int:
    """The largest level-0 degree a Frobenius sweep at p sizes its loss for."""
    return 7 * p + 50


def _frobenius_attempt(curve, p, n_target, k_max, nw, loss, headroom) -> FrobeniusAction:
    g = curve.genus
    m = p**nw
    f, df, sf = _reduction_data(curve, p, nw)
    acc = _binomial_series(_e_digits(curve, p, nw), f, p, nw, k_max)

    monomials = [_fadic_digits([0] * (p * i + p - 1) + [1], f, m) for i in range(2 * g)]
    maps = _pole_maps(f, df, sf, m)
    packed, units = _pole_columns(*maps, m), _UnitParts(p, m)
    degree0 = _level0_degree(p)  # the bound _sweep_losses sizes the loss for
    columns, corrections = [], []
    for sums in _level_sums(acc, monomials, m, (p - 1) // 2):
        state = _ReductionState(f, df, p, nw, g, headroom, maps=maps, columns=packed, degree0=degree0, units=units)
        for lvl, row in sums.items():
            state.add(lvl, row)
        state.sweep()
        col, corr = state.published(n_target, loss)
        columns.append(col)
        corrections.append(corr)
    return FrobeniusAction(curve, p, n_target, [list(row) for row in zip(*columns)], corrections)


def _e_digits(curve: HyperellipticCurve, p: int, nw: int) -> list[list[int]]:
    """F-adic digits of E = (F(x^p) - F(x)^p)/p modulo p^nw, read off those of F(x^p)."""
    m1 = p ** (nw + 1)
    f1 = curve.fp_coeffs(m1)
    fxp = [0] * ((len(f1) - 1) * p + 1)
    fxp[::p] = f1
    *low, top = _fadic_digits(fxp, f1, m1)
    if top != [1] or any(c % p for d in low for c in d):
        raise InternalInvariant("F(x^p) != F(x)^p mod p (internal)")
    return [[c // p for c in d] for d in low]


def _binomial_series(e_digits, f, p, nw, k_max) -> dict[int, list[int]]:
    """sum_{k <= k_max} C_k p^(k+1) W^k modulo p^nw, W = E * F^(-p).

    C_k = (-1)^k binom(2k, k) / 4^k; the result is a level representation
    {pole level s: numerator polynomial of degree <= 2g}.  Baby-step
    giant-step (Paterson-Stockmeyer): the powers W^0 .. W^b, b =
    isqrt(k_max) + 1, then Horner in Y = W^b over blocks of b terms,
    R_j = sum_i C_(jb+i) p^(i+1) W^i + p^b Y R_(j+1), so the sum is R_0.
    R_j enters it times p^(jb) and W^i (Y too) at least times p^i, so
    carrying them modulo p^(nw-jb) and p^(nw-i) drops only digits
    multiplied away: the sum is the same residue modulo p^nw.
    """
    b = math.isqrt(k_max) + 1
    powers = [{0: [1]}]
    for i in range(1, b + 1):
        mk = p ** (nw - i)
        prev = {lvl: [c % mk for c in poly] for lvl, poly in powers[-1].items()}
        powers.append(_level_product(prev, [[c % mk for c in d] for d in e_digits], [c % mk for c in f], mk, p))
    y = powers.pop()
    hi = max(y, default=0)  # Y as one digit list: digit k is its row at level hi - k
    y_digits = [y.get(hi - k, []) for k in range(hi - min(y, default=1) + 1)]
    acc: dict[int, list[int]] = {}
    for j in range(k_max // b, -1, -1):
        mj = p ** (nw - j * b)
        if acc:
            mk = mj // p**b
            acc = _level_product(acc, [[c % mk for c in d] for d in y_digits], [c % mk for c in f], mk, hi)
            acc = {lvl: scale(poly, p**b, mj) for lvl, poly in acc.items()}
        for i, w_i in enumerate(powers[: k_max - j * b + 1]):
            k = j * b + i
            scalar = (-1) ** k * math.comb(2 * k, k) * pow(4, -k, mj) * p ** (i + 1) % mj
            for lvl, poly in w_i.items():
                acc[lvl] = add(acc.get(lvl, []), scale(poly, scalar, mj), mj)
        acc = {lvl: poly for lvl, poly in acc.items() if poly}
    return acc


def _fadic_digits(poly: list[int], f: list[int], m: int) -> list[list[int]]:
    """F-adic digits: poly = sum digits[k] * F^k with deg digits[k] < deg F."""
    digits = []
    cur = trim(list(poly))
    while cur:
        cur, rem = divmod_monic(cur, f, m)
        digits.append(rem)
    return digits or [[]]


def _level_sums(rep: dict[int, list[int]], digit_lists, m, shift) -> Iterator[dict[int, list[int]]]:
    """Yield the level representation times each (sum_k digits[k] F^k) * F^(-shift).

    Level l times digit k lands on level l + shift - k, unsplit: up to
    2 deg F - 1 coefficients.  Levels and digits must be reduced into [0, m)
    with degree < deg F.  The levels are packed once for all the digit
    lists, and each product is formed only when it is asked for.
    """
    if not rep:
        return ({} for _ in digit_lists)
    low = min(rep)
    rows = [rep.get(lvl, []) for lvl in range(low, max(rep) + 1)]
    products = mul_rows_each(rows, [digits[::-1] for digits in digit_lists], m)
    return (
        {low + shift - (len(digits) - 1) + n: row for n, row in enumerate(product)}
        for digits, product in zip(digit_lists, products)
    )


def _level_product(rep: dict[int, list[int]], digits, f, m, shift) -> dict[int, list[int]]:
    """_level_sums with each output level split once by F, the quotient carrying one level down."""
    out: dict[int, list[int]] = {}
    carry: list[int] = []
    split = _split_columns(tuple(f), m)
    for lvl, row in sorted(next(_level_sums(rep, [digits], m, shift)).items(), reverse=True):
        hi, lo = _split_by_f(row, split, m)
        poly = add(lo, carry, m)
        if poly:
            out[lvl] = poly
        carry = hi
    if carry:
        out[lvl - 1] = carry
    return out


def _split_columns(f: tuple, m: int) -> tuple[int, list[int]]:
    """The split by F as packed columns (intpoly.pack_columns): column
    k - deg F holds x^k mod F in slots 0 .. deg F - 1 and x^k div F above,
    for k = deg F .. 2 deg F - 2."""
    n = len(f) - 1
    cols = []
    for k in range(n, 2 * n - 1):
        hi, lo = divmod_monic([0] * k + [1], list(f), m)
        cols.append(lo + [0] * (n - len(lo)) + hi)
    return pack_columns(cols, m)


def _split_by_f(row: list[int], split: tuple[int, list[int]], m: int) -> tuple[list[int], list[int]]:
    """divmod_monic(row, F, m) for up to 2 deg F - 1 residues: the top
    coefficients through the packed columns of _split_columns, in one sum."""
    size, cols = split
    n = len(cols) + 1
    slots = apply_columns(size, cols, row[n:], 2 * n - 1)
    lo = [(c + r) % m for c, r in zip_longest(slots[:n], row[:n], fillvalue=0)]
    return trim([c % m for c in slots[n:]]), trim(lo)


def _lift_poly_inverse(a: list[int], inv_p: list[int], f: list[int], p: int, nw: int) -> list[int]:
    """Newton-lift an inverse of a mod (f, p) to an inverse mod (f, p^nw)."""
    s = [c % p for c in inv_p]
    known = 1
    while known < nw:
        known = min(2 * known, nw)
        mk = p**known
        prod = mul(a, s, mk)
        _, prod = divmod_monic(prod, f, mk)
        two_minus = add([2], scale(prod, -1, mk), mk)
        s = mul(s, two_minus, mk)
        _, s = divmod_monic(s, f, mk)
    return s


# ---------------------------------------------------------------------------
# Standalone reduction (exposed for direct tests of the projection property)
# ---------------------------------------------------------------------------


def reduce_odd_differential(
    curve: HyperellipticCurve,
    ring: PadicRing,
    numerator: list[int],
    pole_level: int,
) -> tuple[list[PadicScalar], Correction]:
    """Reduce numerator(x) * y^(-2*pole_level) dx/(2y) to the basis.

    Returns (basis coefficients, correction); applying it to a basis
    differential itself (pole_level 0, degree < 2g) is the identity.  The
    numerator is any integer polynomial, so the sweep runs with headroom
    equal to its loss: the pole levels up to pole_level, and level-0 steps
    below the numerator's degree.
    """
    p = ring.p
    loss = ilog(p, 2 * pole_level + 1) + ilog(p, 2 * len(numerator) + 1)
    nw = ring.prec + 2 * loss + 4
    m = p**nw
    f, df, sf = _reduction_data(curve, p, nw)
    maps = _pole_maps(f, df, sf, m)
    state = _ReductionState(f, df, p, nw, curve.genus, loss, maps=maps, columns=_pole_columns(*maps, m),
                            degree0=len(numerator), units=_UnitParts(p, m))
    for k, digit in enumerate(_fadic_digits([c % m for c in numerator], f, m)):
        state.add(pole_level - k, digit)
    state.sweep()
    return state.published(ring.prec, loss)


# ---------------------------------------------------------------------------
# Zeta byproducts
# ---------------------------------------------------------------------------


def zeta_char_poly(fa: FrobeniusAction) -> list[int]:
    """Integer coefficients (ascending) of P(T) = det(1 - T*M).

    P is the numerator of the zeta function: degree 2g, P(0) = 1, roots of
    absolute value p^(-1/2), and #C(F_p) = p + 1 - a_1 with a_1 = -P'(0).
    """
    g = fa.genus
    n = 2 * g
    p = fa.p
    prec = min(c.prec for row in fa.matrix for c in row)
    ring = PadicRing(p, prec)

    powers = [None, fa.matrix]
    for k in range(2, n + 1):
        powers.append(_mat_mul(powers[-1], fa.matrix))
    s = [None] + [_trace(powers[k]) for k in range(1, n + 1)]
    e = [ring.one()]
    for k in range(1, n + 1):
        acc = ring.zero()
        sign = 1
        for i in range(1, k + 1):
            term = e[k - i] * s[i]
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        e.append(acc.div_int(k))

    coeffs = [1]
    for k in range(1, n + 1):
        ek = e[k] if k % 2 == 0 else -e[k]
        bound = math.comb(n, k) * p ** (k / 2)
        if Fraction(p) ** ek.prec <= 2 * bound + 2:
            raise RoundingAmbiguous(f"coefficient {k} not pinned at precision {ek.prec}")
        if not ek.is_zero and ek.val < 0:
            raise RoundingAmbiguous(f"coefficient {k} is not p-integral at working precision")
        c = ek.lift_centered()
        if abs(c) > bound + 1e-9:
            raise RoundingAmbiguous(f"coefficient {k} = {c} violates its Weil bound {bound:.1f}")
        coeffs.append(c)
    for k in range(g):
        if coeffs[n - k] != p ** (g - k) * coeffs[k]:
            raise RoundingAmbiguous("functional equation fails on rounded coefficients")
    return coeffs


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n)]
        for i in range(n)
    ]


def _trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def curve_count_fp(fa: FrobeniusAction) -> int:
    """#C(F_p) = p + 1 - a_1 where a_1 is the trace of Frobenius."""
    return fa.p + 1 + fa.char_poly[1]


def jacobian_order_fp(fa: FrobeniusAction) -> int:
    """#J(F_p) = P(1)."""
    order = sum(fa.char_poly)
    if order <= 0:
        raise RoundingAmbiguous("P(1) <= 0: zeta coefficients cannot be Weil numbers")
    return order


# ---------------------------------------------------------------------------
# Correction evaluation
# ---------------------------------------------------------------------------


def evaluate_corrections(corrections: list[Correction], point: Point) -> list[PadicScalar]:
    """Values of the corrections at one Z_p point; poles need y a unit.

    One pass: the powers of x and of y are taken once, modulo the largest
    p^(prec + e) a correction has.  A correction sum_w q_w(x) y^w is then
    one sum of products of its packed rows (Correction.packed_rows) with
    the powers y^w, whose slots hold the coefficients of sum_w q_w y^w in
    x, and one dot product of those with the powers of x.  Over the lifts
    of x and y, known to absolute precisions Nx and Ny, a coefficient c
    moves a value by O(p^(v(c) + min(Nx, Ny))), so a correction is known
    to min(prec, val + min(Nx, Ny)).
    """
    if point.at_infinity:
        raise PoleAtPoint("corrections are not defined at infinity")
    x, y = point.x, point.y
    if x.val < 0 or y.val < 0:
        raise PoleAtPoint("corrections are evaluated at Z_p points only")
    p = x.p
    if any(c.ws and c.ws[0] < 0 for c in corrections) and (y.is_zero or y.val > 0):
        raise PoleAtPoint("negative y-powers evaluated at a point with v(y) > 0")
    precs = [min(c.prec, c.val + min(x.prec, y.prec)) for c in corrections]
    used = [c for c in corrections if c.ws]
    if not used:
        return [PadicScalar.zero(p, q) for q in precs]
    big = p ** max(c.prec + c.e for c in used)
    xl, yl = x.lift(), y.lift()
    xpows = [1]
    for _ in range(max(len(row) for c in used for row in c.rows) - 1):
        xpows.append(xpows[-1] * xl % big)
    low = min(c.ws[0] for c in used)
    ypows = {low: pow(yl, low, big)}
    y2 = yl * yl % big
    for w in range(low + 2, max(c.ws[-1] for c in used) + 1, 2):
        ypows[w] = ypows[w - 2] * y2 % big
    out = []
    for c, q in zip(corrections, precs):
        if not c.ws:
            out.append(PadicScalar.zero(p, q))
            continue
        size, packed = c.packed_rows
        top = p ** (c.prec + c.e)
        yw = [ypows[w] % top for w in c.ws] if top < big else [ypows[w] for w in c.ws]
        coeffs = apply_columns(size, packed, yw, max(map(len, c.rows)))
        m = p ** (q + c.e)
        acc = sum(map(operator.mul, coeffs, xpows)) % m
        out.append(PadicScalar.from_int(acc, p, q + c.e).shift(-c.e))
    return out


def evaluate_correction(correction: Correction, point: Point) -> PadicScalar:
    """Value of one correction at a Z_p point (see evaluate_corrections)."""
    return evaluate_corrections([correction], point)[0]
