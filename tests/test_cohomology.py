"""Tests for the Frobenius action, its corrections, and zeta byproducts."""

import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import EX1_COEFFS, correction_polys
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckpoints import cohomology
from ckpoints.cohomology import (
    _binomial_series,
    _fadic_digits,
    _level_product,
    Correction,
    curve_count_fp,
    evaluate_correction,
    evaluate_corrections,
    frobenius_action,
    jacobian_order_fp,
    reduce_odd_differential,
    zeta_char_poly,
)
from ckpoints.curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    lift_point,
    local_chart,
)
from ckpoints.errors import BadReduction, InternalInvariant, PoleAtPoint, PrecisionExhausted
from ckpoints.intpoly import add, divmod_monic, evaluate, mul, scale, trim
from ckpoints.padic import PadicPowerSeries, PadicRing, PadicScalar, int_valuation

CURVE_X7P1 = HyperellipticCurve([1, 0, 0, 0, 0, 0, 0, 1])


# -- small GF(p^k) used only as a counting oracle -----------------------------


class GFExt:
    """Arithmetic in F_p[x]/(modulus) for brute-force point counting."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = modulus
        self.k = len(modulus) - 1

    def mul(self, a, b):
        p = self.p
        out = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        for i in range(len(out) - 1, self.k - 1, -1):
            c = out[i]
            if c:
                for t in range(self.k + 1):
                    out[i - self.k + t] = (out[i - self.k + t] - c * self.modulus[t]) % p
        return tuple(out[: self.k])

    def pow(self, a, n):
        result = tuple([1] + [0] * (self.k - 1))
        base = tuple(a)
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def elements(self):
        p, k = self.p, self.k
        idx = [0] * k
        while True:
            yield tuple(idx)
            i = 0
            while i < k:
                idx[i] += 1
                if idx[i] < p:
                    break
                idx[i] = 0
                i += 1
            if i == k:
                return


def find_irreducible(p, k, rng):
    """Random monic irreducible of degree k over F_p (by root/factor test)."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        if any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0 for x in range(p)):
            continue
        if k <= 3:  # no root implies irreducible for degree 2 and 3
            return coeffs


def brute_count_ext(curve, p, k, rng):
    """#C(F_{p^k}) by exhaustive x-loop with a quadratic character test."""
    if k == 1:
        return len(enumerate_fp_points(curve, p))
    gf = GFExt(p, find_irreducible(p, k, rng))
    q = p**k
    fbar = curve.fp_coeffs(p)
    zero = tuple([0] * k)
    count = 1
    for x in gf.elements():
        acc = zero
        for c in reversed(fbar):
            acc = gf.mul(acc, x)
            acc = tuple((acc[i] + (c if i == 0 else 0)) % p for i in range(k))
        if acc == zero:
            count += 1
        else:
            chi = gf.pow(acc, (q - 1) // 2)
            if chi == tuple([1] + [0] * (k - 1)):
                count += 2
    return count


def power_sums_from_zeta(coeffs, n=3):
    """s_k = sum of Frobenius eigenvalue k-th powers, from P(T) coefficients."""
    e = [1, -coeffs[1], coeffs[2], -coeffs[3], coeffs[4], -coeffs[5], coeffs[6]]
    s = [None] * (n + 1)
    s[1] = e[1]
    if n >= 2:
        s[2] = e[1] * s[1] - 2 * e[2]
    if n >= 3:
        s[3] = e[1] * s[2] - e[2] * s[1] + 3 * e[3]
    return s


# -- reduction is a projection fixing the basis -------------------------------


def test_reduce_basis_differential_is_identity():
    ring = PadicRing(11, 12)
    g = CURVE_X7P1.genus
    for i in range(2 * g):
        numer = [0] * i + [1]
        col, corr = reduce_odd_differential(CURVE_X7P1, ring, numer, 0)
        for j in range(2 * g):
            expect = ring.one() if j == i else ring.zero()
            assert col[j].congruent(expect, required=10) is True
        assert not corr.ws


def test_reduce_exactness_identity_randomized():
    # reducing A y^(-2s) dx/2y and then re-expanding basis + d(correction)
    # along a chart must reproduce the original differential
    ring = PadicRing(11, 14)
    rng = random.Random(3)
    curve = CURVE_X7P1
    order = 12
    pt = None
    for q in enumerate_fp_points(curve, 11):
        if not q.at_infinity and q.y != 0:
            pt = lift_point(q, curve, ring)
            break
    chart = local_chart(pt, curve, ring, order)
    pulls = chart.omega_pullbacks()
    xs, ys = chart.x_series, chart.y_series
    for _ in range(3):
        s = rng.randrange(1, 4)
        numer = [rng.randrange(-20, 20) for _ in range(rng.randrange(1, 9))]
        col, corr = reduce_odd_differential(curve, ring, numer, s)
        numer_poly = [ring(c) for c in numer or [0]]
        lhs = (
            xs.compose_poly(numer_poly)
            * (ys * ys).inverse() ** s
            * (ys + ys).inverse()
            * xs.derivative()
        )
        rhs = None
        for j, (shift, series) in enumerate(pulls):
            assert shift == 0
            term = series.scale(col[j])
            rhs = term if rhs is None else rhs + term
        f_series = None
        for w, poly in correction_polys(corr).items():
            term = xs.compose_poly(poly) * ys**w
            f_series = term if f_series is None else f_series + term
        if f_series is not None:
            rhs = rhs + f_series.derivative()
        diff = lhs - rhs
        for c in diff.coeffs:
            assert c.is_zero or c.val >= 10


# -- frobenius matrix ----------------------------------------------------------


def test_example1_trace_matches_point_count(ex1):
    fa = frobenius_action(ex1, 7, 18)
    assert curve_count_fp(fa) == 10  # 10 listed F_7 points => a_1 = -2
    coeffs = zeta_char_poly(fa)
    assert -coeffs[1] == -2


def test_zeta_x7p1_matches_extension_counts():
    rng = random.Random(11)
    fa = frobenius_action(CURVE_X7P1, 11, 8)
    coeffs = zeta_char_poly(fa)
    s = power_sums_from_zeta(coeffs, 3)
    for k in (1, 2, 3):
        assert brute_count_ext(CURVE_X7P1, 11, k, rng) == 11**k + 1 - s[k]


def test_zeta_random_curve_count():
    rng = random.Random(23)
    found = 0
    while found < 3:
        coeffs = [rng.randrange(-10, 11) for _ in range(7)] + [1]
        try:
            curve = HyperellipticCurve(coeffs)
        except Exception:
            continue
        if not curve.has_good_reduction(11):
            continue
        fa = frobenius_action(curve, 11, 8)
        assert curve_count_fp(fa) == len(enumerate_fp_points(curve, 11))
        found += 1


def test_zeta_normalization_and_functional_equation(ex1):
    fa = frobenius_action(ex1, 7, 18)
    coeffs = zeta_char_poly(fa)
    p, g = 7, 3
    assert coeffs[0] == 1
    for k in range(g):
        assert coeffs[2 * g - k] == p ** (g - k) * coeffs[k]


def test_weil_roots_on_unit_circle(ex1):
    # complex roots of P(T) all have absolute value p^(-1/2)
    fa = frobenius_action(ex1, 7, 18)
    coeffs = zeta_char_poly(fa)
    roots = _durand_kerner(coeffs)
    for r in roots:
        assert abs(abs(r) - 7 ** (-0.5)) < 1e-6 * 7 ** (-0.5)


def _durand_kerner(coeffs):
    n = len(coeffs) - 1
    lead = coeffs[-1]
    poly = [c / lead for c in coeffs]
    roots = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    for _ in range(200):
        new = []
        for i, r in enumerate(roots):
            num = 0j
            for c in reversed(poly):
                num = num * r + c
            den = 1.0 + 0j
            for j, rj in enumerate(roots):
                if j != i:
                    den *= r - rj
            new.append(r - num / den)
        shift = max(abs(a - b) for a, b in zip(new, roots))
        roots = new
        if shift < 1e-14:
            break
    return roots


def test_jacobian_order_example2_divisible_by_18(ex2):
    fa = frobenius_action(ex2, 7, 18)
    order = jacobian_order_fp(fa)
    assert order % 18 == 0


def test_matrix_minus_identity_invertible(ex1, ex2):
    # eigenvalues are Weil numbers, never 1: det(M - I) = +-P(1) != 0
    for curve in (ex1, ex2):
        fa = frobenius_action(curve, 7, 10)
        assert jacobian_order_fp(fa) != 0


def test_bad_reduction_rejected(ex1):
    with pytest.raises(BadReduction):
        frobenius_action(ex1, 2, 6)


@pytest.mark.parametrize("p", [9, 15, 21])
def test_composite_prime_rejected(ex1, p):
    with pytest.raises(BadReduction, match="odd prime"):
        frobenius_action(ex1, p, 6)


def test_frobenius_tail_cutoff_is_stable(ex1):
    # raising the working precision must not change published digits
    fa_lo = frobenius_action(ex1, 7, 8)
    fa_hi = frobenius_action(ex1, 7, 12)
    for j in range(6):
        for i in range(6):
            assert fa_lo.matrix[j][i].congruent(fa_hi.matrix[j][i], required=8) is True


# -- the level convolution ----------------------------------------------------

GOLDEN_FROBENIUS = Path(__file__).parent / "golden" / "frobenius_ex3.json"


def _level_product_oracle(rep, digits, f, m, shift):
    """Per-level x per-digit schoolbook loop: one product and split per pair."""
    out = {}
    for lvl, poly in rep.items():
        for k, dig in enumerate(digits):
            hi, lo = divmod_monic(mul(poly, dig, m), f, m)
            for target, piece in ((lvl + shift - k, lo), (lvl + shift - k - 1, hi)):
                out[target] = add(out.get(target, []), piece, m)
    return {lvl: poly for lvl, poly in out.items() if poly}


def _random_rep(rng, m, low, count, full=False):
    # full levels carry m - 1 in every coefficient below deg F = 7
    rep = {}
    for lvl in range(low, low + count):
        if count > 1 and rng.random() < 0.2:
            continue  # gaps between levels
        rep[lvl] = [m - 1] * 7 if full else [rng.randrange(m) for _ in range(rng.randrange(1, 8))]
    return rep


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_level_product_matches_per_digit_loop(p):
    rng = random.Random(70 + p)
    m = p ** (2 * p + 4)
    f = [rng.randrange(m) for _ in range(7)] + [1]
    for trial in range(12):
        full = trial % 4 == 3
        digits = [[m - 1] * 7 if full else [rng.randrange(m) for _ in range(rng.randrange(0, 8))]
                  for _ in range(rng.randrange(1, p + 2))]
        rep = _random_rep(rng, m, rng.randrange(-3, 3), rng.randrange(1, 5 * p), full)
        for shift in (p, (p - 1) // 2):
            assert _level_product(rep, digits, f, m, shift) == _level_product_oracle(rep, digits, f, m, shift)
    # the digits the final accumulation uses: F-adic digits of x^(p*i + p - 1)
    rep = _random_rep(rng, m, -2, 3 * p)
    for i in range(6):
        digits = _fadic_digits([0] * (p * i + p - 1) + [1], f, m)
        half = (p - 1) // 2
        assert _level_product(rep, digits, f, m, half) == _level_product_oracle(rep, digits, f, m, half)


def test_level_product_edge_cases():
    p = 7
    m = p**18
    f = [3, 0, 5, 1, 0, 2, 6, 1]
    single = {4: [1, 2, 3]}
    digits = [[5, 6], [], [m - 1, 0, 1]]
    for rep, digs in (({}, digits), (single, []), (single, [[]]), (single, digits),
                      ({0: [m - 1] * 7}, digits), ({-2: [1], 0: [4, 4]}, digits)):
        assert _level_product(rep, digs, f, m, p) == _level_product_oracle(rep, digs, f, m, p)
    assert _level_product({}, digits, f, m, p) == {}
    assert _level_product(single, [], f, m, p) == {}


def _e_digits_by_powering(curve, p, nw):
    """E = (F(x^p) - F(x)^p)/p with F(x)^p by binary powering mod p^(nw+1),
    then its F-adic digits modulo p^nw."""
    m, m1 = p**nw, p ** (nw + 1)
    f1 = curve.fp_coeffs(m1)
    fxp = [0] * (7 * p + 1)
    fxp[::p] = f1
    power, base, k = [1], f1, p
    while k:
        if k & 1:
            power = mul(power, base, m1)
        base, k = mul(base, base, m1), k >> 1
    diff = add(fxp, scale(power, -1, m1), m1)
    assert all(c % p == 0 for c in diff)
    return _fadic_digits(trim([c // p % m for c in diff]), [c % m for c in f1], m)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_e_digits_match_the_powering_oracle(ex1, ex2, ex3_monic, p):
    for curve in (ex1, ex2, ex3_monic[0]):
        for nw in (12, 4 * p + 30):
            assert cohomology._e_digits(curve, p, nw) == _e_digits_by_powering(curve, p, nw)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_binomial_series_matches_full_modulus_loop(p):
    # the series carries W^k modulo p^(nw-k-1) only; the sum must still be
    # the residue modulo p^nw that the full-modulus per-digit loop gives
    rng = random.Random(90 + p)
    k_max, nw = 7, 13
    m = p**nw
    f = [rng.randrange(m) for _ in range(7)] + [1]
    e_digits = [[rng.randrange(m) for _ in range(7)] for _ in range(p + 1)]
    acc, t_rep = {}, {0: [1]}
    for k in range(k_max + 1):
        scalar = (-1) ** k * math.comb(2 * k, k) * pow(4, -k, m) * p ** (k + 1) % m
        for lvl, poly in t_rep.items():
            acc[lvl] = add(acc.get(lvl, []), [c * scalar % m for c in poly], m)
        t_rep = _level_product_oracle(t_rep, e_digits, f, m, p)
    got = _binomial_series(e_digits, f, p, nw, k_max)
    assert {lvl: poly for lvl, poly in got.items() if poly} == {lvl: poly for lvl, poly in acc.items() if poly}


def _binomial_series_stepwise(e_digits, f, p, nw, k_max):
    """The series one power of W at a time: k_max products, W^(k+1) carried
    modulo p^(nw-k-2)."""
    m = p**nw
    acc: dict[int, list[int]] = {}
    t_rep: dict[int, list[int]] = {0: [1]}
    for k in range(k_max + 1):
        ck = (-1) ** k * math.comb(2 * k, k)
        scalar = ck * pow(pow(4, -1, m), k, m) % m * pow(p, k + 1, m) % m
        for lvl, poly in t_rep.items():
            scaled = scale(poly, scalar, m)
            if scaled:
                cur = acc.get(lvl)
                acc[lvl] = add(cur, scaled, m) if cur else scaled
        if k == k_max:
            break
        # W^(k+1) enters the sum only times p^(k+2), so carrying it modulo
        # p^(nw-k-2) drops digits that are multiplied away: acc is the same
        # residue modulo p^nw
        mk = p ** (nw - k - 2)
        t_rep = {lvl: [c % mk for c in poly] for lvl, poly in t_rep.items()}
        t_rep = _level_product(t_rep, [[c % mk for c in d] for d in e_digits], [c % mk for c in f], mk, p)
    return acc


# -- the running-exponent sweep, kept as the oracle of the fixed-point one ----
#
# Every value is stored with the power of p it is divided by, and a division
# by u p^v raises that exponent instead of dividing: no division can be
# inexact, at the price of a working precision that grows with
# sum_s v_p(2s - 1).


def _running_pole_step(s_rows, q_rows, b_in: list[int], s: int, p: int, m: int):
    """(v, b, carry, correction) of b_in at pole level s, 1 - 2s = u p^v: b = S b_in,
    and at the exponent raised by v, carry p^v Q b_in - 2 b'/u and correction b/u."""
    v = int_valuation(1 - 2 * s, p)
    u_inv = pow((1 - 2 * s) // p**v, -1, m)
    b = [sum(map(operator.mul, row, b_in)) % m for row in s_rows]
    a = [sum(map(operator.mul, row, b_in)) for row in q_rows]
    carry = [(p**v * a_i - 2 * u_inv * i * b[i]) % m for i, a_i in enumerate(a, 1)]
    return v, b, trim(carry), scale(b, u_inv, m)


class _RunningExponentState:
    """Mutable state for one reduction: levels, corrections, running scale.

    levels (level 0 included) and corrections hold (exponent, polynomial)
    entries, the polynomial standing for its value times p^exponent.
    """

    def __init__(self, fints, dints, sfints, p, nw, genus):
        self.f = fints
        self.df = dints
        self.sf = sfints  # (F')^{-1} mod F
        self.p = p
        self.nw = nw
        self.m = p**nw
        self.g = genus
        self.e = 0  # running power-of-p denominator
        self.levels: dict[int, tuple[int, list[int]]] = {}
        self.corrections: dict[int, tuple[int, list[int]]] = {}

    def _current(self, entry) -> list[int]:
        """An entry's polynomial rescaled to the running exponent."""
        e, poly = entry
        return poly if e == self.e else scale(poly, self.p ** (self.e - e), self.m)

    def _accumulate(self, table, key: int, poly: list[int]):
        cur = table.get(key)
        table[key] = (self.e, add(self._current(cur), poly, self.m) if cur else trim(list(poly)))

    def add(self, level: int, poly: list[int]):
        """Add poly F^(-level); at a pole level poly has at most 2 deg F - 1 coefficients."""
        for _ in range(-level):
            poly = mul(poly, self.f, self.m)
        self._accumulate(self.levels, max(level, 0), poly)

    def sweep(self):
        """Reduce all pole levels and the level-0 degree to the basis."""
        p, m = self.p, self.m
        two_g = 2 * self.g
        maps = cohomology._pole_maps(tuple(self.f), tuple(self.df), tuple(self.sf), m)
        while (s := max(self.levels, default=0)) > 0:
            b_in = self._current(self.levels.pop(s))
            if b_in:
                v, _, carry, corr = _running_pole_step(*maps, b_in, s, p, m)
                self.e += v
                if corr:
                    self._accumulate(self.corrections, 1 - 2 * s, corr)
                self.add(s - 1, carry)
        # level 0: lower the polynomial degree below 2g via d(x^(j-2g) y)
        level0 = self._current(self.levels.pop(0, (self.e, [])))
        while len(level0) - 1 >= two_g:
            j = len(level0) - 1
            c = level0[j]
            if c == 0:
                level0.pop()
                continue
            d = 2 * j - two_g + 1
            v = int_valuation(d, p)
            if v:
                level0 = scale(level0, p**v, m)
                self.e += v
            u_inv = pow(d // p**v, -1, m)
            piece = c * u_inv % m
            i = j - two_g  # d(x^i y) = [2i x^(i-1) F + x^i F'] dx/(2y)
            dj = add([0] * (i - 1) + scale(self.f, 2 * i, m), [0] * i + self.df, m)
            level0 = add(level0, scale(dj, -piece % m, m), m)
            if len(level0) - 1 >= j and level0 and level0[-1] != 0:
                raise InternalInvariant("degree reduction failed to cancel (internal)")
            self._accumulate(self.corrections, 1, [0] * (j - two_g) + [piece])
        self.levels[0] = (self.e, level0)

    def published(self, n_target: int) -> tuple[list[PadicScalar], Correction]:
        """Basis coefficients as PadicScalars and the flat correction, at n_target."""
        achieved = self.nw - self.e
        if achieved < n_target:
            raise PrecisionExhausted(f"achieved {achieved} < requested {n_target}")
        level0 = (self._current(self.levels[0]) + [0] * (2 * self.g))[: 2 * self.g]
        col = [PadicScalar.from_int(c, self.p, self.nw).shift(-self.e).cap(n_target) for c in level0]
        top = self.p ** (n_target + self.e)
        ws, rows = [], []
        for w, entry in sorted(self.corrections.items()):
            poly = self._current(entry)
            if poly:
                ws.append(w)
                rows.append([c % top for c in poly])
        return col, Correction(self.p, ws, rows, self.e, n_target)


def _running_exponent_action(curve, p, n_target):
    """frobenius_action with the running-exponent sweep at the working
    precision it needs: N + sum_s v_p(2s - 1) + the chain loss + 4."""
    k_max = n_target + 4
    for _ in range(3):
        chain_loss = sum(cohomology._sweep_losses(p, k_max)) + 1
        k_max = n_target + chain_loss + 2
    s_max = p * k_max + (p - 1) // 2
    nw = n_target + sum(int_valuation(2 * s - 1, p) for s in range(1, s_max + 1)) + chain_loss + 4

    class State(_RunningExponentState):
        def __init__(self, f, df, sf, p, nw, genus, headroom, *, degree0, units):
            # the running exponent needs no degree bound and finds its own units
            super().__init__(f, df, sf, p, nw, genus)

        def published(self, n_target, loss):
            return super().published(n_target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "_ReductionState", State)
        return cohomology._frobenius_attempt(curve, p, n_target, k_max, nw, chain_loss, 0)


def _running_exponent_reduction(curve, ring, numerator, pole_level):
    """reduce_odd_differential with the running-exponent sweep (working precision prec + pole_level + 8)."""
    p = ring.p
    nw = ring.prec + pole_level + 8
    m = p**nw
    f, df, sf = cohomology._reduction_data(curve, p, nw)
    state = _RunningExponentState(f, df, sf, p, nw, curve.genus)
    for k, digit in enumerate(_fadic_digits([c % m for c in numerator], f, m)):
        state.add(pole_level - k, digit)
    state.sweep()
    return state.published(ring.prec)


def _nonempty(rep):
    return {lvl: poly for lvl, poly in rep.items() if poly}


@pytest.mark.parametrize("p", [7, 11, 13])
def test_binomial_series_matches_stepwise_loop(p):
    # with b = isqrt(k_max) + 1: k_max < b (0, 1), k_max = J b so that the top
    # block holds one term (2, 12), a partial top block (7) and full blocks (the rest)
    rng = random.Random(110 + p)
    for k_max in (0, 1, 2, 3, 5, 7, 8, 12, 15, 24, 35):
        nw = k_max + rng.choice((2, 5, 12))
        m = p**nw
        f = [rng.randrange(m) for _ in range(7)] + [1]
        e_digits = [trim([rng.randrange(m) for _ in range(rng.randrange(0, 8))]) for _ in range(p)]
        got = _binomial_series(e_digits, f, p, nw, k_max)
        assert got == _nonempty(_binomial_series_stepwise(e_digits, f, p, nw, k_max))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_binomial_series_degenerate_e(p):
    rng = random.Random(130 + p)
    for k_max in (0, 3, 8, 24):
        nw = k_max + 9
        m = p**nw
        f = [rng.randrange(m) for _ in range(7)] + [1]
        # E = 0 (trimmed or not): only the k = 0 term p survives
        for zero in ([[] for _ in range(p)], [[0] * 7 for _ in range(p)]):
            assert _binomial_series(zero, f, p, nw, k_max) == {0: [p]}
        # a single nonzero digit; divisible by p^(nw // 2), W^1 survives the
        # carried modulus and W^2 and every higher power vanish
        for unit in (1, p ** (nw // 2)):
            e_digits = [[] for _ in range(p)]
            e_digits[rng.randrange(p)] = [rng.randrange(1, m // unit) * unit for _ in range(7)]
            got = _binomial_series(e_digits, f, p, nw, k_max)
            assert got == _nonempty(_binomial_series_stepwise(e_digits, f, p, nw, k_max))


class _SeriesArgs(Exception):
    pass


@pytest.mark.parametrize("p", [7, 11])
def test_binomial_series_matches_stepwise_loop_on_the_fixtures(ex1, ex2, ex3_monic, p, monkeypatch):
    # the E digits, nw and k_max that frobenius_action itself passes
    def capture(*args):
        raise _SeriesArgs(args)

    monkeypatch.setattr(cohomology, "_binomial_series", capture)
    for curve in (ex1, ex2, ex3_monic[0]):
        with pytest.raises(_SeriesArgs) as caught:
            frobenius_action(curve, p, 2 * p + 4)
        args = caught.value.args[0]
        assert _binomial_series(*args) == _nonempty(_binomial_series_stepwise(*args))


def _action_triples(fa):
    def triple(c):
        return [c.val, c.unit, c.prec]

    return {
        "p": fa.p,
        "precision": fa.precision,
        "matrix": [[triple(c) for c in row] for row in fa.matrix],
        "corrections": [
            [[w, [triple(c) for c in poly]] for w, poly in correction_polys(corr).items()]
            for corr in fa.corrections
        ],
    }


def _assert_actions_match(curve, golden_path):
    golden = json.loads(golden_path.read_text())
    assert golden["curve"] == [str(c) for c in curve.coeffs]
    for expected in golden["actions"]:
        p = expected["p"]
        assert expected["precision"] == 2 * p + 4
        assert _action_triples(frobenius_action(curve, p, 2 * p + 4)) == expected


def test_frobenius_action_matches_golden(ex3_monic):
    """Every matrix entry and correction coefficient, as (val, unit, prec)."""
    _assert_actions_match(ex3_monic[0], GOLDEN_FROBENIUS)


def test_frobenius_action_matches_golden_p13(ex3_monic):
    # the series block size is isqrt(k_max) + 1: 6 at p = 7 and 11, 7 at p = 13
    _assert_actions_match(ex3_monic[0], GOLDEN_FROBENIUS.with_name("frobenius_ex3_p13.json"))


# -- the fixed-point sweep against the running-exponent one --------------------


def _claimed(col, corr):
    """(val, unit, prec) of every claimed digit of a column and its correction,
    the correction's coefficients that vanish to its precision trimmed."""
    polys = {}
    for w, poly in sorted(correction_polys(corr).items()):
        while poly and poly[-1].is_zero:
            poly.pop()
        if poly:
            polys[w] = poly

    def triple(c):
        return (c.val, c.unit, c.prec)

    return [triple(c) for c in col], [(w, [triple(c) for c in poly]) for w, poly in polys.items()]


def _assert_same_action(fa, oracle):
    assert [[(c.val, c.unit, c.prec) for c in row] for row in fa.matrix] == [
        [(c.val, c.unit, c.prec) for c in row] for row in oracle.matrix
    ]
    for corr, expected in zip(fa.corrections, oracle.corrections, strict=True):
        assert _claimed([], corr) == _claimed([], expected)
        # published rows are trimmed already: no zero coefficient at the end, no empty row
        assert all(row and row[-1] for row in corr.rows)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_lazy_sweep_matches_eager_bumps(ex1, ex2, ex3_monic, p):
    # every claimed digit of the fixed-point sweep against the running-exponent oracle
    for curve in (ex1, ex2, ex3_monic[0]):
        _assert_same_action(frobenius_action(curve, p, 2 * p + 4), _running_exponent_action(curve, p, 2 * p + 4))


def _criterion_4_curves(count, primes=(7, 11, 13)):
    """The first random curves of the zeta-consistency acceptance test."""
    rng = random.Random(2024)
    curves = []
    while len(curves) < count:
        coeffs = [rng.randrange(-15, 16) for _ in range(7)] + [1]
        try:
            curve = HyperellipticCurve(coeffs)
        except Exception:
            continue
        if all(curve.has_good_reduction(p) for p in primes):
            curves.append(curve)
    return curves


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_fixed_point_sweep_matches_running_exponent_on_random_curves(p):
    # p = 3 and 5 are at most 2g: their matrices have denominators, and the
    # sweep runs with headroom
    for curve in _criterion_4_curves(3, (p,)):
        for n in (6, 11):
            _assert_same_action(frobenius_action(curve, p, n), _running_exponent_action(curve, p, n))
    if p < 7:
        assert min(c.val for row in frobenius_action(curve, p, 6).matrix for c in row) < 0


@pytest.mark.parametrize("p, levels", [(7, (4, 11, 25)), (11, (6, 17, 61)), (13, (7, 20, 85))])
def test_lazy_sweep_matches_eager_bumps_at_divisible_pole_levels(ex1, p, levels):
    # p divides 2s - 1 at every start level s, p^2 at the last, and p at
    # every p-th level below; unit numerators, so the results have
    # denominators and the sweep runs on headroom
    rng = random.Random(p)
    ring = PadicRing(p, 12)
    for s in levels:
        assert (2 * s - 1) % p == 0
        numer = [rng.randrange(1, p) + p * rng.randrange(p**3) for _ in range(rng.randrange(1, 9))]
        got = reduce_odd_differential(ex1, ring, numer, s)
        assert got[1].ws
        assert _claimed(*got) == _claimed(*_running_exponent_reduction(ex1, ring, numer, s))
    assert (2 * levels[-1] - 1) % p**2 == 0


@pytest.mark.parametrize("p, s", [(7, 4), (7, 9), (11, 6), (13, 7)])
def test_wide_numerator_reduces_like_the_eager_sweep(ex1, p, s):
    # 14 to 21 coefficients: wider than the pole maps, so the state splits
    # them by F first; compared with the running-exponent oracle
    rng = random.Random(40 + p + s)
    ring = PadicRing(p, 12)
    for width in (14, 17, 21):
        numer = [rng.randrange(p**6) for _ in range(width - 1)] + [rng.randrange(1, p)]
        got = reduce_odd_differential(ex1, ring, numer, s)
        assert got[1].ws
        assert _claimed(*got) == _claimed(*_running_exponent_reduction(ex1, ring, numer, s))


def _split_pole_step(f, df, sf, b_in, s, p, m):
    """The step before the pole maps: the row split by F, the quotient carried
    one level down, then two products and two divisions by F."""
    quo, lo = divmod_monic(b_in, f, m)
    d = 1 - 2 * s
    v = int_valuation(d, p)
    _, b = divmod_monic(mul(lo, sf, m), f, m)
    a, rem = divmod_monic(add(lo, scale(mul(b, df, m), -1, m), m), f, m)
    assert rem == []
    assert all(c % p**v == 0 for c in b)
    corr = [c // p**v * pow(d // p**v, -1, m) % m for c in b]
    db = trim([i * corr[i] % m for i in range(1, len(corr))])
    carry = add(add(a, quo, m), scale(db, -2, m), m)
    return carry, trim(corr)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 11, 13]), nw=st.integers(8, 60))
def test_pole_step_matches_split_products(data, p, nw):
    m = p**nw
    f, df, sf = cohomology._reduction_data(HyperellipticCurve(EX1_COEFFS), p, nw)
    # every level, or one where p (or p^2) divides 2s - 1
    s = data.draw(st.one_of(
        st.integers(1, 12 * p),
        st.builds(lambda j: p * j + (p + 1) // 2, st.integers(0, 12)),
        st.builds(lambda j: p * p * j + (p * p + 1) // 2, st.integers(0, 2)),
    ))
    b_in = data.draw(st.lists(st.one_of(st.integers(0, m - 1), st.just(0), st.just(m - 1)), min_size=1, max_size=13))
    # the sweep only divides numerators whose S-image p^v(1 - 2s) divides
    b_in = [c * p ** int_valuation(1 - 2 * s, p) % m for c in b_in]
    maps = cohomology._pole_maps(tuple(f), tuple(df), tuple(sf), m)
    assert cohomology._pole_step(*maps, b_in, s, p, m) == _split_pole_step(f, df, sf, b_in, s, p, m)


# -- the packed maps at their slot edges ---------------------------------------
#
# A slot of the packed columns holds an exact sum of products below m^2; the
# entries m - 1 and 0 put the sums at and far below its edge.


def _edge_entries(m):
    return st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 11, 13, 17, 23]), nw=st.integers(1, 120))
def test_packed_pole_step_at_slot_edges(data, p, nw):
    m = p**nw
    f, df, sf = cohomology._reduction_data(HyperellipticCurve(EX1_COEFFS), p, nw)
    s = data.draw(st.one_of(st.integers(1, 12 * p), st.builds(lambda j: p * j + (p + 1) // 2, st.integers(0, 12))))
    b_in = data.draw(st.lists(_edge_entries(m), min_size=1, max_size=13))
    b_in = [c * p ** int_valuation(1 - 2 * s, p) % m for c in b_in]
    maps = cohomology._pole_maps(tuple(f), tuple(df), tuple(sf), m)
    want = _split_pole_step(f, df, sf, b_in, s, p, m)
    assert cohomology._pole_step(*maps, b_in, s, p, m) == want
    assert cohomology._pole_step(*maps, b_in, s, p, m, cohomology._pole_columns(*maps, m)) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 11, 13, 17, 23]), nw=st.integers(1, 120))
def test_packed_split_matches_divmod_monic(data, p, nw):
    m = p**nw
    f = data.draw(st.lists(_edge_entries(m), min_size=7, max_size=7)) + [1]
    split = cohomology._split_columns(tuple(f), m)
    row = data.draw(st.lists(_edge_entries(m), min_size=0, max_size=13))
    assert cohomology._split_by_f(row, split, m) == divmod_monic(row, f, m)


def test_level0_degree_above_the_bound_raises_internal_invariant(ex1):
    # the level-0 loss is sized for a degree bound; a polynomial above it
    # would be divided by more factors p than the published digits allow
    p, nw = 7, 24
    f, df, sf = cohomology._reduction_data(ex1, p, nw)
    bound = cohomology._level0_degree(p)
    level0_loss = cohomology._sweep_losses(p, 1)[1]
    at_bound = cohomology._ReductionState(f, df, sf, p, nw, 3, level0_loss, degree0=bound)
    at_bound.add(0, [0] * bound + [1])
    at_bound.sweep()
    assert len(at_bound.levels[0]) <= 6
    above = cohomology._ReductionState(f, df, sf, p, nw, 3, level0_loss, degree0=bound)
    above.add(0, [0] * (bound + 1) + [1])
    with pytest.raises(InternalInvariant, match="exceeds the bound"):
        above.sweep()
    # without a bound the state takes the Frobenius sweep's
    default = cohomology._ReductionState(f, df, sf, p, nw, 3, level0_loss)
    default.add(0, [0] * (bound + 1) + [1])
    with pytest.raises(InternalInvariant, match=f"exceeds the bound {bound}"):
        default.sweep()
    # a state sized for a smaller bound refuses what the Frobenius one takes
    small = cohomology._ReductionState(f, df, sf, p, nw, 3, level0_loss, degree0=20)
    small.add(0, [0] * 21 + [1])
    with pytest.raises(InternalInvariant, match="exceeds the bound 20"):
        small.sweep()


@pytest.mark.parametrize("p", [7, 11])
def test_inexact_division_raises_internal_invariant(ex1, p, monkeypatch):
    nw = 20
    m = p**nw
    f, df, sf = cohomology._reduction_data(ex1, p, nw)
    maps = cohomology._pole_maps(tuple(f), tuple(df), tuple(sf), m)
    # p divides 1 - 2s at s = (p + 1)/2, and S maps the constant 1 to a unit
    with pytest.raises(InternalInvariant, match="does not divide"):
        cohomology._pole_step(*maps, [1], (p + 1) // 2, p, m)
    if p == 7:  # x^6 at level 0 is divided by 2*6 - 6 + 1 = 7
        state = cohomology._ReductionState(f, df, sf, p, nw, 3)
        state.add(0, [0] * 6 + [1])
        with pytest.raises(InternalInvariant, match="does not divide"):
            state.sweep()
    # a unit slipped into the series at level 1 reaches pole level (p + 1)/2
    # undivided: the sweep refuses it instead of publishing wrong digits
    real_series = cohomology._binomial_series

    def series_plus_unit(*args):
        acc = real_series(*args)
        acc[1] = add(acc.get(1, []), [1], p ** args[3])
        return acc

    monkeypatch.setattr(cohomology, "_binomial_series", series_plus_unit)
    with pytest.raises(InternalInvariant, match="does not divide"):
        frobenius_action(ex1, p, 2 * p + 4)


def _scaled_product(a, b, m):
    """(A, t) times (B, u): the product of two matrices scaled by p^t and p^u."""
    (ra, ta), (rb, tb) = a, b
    return [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*rb)] for row in ra], ta + tb


def _denominator(scaled, p, m):
    rows, t = scaled
    content = math.gcd(m, *(c for row in rows for c in row))
    return t - int_valuation(content, p) if content != m else 0


def _pole_map_denominators(curve, p, s_max, starts):
    """Largest denominators (as powers of p) of M_1 ... M_s over pole levels s <= s_max,
    and of the correction maps C_t M_(t+1) ... M_s below each start level s.

    M_s: level-s numerator -> carry, C_s: numerator -> correction at level s,
    both exact over Z_p up to the division by 1 - 2s; every matrix is kept
    as (integer rows, t) standing for rows / p^t, modulo p^K for K above any
    exponent the products reach.  Below its start level a chain carries
    numerators of n - 1 coefficients, so the maps are cut to that width.
    """
    n = 7
    big = sum(int_valuation(2 * s - 1, p) for s in range(1, s_max + 1)) + 20
    m = p**big
    f, df, sf = cohomology._reduction_data(curve, p, big)
    s_rows, q_rows = cohomology._pole_maps(tuple(f), tuple(df), tuple(sf), m)
    deriv = [[i * (j == i) for j in range(n)] for i in range(1, n)]
    corr_maps, carry_maps = {}, {}
    for s in range(1, s_max + 1):
        v = int_valuation(1 - 2 * s, p)
        u_inv = pow((1 - 2 * s) // p**v, -1, m)
        corr_maps[s] = [[c * u_inv % m for c in row] for row in s_rows], v  # C_s = S/(1 - 2s)
        dc = _scaled_product((deriv, 0), corr_maps[s], m)[0]  # M_s = Q - 2 D C_s
        carry_maps[s] = [[(p**v * q - 2 * d) % m for q, d in zip(q_row, d_row)] for q_row, d_row in zip(q_rows, dc)], v

    def cut(scaled, width):
        rows, t = scaled
        return [row[:width] for row in rows], t

    prefix, worst_prefix = None, 0
    for s in range(1, s_max + 1):
        prefix = carry_maps[s] if prefix is None else _scaled_product(cut(prefix, n - 1), carry_maps[s], m)
        worst_prefix = max(worst_prefix, _denominator(prefix, p, m))
    worst_corr = 0
    for start in starts:
        chain = ([[int(i == j) for j in range(2 * n - 1)] for i in range(2 * n - 1)], 0)
        for t in range(start, 0, -1):
            width = len(chain[0])
            worst_corr = max(worst_corr, _denominator(_scaled_product(cut(corr_maps[t], width), chain, m), p, m))
            chain = _scaled_product(cut(carry_maps[t], width), chain, m)
    return worst_prefix, worst_corr


def _level0_denominator(curve, p, degree):
    """Largest denominator (power of p) of the level-0 degree steps on x^j, j <= degree."""
    nw = degree + 40
    f, df, sf = cohomology._reduction_data(curve, p, nw)
    worst = 0
    for j in range(degree + 1):
        state = _RunningExponentState(f, df, sf, p, nw, curve.genus)
        state.add(0, [0] * j + [1])
        state.sweep()
        col, corr = state.published(10)
        worst = max(worst, -min([c.val for c in col] + [corr.val]))
    return worst


@pytest.mark.parametrize("p", [7, 11, 13])
def test_composite_maps_stay_within_the_assumed_loss(ex1, ex2, ex3_monic, p, monkeypatch):
    """The denominators Kedlaya's estimate bounds, computed instead of assumed.

    The loss frobenius_action publishes by is the pole loss plus the level-0
    loss plus 1; each part must cover what the sweep actually divides by.
    """
    seen = {"top": 0, "degree0": 0, "plans": []}
    real_attempt, real_state = cohomology._frobenius_attempt, cohomology._ReductionState

    def attempt(curve, p, n_target, k_max, nw, loss, headroom):
        seen["plans"].append((k_max, loss, headroom))
        return real_attempt(curve, p, n_target, k_max, nw, loss, headroom)

    class Recording(real_state):
        def add(self, level, poly):
            seen["top"] = max(seen["top"], level)
            seen["degree0"] = max(seen["degree0"], len(poly) - 1 + 7 * max(-level, 0))
            super().add(level, poly)

    monkeypatch.setattr(cohomology, "_frobenius_attempt", attempt)
    monkeypatch.setattr(cohomology, "_ReductionState", Recording)
    for curve in (ex1, ex2, ex3_monic[0], *_criterion_4_curves(2)):
        frobenius_action(curve, p, 2 * p + 4)
        (k_max, loss, headroom), = seen["plans"]
        seen["plans"].clear()
        pole_loss, level0_loss = cohomology._sweep_losses(p, k_max)
        assert (loss, headroom) == (pole_loss + level0_loss + 1, 0)
        s_max = p * k_max + (p - 1) // 2
        assert seen["top"] <= s_max and seen["degree0"] <= 7 * p + 50
        # the start levels of the correction chains: the top one, and the
        # highest with the most factors p in 2s - 1
        deepest = max(range(1, s_max + 1), key=lambda s: (int_valuation(2 * s - 1, p), s))
        prefix, corr = _pole_map_denominators(curve, p, s_max, (s_max, deepest))
        assert prefix <= pole_loss and corr <= pole_loss
        assert max(prefix, corr) == pole_loss  # the bound is attained: it is not slack
        assert _level0_denominator(curve, p, 7 * p + 50) <= level0_loss


def test_wrong_inverse_raises_internal_invariant_after_one_attempt(monkeypatch, ex1):
    real_data, real_attempt = cohomology._reduction_data, cohomology._frobenius_attempt
    attempts = []

    def wrong_inverse(curve, p, nw):
        f, df, sf = real_data(curve, p, nw)
        return f, df, add(sf, [1], p**nw)  # (F')^(-1) + 1 is no inverse mod (F, p)

    def counted_attempt(*args):
        attempts.append(args)
        return real_attempt(*args)

    monkeypatch.setattr(cohomology, "_reduction_data", wrong_inverse)
    monkeypatch.setattr(cohomology, "_frobenius_attempt", counted_attempt)
    with pytest.raises(InternalInvariant, match="exactness"):
        frobenius_action(ex1, 7, 8)
    assert len(attempts) == 1


# -- corrections ---------------------------------------------------------------


def test_evaluate_correction_zero_and_poly(ex1):
    ring = PadicRing(7, 12)
    assert evaluate_correction(Correction(7, [], [], 0, 12), Point(ring(3), ring(1))).is_zero
    poly_only = Correction(7, [1], [[0, 1]], 0, 12)  # f = x * y
    pt = Point(ring(32), ring.zero())
    val = evaluate_correction(poly_only, pt)
    assert val.is_zero  # x*y with y = 0
    pole = Correction(7, [-1], [[1]], 0, 12)
    with pytest.raises(PoleAtPoint):
        evaluate_correction(pole, pt)
    for at in (INFINITY, Point(ring(3), ring(7)), Point(ring(3), ring(49 * 5))):
        with pytest.raises(PoleAtPoint):
            evaluate_correction(pole, at)
    with pytest.raises(PoleAtPoint):
        evaluate_correction(poly_only, INFINITY)
    half, expect = evaluate_correction(pole, Point(ring(3), ring(2))), ring(Fraction(1, 2))
    assert (half.val, half.unit, half.prec) == (expect.val, expect.unit, expect.prec)


def _evaluate_correction_horner(correction, point):
    """Oracle: the evaluation evaluate_corrections replaced, one correction at
    a time, by an integer Horner in x inside each row and in y^2 across the
    rows."""
    x, y = point.x, point.y
    c = correction
    prec = min(c.prec, c.val + min(x.prec, y.prec))
    if not c.ws:
        return PadicScalar.zero(x.p, prec)
    m = x.p ** (prec + c.e)
    xl, yl = x.lift(), y.lift()
    y2 = yl * yl % m
    acc, above = 0, c.ws[-1]
    for w, row in zip(reversed(c.ws), reversed(c.rows)):
        acc = (acc * pow(y2, (above - w) // 2, m) + evaluate(row, xl, m)) % m
        above = w
    acc = acc * pow(yl, c.ws[0], m) % m
    return PadicScalar.from_int(acc, x.p, prec + c.e).shift(-c.e)


def _triples(values):
    return [(v.val, v.unit, v.prec) for v in values]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_evaluate_corrections_equals_the_row_horner_at_teichmueller_points(ex1, ex2, ex3_monic, p):
    # all corrections at once against the one-at-a-time Horner: on the
    # fixtures (p >= 7) and on criterion 4's random curves, whose actions at
    # p = 3 and 5 carry headroom e > 0
    from ckpoints.coleman import teichmuller_point

    curves = _criterion_4_curves(2, (p,)) + ([ex1, ex2, ex3_monic[0]] if p >= 7 else [])
    checked = 0
    for curve in curves:
        fa = frobenius_action(curve, p, 2 * p + 4)
        ring = PadicRing(p, fa.precision)
        for pbar in enumerate_fp_points(curve, p):
            if pbar.at_infinity or pbar.y == 0:
                continue
            t = teichmuller_point(lift_point(pbar, curve, ring), curve, ring)
            want = [_evaluate_correction_horner(c, t) for c in fa.corrections]
            assert _triples(evaluate_corrections(fa.corrections, t)) == _triples(want)
            checked += 1
    assert checked > 0
    if p < 7:
        assert any(c.e > 0 for c in fa.corrections)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 7, 11]), count=st.integers(1, 4))
def test_evaluate_corrections_equals_the_row_horner_on_drawn_rows(data, p, count):
    # several corrections with their own e, prec, y-exponents and row
    # lengths (some long), at one point
    corrections = []
    for _ in range(count):
        e, prec = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 10))
        top = p ** (prec + e)
        ws = sorted(data.draw(st.sets(st.sampled_from(range(-9, 10, 2)), max_size=5)))
        rows = [[data.draw(st.integers(0, top - 1)) for _ in range(data.draw(st.integers(0, 12)))] for _ in ws]
        corrections.append(Correction(p, ws, rows, e, prec))
    x = PadicScalar.from_int(data.draw(st.integers(0, p**12)), p, data.draw(st.integers(1, 14)))
    y = PadicScalar.from_int(data.draw(st.integers(1, p - 1)) + p * data.draw(st.integers(0, p**10)), p, data.draw(st.integers(1, 14)))
    want = [_evaluate_correction_horner(c, Point(x, y)) for c in corrections]
    assert _triples(evaluate_corrections(corrections, Point(x, y))) == _triples(want)


def _fraction_val(q: Fraction, p: int) -> float:
    if q == 0:
        return math.inf
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 11]), e=st.integers(0, 5), prec=st.integers(1, 12))
def test_flat_evaluation_claims_only_known_digits(data, p, e, prec):
    """Every claimed digit agrees with exact evaluation at two random lifts.

    The lifts are of x, of y and of every coefficient residue.
    """
    top = p ** (prec + e)
    ws = sorted(data.draw(st.sets(st.sampled_from(range(-9, 10, 2)), max_size=4)))
    rows = [
        [p ** data.draw(st.integers(0, prec + e)) * data.draw(st.integers(0, top)) % top
         for _ in range(data.draw(st.integers(0, 5)))]
        for _ in ws
    ]
    corr = Correction(p, ws, rows, e, prec)
    nonzero = [int_valuation(r, p) - e for row in rows for r in row if r]
    assert corr.val == min(nonzero, default=prec)

    def scalar(max_val):
        n = data.draw(st.integers(0, 14))
        v = data.draw(st.integers(0, max_val))
        unit = data.draw(st.integers(1, p**4)) * p + data.draw(st.integers(1, p - 1))
        return PadicScalar.from_int(p**v * unit, p, max(n, v))

    x = scalar(4)
    y = scalar(0 if ws and ws[0] < 0 else 4)
    assume(not (ws and ws[0] < 0 and y.is_zero))
    got = evaluate_correction(corr, Point(x, y))
    assert got.prec == min(prec, corr.val + min(x.prec, y.prec))
    value = Fraction(got.unit) * Fraction(p) ** got.val
    for _ in range(2):
        def lift(s):
            return s.lift() + p**s.prec * data.draw(st.integers(-(p**3), p**3))
        xl, yl = lift(x), lift(y)
        exact = sum(
            Fraction(r + top * data.draw(st.integers(-p, p)), p**e) * Fraction(xl) ** k * Fraction(yl) ** w
            for w, row in zip(ws, rows)
            for k, r in enumerate(row)
        )
        assert _fraction_val(exact - value, p) >= got.prec


def test_frobenius_exactness_in_chart(ex1):
    """phi* omega_i - sum_j M_ji omega_j - d f_i expands to 0 in a chart."""
    p = 7
    ring = PadicRing(p, 14)
    order = 10
    fa = frobenius_action(ex1, p, 14)
    pt = lift_point(Point(0, 4), ex1, ring)
    chart = local_chart(pt, ex1, ring, order)
    xs, ys = chart.x_series, chart.y_series
    pulls = chart.omega_pullbacks()

    # E = (F(x^p) - F(x)^p)/p computed exactly over Q as an independent check
    fq = [Fraction(c) for c in ex1.coeffs]
    fxp = [Fraction(0)] * (7 * p + 1)
    for j, c in enumerate(fq):
        fxp[j * p] = c
    fpow = [Fraction(1)]
    for _ in range(p):
        new = [Fraction(0)] * (len(fpow) + 7)
        for i, a in enumerate(fpow):
            if a:
                for j, b in enumerate(fq):
                    new[i + j] += a * b
        fpow = new
    e_exact = [(a - b) / p for a, b in zip(fxp, fpow)]
    assert all(c.denominator == 1 for c in e_exact)
    e_poly = [ring(c) for c in e_exact]

    y2p_inv = (ys * ys).inverse() ** p
    arg_series = PadicPowerSeries.constant(ring.one(), order) + (
        xs.compose_poly(e_poly) * y2p_inv
    ).scale(ring(p))
    phi_y = ys**p * arg_series.sqrt(ring.one())
    inv_2phiy = (phi_y + phi_y).inverse()
    xp = xs**p

    for i in range(6):
        lhs = xp**i * xp.derivative() * inv_2phiy
        rhs = None
        for j in range(6):
            term = pulls[j][1].scale(fa.matrix[j][i])
            rhs = term if rhs is None else rhs + term
        f_series = None
        for w, poly in correction_polys(fa.corrections[i]).items():
            term = xs.compose_poly(poly) * (ys**w if w >= 0 else ys.inverse() ** (-w))
            f_series = term if f_series is None else f_series + term
        if f_series is not None:
            rhs = rhs + f_series.derivative()
        diff = lhs - rhs
        for c in diff.coeffs:
            assert c.is_zero or c.val >= 10
