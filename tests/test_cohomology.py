"""Tests for the Frobenius action, its corrections, and zeta byproducts."""

import json
import math
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
from ckpoints.intpoly import add, divmod_monic, mul, scale, trim
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


# -- the lazy-exponent sweep against the eager one ----------------------------


class _EagerReductionState:
    """The sweep before per-entry exponents: every bump rescans all entries."""

    def __init__(self, fints, dints, sfints, p, nw, genus):
        self.f = fints
        self.df = dints
        self.sf = sfints  # (F')^{-1} mod F
        self.p = p
        self.nw = nw
        self.m = p**nw
        self.g = genus
        self.e = 0  # running power-of-p denominator of everything stored
        self.levels: dict[int, list[int]] = {}
        self.level0: list[int] = []
        self.corrections: dict[int, list[int]] = {}

    def add(self, level: int, poly: list[int]):
        if level <= 0:
            extra = poly
            for _ in range(-level):
                extra = mul(extra, self.f, self.m)
            self.level0 = add(self.level0, extra, self.m)
        else:
            cur = self.levels.get(level)
            self.levels[level] = add(cur, poly, self.m) if cur else trim(list(poly))

    def _bump(self, v: int):
        """Divide the global scale by p^v: multiply all stored data by p^v."""
        if v == 0:
            return
        c = self.p**v
        m = self.m
        for lvl, poly in self.levels.items():
            self.levels[lvl] = scale(poly, c, m)
        self.level0 = scale(self.level0, c, m)
        for w, poly in self.corrections.items():
            self.corrections[w] = scale(poly, c, m)
        self.e += v

    def sweep(self):
        """Reduce all pole levels and the level-0 degree to the basis."""
        p, m = self.p, self.m
        two_g = 2 * self.g
        while self.levels:
            s = max(self.levels)
            b_in = self.levels.pop(s)
            if not b_in:
                continue
            d = 1 - 2 * s
            v = int_valuation(d, p)
            b = mul(b_in, self.sf, m)
            _, b = divmod_monic(b, self.f, m)
            num = add(b_in, scale(mul(b, self.df, m), -1, m), m)
            a, rem = divmod_monic(num, self.f, m)
            if rem:
                raise PrecisionExhausted("pole reduction lost exactness (internal)")
            db = trim([i * b[i] % m for i in range(1, len(b))])
            self._bump(v)
            u_inv = pow(d // p**v, -1, m)
            # after the bump, dividing by d means multiplying the pieces
            # built from the pre-bump data by the inverse of its unit part
            carry = add(scale(a, p**v, m), scale(db, -2 * u_inv % m, m), m)
            corr = scale(b, u_inv, m)
            if corr:
                cur = self.corrections.get(1 - 2 * s)
                self.corrections[1 - 2 * s] = add(cur, corr, m) if cur else corr
            self.add(s - 1, carry)
        # level 0: lower the polynomial degree below 2g via d(x^(j-2g) y)
        while len(self.level0) - 1 >= two_g:
            j = len(self.level0) - 1
            c = self.level0[j]
            if c == 0:
                self.level0.pop()
                continue
            d = 2 * j - two_g + 1
            v = int_valuation(d, p)
            self._bump(v)
            u_inv = pow(d // p**v, -1, m)
            piece = c * u_inv % m
            dj = [0] * (j + 1)
            if j > two_g:
                for k in range(len(self.f)):
                    dj[j - two_g - 1 + k] = (dj[j - two_g - 1 + k] + 2 * (j - two_g) * self.f[k]) % m
            for k in range(1, len(self.f)):
                dj[j - two_g + k - 1] = (dj[j - two_g + k - 1] + k * self.f[k]) % m
            self.level0 = add(self.level0, scale(dj, -piece % m, m), m)
            if len(self.level0) - 1 >= j and self.level0 and self.level0[-1] != 0:
                raise PrecisionExhausted("degree reduction failed to cancel (internal)")
            cur = self.corrections.get(1)
            mono = [0] * (j - two_g) + [piece]
            self.corrections[1] = add(cur, mono, m) if cur else mono

    def published(self, n_target: int):
        """Basis coefficients and corrections as PadicScalars at n_target."""
        achieved = self.nw - self.e
        if achieved < n_target:
            raise PrecisionExhausted(f"achieved {achieved} < requested {n_target}")

        def scalar(value: int) -> PadicScalar:
            return PadicScalar.from_int(value % self.m, self.p, self.nw).shift(-self.e).cap(n_target)

        col = [scalar(self.level0[j] if j < len(self.level0) else 0) for j in range(2 * self.g)]
        corr = {}
        for w, poly in sorted(self.corrections.items()):
            if poly:
                corr[w] = [scalar(c) for c in poly]
        return col, corr


def _published_triples(col, corr):
    """(val, unit, prec) of a column and its correction, flat or {w: coefficient list}."""
    polys = corr if isinstance(corr, dict) else correction_polys(corr)

    def triple(c):
        return (c.val, c.unit, c.prec)

    return [triple(c) for c in col], [(w, [triple(c) for c in poly]) for w, poly in sorted(polys.items())]


class _TwinSweep:
    """One sweep input fed to the lazy and the eager state; publishing compares them."""

    published_columns = 0

    def __init__(self, *args):
        self.lazy = _LAZY_STATE(*args)
        self.eager = _EagerReductionState(*args)

    def add(self, level, poly):
        self.lazy.add(level, list(poly))
        self.eager.add(level, list(poly))

    def sweep(self):
        self.lazy.sweep()
        self.eager.sweep()

    def published(self, n_target):
        assert self.lazy.e == self.eager.e
        got = self.lazy.published(n_target)
        assert _published_triples(*got) == _published_triples(*self.eager.published(n_target))
        _TwinSweep.published_columns += 1
        return got


_LAZY_STATE = cohomology._ReductionState


@pytest.fixture
def twin_sweep(monkeypatch):
    monkeypatch.setattr(cohomology, "_ReductionState", _TwinSweep)
    _TwinSweep.published_columns = 0
    return _TwinSweep


@pytest.mark.parametrize("p", [7, 11, 13])
def test_lazy_sweep_matches_eager_bumps(twin_sweep, ex1, ex2, ex3_monic, p):
    for curve in (ex1, ex2, ex3_monic[0]):
        frobenius_action(curve, p, 2 * p + 4)
    assert twin_sweep.published_columns == 3 * 6


@pytest.mark.parametrize("p, levels", [(7, (4, 11, 25)), (11, (6, 17, 61)), (13, (7, 20, 85))])
def test_lazy_sweep_matches_eager_bumps_at_divisible_pole_levels(twin_sweep, ex1, p, levels):
    # p divides 2s - 1 at every start level s, and at every p-th level below
    rng = random.Random(p)
    ring = PadicRing(p, 12)
    for s in levels:
        assert (2 * s - 1) % p == 0
        numer = [rng.randrange(1, p) + p * rng.randrange(p**3) for _ in range(rng.randrange(1, 9))]
        assert reduce_odd_differential(ex1, ring, numer, s)[1].ws
    assert twin_sweep.published_columns == len(levels)


@pytest.mark.parametrize("p, s", [(7, 4), (7, 9), (11, 6), (13, 7)])
def test_wide_numerator_reduces_like_the_eager_sweep(twin_sweep, ex1, p, s):
    # 14 to 21 coefficients: wider than the pole maps, so the state splits
    # them by F first; the eager sweep divides them whole
    rng = random.Random(40 + p + s)
    ring = PadicRing(p, 12)
    for width in (14, 17, 21):
        numer = [rng.randrange(p**6) for _ in range(width - 1)] + [rng.randrange(1, p)]
        assert reduce_odd_differential(ex1, ring, numer, s)[1].ws
    assert twin_sweep.published_columns == 3


def _split_pole_step(f, df, sf, b_in, s, p, m):
    """The step before the pole maps: the row split by F, the quotient carried
    one level down, then two products and two divisions by F."""
    quo, lo = divmod_monic(b_in, f, m)
    d = 1 - 2 * s
    v = int_valuation(d, p)
    _, b = divmod_monic(mul(lo, sf, m), f, m)
    a, rem = divmod_monic(add(lo, scale(mul(b, df, m), -1, m), m), f, m)
    assert rem == []
    db = trim([i * b[i] % m for i in range(1, len(b))])
    u_inv = pow(d // p**v, -1, m)
    carry = add(scale(add(a, quo, m), p**v, m), scale(db, -2 * u_inv % m, m), m)
    return v, b, carry, scale(b, u_inv, m)


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
    maps = cohomology._pole_maps(tuple(f), tuple(df), tuple(sf), m)
    v, b, carry, corr = cohomology._pole_step(*maps, b_in, s, p, m)
    assert (v, trim(b), carry, corr) == _split_pole_step(f, df, sf, b_in, s, p, m)


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
