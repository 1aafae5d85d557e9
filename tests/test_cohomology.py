"""Tests for the Frobenius action, its corrections, and zeta byproducts."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ckpoints.cohomology import (
    _binomial_series,
    _fadic_digits,
    _level_product,
    curve_count_fp,
    evaluate_correction,
    frobenius_action,
    jacobian_order_fp,
    reduce_odd_differential,
    zeta_char_poly,
)
from ckpoints.curve import (
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    lift_point,
    local_chart,
)
from ckpoints.errors import BadReduction, PoleAtPoint
from ckpoints.intpoly import add, divmod_monic, mul
from ckpoints.padic import PadicPowerSeries, PadicRing

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
        assert not corr


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
        numer_poly = ring.poly(numer) if numer else ring.poly([0])
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
        for w, poly in corr.items():
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


def _action_triples(fa):
    def triple(c):
        return [c.val, c.unit, c.prec]

    return {
        "p": fa.p,
        "precision": fa.precision,
        "matrix": [[triple(c) for c in row] for row in fa.matrix],
        "corrections": [
            [[w, [triple(c) for c in poly.coeffs]] for w, poly in sorted(corr.items())]
            for corr in fa.corrections
        ],
    }


def test_frobenius_action_matches_golden(ex3_monic):
    """Every matrix entry and correction coefficient, as (val, unit, prec)."""
    curve, _ = ex3_monic
    golden = json.loads(GOLDEN_FROBENIUS.read_text())
    assert golden["curve"] == [str(c) for c in curve.coeffs]
    for expected in golden["actions"]:
        p = expected["p"]
        assert expected["precision"] == 2 * p + 4
        assert _action_triples(frobenius_action(curve, p, 2 * p + 4)) == expected


# -- corrections ---------------------------------------------------------------


def test_evaluate_correction_zero_and_poly(ex1):
    ring = PadicRing(7, 12)
    assert evaluate_correction({}, Point(ring(3), ring(1))).is_zero
    poly_only = {1: ring.poly([0, 1])}  # f = x * y
    pt = Point(ring(32), ring.zero())
    val = evaluate_correction(poly_only, pt)
    assert val.is_zero  # x*y with y = 0
    pole = {-1: ring.poly([1])}
    with pytest.raises(PoleAtPoint):
        evaluate_correction(pole, pt)


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
    e_poly = ring.poly(e_exact)

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
        for w, poly in fa.corrections[i].items():
            term = xs.compose_poly(poly) * (ys**w if w >= 0 else ys.inverse() ** (-w))
            f_series = term if f_series is None else f_series + term
        if f_series is not None:
            rhs = rhs + f_series.derivative()
        diff = lhs - rhs
        for c in diff.coeffs:
            assert c.is_zero or c.val >= 10
