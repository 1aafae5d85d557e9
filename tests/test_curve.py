"""Tests for curve models, reduction, charts, and rational point search."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckpoints.chabauty import precisions
from ckpoints.curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    fp_disc_representatives,
    global_height,
    good_reduction_prime,
    involution,
    is_prime,
    lift_point,
    local_chart,
    parse_curve_line,
    reduce_point,
    scale_to_monic,
    search_rational_points,
)
from ckpoints.curve import _solve_weierstrass_x
from ckpoints.errors import NotMonic, ParseError, SingularModel
from ckpoints.intpoly import xgcd
from ckpoints.padic import PadicPowerSeries, PadicRing, hensel_simple_root

from conftest import EX1_COEFFS, EX3_RAW_COEFFS
from scalar_series import ScalarSeries


def test_validate_simple_ok():
    c = HyperellipticCurve([1, 0, 0, 0, 0, 0, 0, 1])  # y^2 = x^7 + 1
    assert c.genus == 3


def test_validate_singular():
    with pytest.raises(SingularModel):
        HyperellipticCurve([0, 0, 0, 0, 0, 0, 0, 1])  # y^2 = x^7


def test_validate_not_monic():
    with pytest.raises(NotMonic):
        HyperellipticCurve([1, 0, 0, 0, 0, 0, 0, 2])


def test_validate_example1(ex1):
    assert ex1.genus == 3
    assert ex1.contains(Point(Fraction(32), Fraction(0)))


def test_scale_to_monic_identity():
    curve, pmap = scale_to_monic([1, 0, 0, 0, 0, 0, 0, 1])
    assert pmap.lead == 1
    pt = Point(Fraction(2), Fraction(3))
    assert pmap.forward(pt) == pt


def test_scale_to_monic_example3():
    curve, pmap = scale_to_monic(EX3_RAW_COEFFS)
    # derived by substituting (x, y) -> (8x, 512y)
    assert list(curve.coeffs) == [262144, 131072, 24576, 2048, -448, -128, 0, 1]
    raw_points = [
        INFINITY,
        Point(Fraction(0), Fraction(1)),
        Point(Fraction(0), Fraction(-1)),
        Point(Fraction(1), Fraction(0)),
        Point(Fraction(-1), Fraction(0)),
        Point(Fraction(-1, 2), Fraction(0)),
    ]
    for pt in raw_points:
        img = pmap.forward(pt)
        assert curve.contains(img)
        assert pmap.backward(img) == pt
    assert pmap.forward(Point(Fraction(0), Fraction(1))) == Point(Fraction(0), Fraction(512))


def test_scale_to_monic_small_case():
    curve, pmap = scale_to_monic([4, 0, 0, 0, 0, 0, 0, 4])
    assert list(curve.coeffs) == [4 * 4**6, 0, 0, 0, 0, 0, 0, 1]
    assert pmap.forward(Point(Fraction(-1), Fraction(0))) == Point(Fraction(-4), Fraction(0))


def test_scale_to_monic_random_roundtrip():
    rng = random.Random(42)
    for _ in range(50):
        coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(7)]
        lead = Fraction(rng.choice([2, 3, 5, -2, 8]))
        try:
            curve, pmap = scale_to_monic(coeffs + [lead])
        except SingularModel:
            continue
        x = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        fx = sum((coeffs + [lead])[j] * x**j for j in range(8))
        # use y with y^2 = fx only when fx is a square; otherwise just map x
        pt = Point(x, Fraction(1))
        img = pmap.forward(pt)
        assert pmap.backward(img) == pt
        # the defining equations correspond: v^2 - F_monic(u) = a^(2g) (y^2 - F(x))
        u = pmap.lead * x
        assert curve.f_eval(u) == pmap.lead**6 * fx


def test_good_reduction_prime_examples(ex1, ex2):
    assert good_reduction_prime(ex1) == 7
    assert good_reduction_prime(ex2) == 7


def test_good_reduction_prime_skips_divisors():
    # minimal prime >= 7 not dividing the discriminant
    c = HyperellipticCurve([1, 0, 0, 0, 0, 0, 0, 1])  # disc divisible by 7?
    p = good_reduction_prime(c, 7)
    assert c.has_good_reduction(p)
    # defining property: every prime between 7 and p has bad reduction
    for q in range(7, p):
        if q in (7, 11, 13, 17, 19, 23):
            assert not c.has_good_reduction(q) or q == p


def test_enumerate_fp_points_example1(ex1):
    pts = enumerate_fp_points(ex1, 7)
    expected = {
        (None, None),
        (0, 3),
        (0, 4),
        (1, 2),
        (1, 5),
        (2, 1),
        (2, 6),
        (4, 0),
        (6, 2),
        (6, 5),
    }
    got = {(None, None) if q.at_infinity else (q.x, q.y) for q in pts}
    assert got == expected
    assert len(pts) == 10


def test_enumerate_fp_points_example3(ex3_monic):
    curve, pmap = ex3_monic
    pts = enumerate_fp_points(curve, 7)
    got = {(None, None) if q.at_infinity else (q.x, q.y) for q in pts}
    # the monic rescale is the identity mod 7 (8 = 512 = 1 mod 7)
    assert got == {(None, None), (0, 1), (0, 6), (1, 0), (6, 0), (3, 0)}
    assert len(pts) == 6


def test_enumerate_fp_points_brute_force():
    curve = HyperellipticCurve([1, 0, 0, 0, 0, 0, 0, 1])
    pts = enumerate_fp_points(curve, 11)
    count = 1
    for x in range(11):
        for y in range(11):
            if (y * y - (x**7 + 1)) % 11 == 0:
                count += 1
    assert len(pts) == count
    assert len(pts) <= 2 * 11 + 2


def test_fp_disc_representatives(ex1):
    reps = fp_disc_representatives(ex1, 7)
    # 10 points = infinity + (4,0) + 4 mirrored pairs
    assert len(reps) == 6
    paired = [r for r, flag in reps if flag]
    assert len(paired) == 4


def test_lift_point_weierstrass(ex1):
    ring = PadicRing(7, 18)
    lifted = lift_point(Point(4, 0), ex1, ring)
    assert lifted.y.is_zero
    assert lifted.x.lift_centered() == 32


def test_lift_point_nonweierstrass(ex1):
    ring = PadicRing(7, 18)
    lifted = lift_point(Point(0, 4), ex1, ring)
    assert lifted.x.lift() == 0
    f0 = ring(Fraction(-103079215104))
    assert (lifted.y * lifted.y).congruent(f0) is True
    assert lifted.y.lift() % 7 == 4


def test_lift_reduce_roundtrip(ex1):
    ring = PadicRing(7, 18)
    for pbar in enumerate_fp_points(ex1, 7):
        lifted = lift_point(pbar, ex1, ring)
        assert reduce_point(lifted, 7) == pbar


def test_local_chart_defining_identity(ex1):
    ring = PadicRing(7, 18)
    order = 15
    pt = lift_point(Point(0, 4), ex1, ring)
    chart = local_chart(pt, ex1, ring, order)
    f = [ring(c) for c in ex1.coeffs]
    lhs = chart.y_series * chart.y_series
    rhs = chart.x_series.compose_poly(f)
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert a.congruent(b) is True


def test_local_chart_weierstrass_ramification(ex1):
    ring = PadicRing(7, 18)
    pt = lift_point(Point(4, 0), ex1, ring)
    chart = local_chart(pt, ex1, ring, 15)
    # x(t) - 32 has t-adic valuation 2
    assert (chart.x_series.coeffs[0] - pt.x).is_zero
    assert chart.x_series.coeffs[1].is_zero
    assert not chart.x_series.coeffs[2].is_zero
    # y(t)^2 = F(x(t))
    f = [ring(c) for c in ex1.coeffs]
    lhs = chart.y_series * chart.y_series
    rhs = chart.x_series.compose_poly(f)
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert a.congruent(b) is True


def _weierstrass_x_full_order(f, x0, ring, order):
    """Oracle: x(t) with F(x(t)) = t^2 by Newton steps in t, each at full
    order, on the per-coefficient series (the iteration before it ran at
    doubling order on X(s) = x(t), s = t^2)."""
    z = ring.zero()
    t2 = ScalarSeries([z, z, ring.one()] + [z] * (order - 2), order, ring.p)
    x = ScalarSeries.constant(x0, order)
    df = [f[i].mul_int(i) for i in range(1, len(f))]
    known = 1
    while known <= order:
        x = x - (x.compose_poly(f) - t2) * x.compose_poly(df).inverse()
        known *= 2
    return x


@pytest.mark.parametrize("p", [7, 11, 13])
def test_weierstrass_newton_at_doubling_order_matches_full_order(p):
    # every Weierstrass disc of the three fixtures: the same coefficients,
    # nonzero ones with the same (val, unit, prec); a zero stays a zero
    n, order = precisions(p)
    ring = PadicRing(p, n)
    discs = 0
    for line in FIXTURE.read_text().splitlines():
        if line.startswith("#"):
            continue
        curve, _ = scale_to_monic(parse_curve_line(line))
        f = [ring(c) for c in curve.coeffs]
        for pbar in enumerate_fp_points(curve, p):
            if pbar.at_infinity or pbar.y != 0:
                continue
            x0 = hensel_simple_root(curve.fp_coeffs(p**n), pbar.x, p, n)
            got = _solve_weierstrass_x(f, x0, ring, order).coeffs
            want = _weierstrass_x_full_order(f, x0, ring, order).coeffs
            assert len(got) == len(want) == order + 1
            for a, b in zip(got, want):
                assert a.congruent(b) is True
                if b.is_zero:
                    assert a.is_zero
                else:
                    assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)
            discs += 1
    assert discs >= 3, discs


def test_local_chart_infinity_pullback_orders(ex1):
    ring = PadicRing(7, 18)
    chart = local_chart(INFINITY, ex1, ring, 15)
    pulls = chart.omega_pullbacks()
    # omega_{g-1} pulls back with t-adic valuation 0, omega_0 with 2g-2
    g = ex1.genus
    shift, series = pulls[g - 1]
    assert shift == 0 and not series.coeffs[0].is_zero
    shift, series = pulls[0]
    assert shift == 2 * g - 2


def test_chart_param_and_point_roundtrip(ex1):
    ring = PadicRing(7, 18)
    pt = lift_point(Point(6, 2), ex1, ring)
    chart = local_chart(pt, ex1, ring, 15)
    t = ring(7 * 12)
    q = chart.point_at(t)
    assert ex1.contains(q)
    t_back = chart.param_of(q)
    assert t_back.congruent(t) is True


@pytest.mark.parametrize("p", [7, 11])
def test_contains_point_with_negative_x_valuation(ex3_monic, p):
    # a point of the infinity disc has v(x) = -2, so F(x) is not p-integral
    curve, _ = ex3_monic
    n, order = precisions(p)
    ring = PadicRing(p, n)
    q = local_chart(INFINITY, curve, ring, order).point_at(ring(p))
    assert q.x.val < 0
    assert curve.contains(q)
    assert not curve.contains(Point(q.x, q.y + ring(p**3)))


GOLDEN_CHARTS = Path(__file__).parent / "golden" / "charts.json"
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "examples.txt"


def fixture_charts(p):
    """Every F_p point's chart on the three fixtures, as [val, unit, prec] rows.

    `PYTHONPATH=src python tests/test_curve.py > tests/golden/charts.json`
    writes the golden.
    """
    n, order = precisions(p)
    ring = PadicRing(p, n)

    def triples(series):
        return [[c.val, c.unit, c.prec] for c in series.coeffs]

    out = []
    for line in FIXTURE.read_text().splitlines():
        if line.startswith("#"):
            continue
        curve, _ = scale_to_monic(parse_curve_line(line))
        for pbar in enumerate_fp_points(curve, p):
            chart = local_chart(lift_point(pbar, curve, ring), curve, ring, order)
            out.append({
                "curve": line, "p": p, "point": repr(pbar), "kind": chart.kind,
                "x": triples(chart.x_series), "y": triples(chart.y_series),
                "omega": [[shift, triples(s)] for shift, s in chart.omega_pullbacks()],
            })
    return out


def _claims_no_more(got, want):
    # a nonzero coefficient is pinned; a zero to precision stays zero and
    # may claim fewer digits than the golden
    if want[1] != 0:
        return got == want
    return got[1] == 0 and got[2] <= want[2]


@pytest.mark.parametrize("p", [7, 11])
def test_fixture_charts_match_golden(p):
    golden = [c for c in json.loads(GOLDEN_CHARTS.read_text()) if c["p"] == p]
    got = fixture_charts(p)
    assert [(c["curve"], c["point"], c["kind"]) for c in got] == [
        (c["curve"], c["point"], c["kind"]) for c in golden
    ]
    for have, want in zip(got, golden):
        rows = [(have["x"], want["x"]), (have["y"], want["y"])]
        assert [s for s, _ in have["omega"]] == [s for s, _ in want["omega"]]
        rows += [(a[1], b[1]) for a, b in zip(have["omega"], want["omega"])]
        for a, b in rows:
            assert len(a) == len(b)
            bad = [(i, x, y) for i, (x, y) in enumerate(zip(a, b)) if not _claims_no_more(x, y)]
            assert not bad, (have["curve"], have["point"], bad[:3])


@pytest.mark.parametrize("p", [7, 11])
def test_pullbacks_reuse_the_square_roots_inverse(p, monkeypatch):
    # 1/y comes out of the Newton iteration that found y: the pullbacks equal
    # a second inversion of y, digit for digit and claim for claim
    n, order = precisions(p)
    ring = PadicRing(p, n)

    def triples(series):
        return [[c.val, c.unit, c.prec] for c in series.coeffs]

    charts = []
    for line in FIXTURE.read_text().splitlines():
        if not line.startswith("#"):
            curve, _ = scale_to_monic(parse_curve_line(line))
            charts += [local_chart(lift_point(q, curve, ring), curve, ring, order) for q in enumerate_fp_points(curve, p)]
    kinds = {c.kind for c in charts}
    assert kinds == {"infinity", "weierstrass", "non-weierstrass"}
    charts = [c for c in charts if c.kind != "weierstrass"]
    refs = [-c.y_series.inverse() if c.kind == "infinity" else (c.y_series + c.y_series).inverse() for c in charts]

    def no_inverse(self):
        raise AssertionError("a chart inverted y a second time")

    monkeypatch.setattr(PadicPowerSeries, "inverse", no_inverse)
    for chart, ref in zip(charts, refs):
        shift, base = chart.omega_pullbacks()[chart.curve.genus - 1 if chart.kind == "infinity" else 0]
        assert shift == 0 and triples(base) == triples(ref)


def test_search_rational_points_example1(ex1):
    pts = search_rational_points(ex1, 1000)
    assert pts == [INFINITY, Point(Fraction(32), Fraction(0))]


def test_search_rational_points_example3(ex3_monic):
    curve, pmap = ex3_monic
    pts = search_rational_points(curve, 1000)
    back = [pmap.backward(q) for q in pts]
    expected = {
        (None, None),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
    }
    got = {(None, None) if q.at_infinity else (q.x, q.y) for q in back}
    assert got == expected


def test_search_rational_points_zero_bound(ex1):
    assert search_rational_points(ex1, 0) == [INFINITY]


# The two-loop scan that the sieve replaced, kept verbatim as an oracle.
def _scan_oracle(curve: HyperellipticCurve, height_bound: int) -> list[Point]:
    """All rational points (n/d, y) with max(|n|, |d|) <= height_bound, plus infinity.

    Plain two-loop scan with residue prefilters and an exact integer square
    test; deterministic output order (infinity first, then by (x, y)).
    """
    points = [INFINITY]
    if height_bound < 1:
        return points
    lcm = 1
    for c in curve.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ic = [int(c * lcm * lcm) for c in curve.coeffs]
    deg = curve.degree

    def g_of(n: int, d: int) -> int:
        acc = 0
        dp = 1
        npows = [1]
        for _ in range(deg):
            npows.append(npows[-1] * n)
        for j in range(deg, -1, -1):
            acc += ic[j] * npows[j] * dp
            dp *= d
        return acc

    mods = (64, 63)
    tables = []
    for m in mods:
        tab = bytearray(m * m)
        squares = {x * x % m for x in range(m)}
        for a in range(m):
            for b in range(m):
                acc = 0
                dp = 1
                ap = [1]
                for _ in range(deg):
                    ap.append(ap[-1] * a % m)
                for j in range(deg, -1, -1):
                    acc = (acc + ic[j] * ap[j] * dp) % m
                    dp = dp * b % m
                tab[a * m + b] = 1 if (acc * b % m) in squares else 0
        tables.append(tab)

    found = []
    for d in range(1, height_bound + 1):
        d4 = d**4
        for n in range(-height_bound, height_bound + 1):
            if math.gcd(n, d) != 1:
                continue
            ok = True
            for m, tab in zip(mods, tables):
                if not tab[(n % m) * m + d % m]:
                    ok = False
                    break
            if not ok:
                continue
            q = g_of(n, d) * d
            if q < 0:
                continue
            s = math.isqrt(q)
            if s * s != q:
                continue
            x = Fraction(n, d)
            y = Fraction(s, lcm * d4)
            if curve.f_eval(x) != y * y:
                continue
            if y == 0:
                found.append(Point(x, Fraction(0)))
            else:
                found.append(Point(x, y))
                found.append(Point(x, -y))
    found.sort(key=lambda pt: (pt.x, pt.y))
    return points + found



@pytest.mark.parametrize("height_bound", [0, 1, 2, 100, 1000])
def test_search_sieve_matches_scan_on_fixtures(ex1, ex2, ex3_monic, height_bound):
    for curve in (ex1, ex2, ex3_monic[0]):
        assert search_rational_points(curve, height_bound) == _scan_oracle(curve, height_bound)


# y^2 = x(x^2 - 1)(x^2 - 4)(x^2 - 9) + c0: seven Weierstrass points at
# c0 = 0; at c0 = 4, twenty affine points, four of them with x not integral
@pytest.mark.parametrize("c0, count", [(0, 8), (4, 21)])
def test_search_sieve_matches_scan_many_points(c0, count):
    curve = HyperellipticCurve([c0, -36, 0, 49, 0, -14, 0, 1])
    pts = search_rational_points(curve, 200)
    assert len(pts) == count
    assert pts == _scan_oracle(curve, 200)


# denominators divisible by 2, 3, 5, 7 and 61, so that the primes of some
# sieve moduli divide the lcm L
_small_fraction = st.builds(
    Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 5, 7, 9, 25, 49, 61])
)


@settings(max_examples=40, deadline=None)
@given(
    middle=st.lists(_small_fraction, min_size=6, max_size=6),
    x0=_small_fraction,
    y0=_small_fraction,
    height_bound=st.integers(0, 60),
)
def test_search_sieve_matches_scan_random_septics(middle, x0, y0, height_bound):
    # c0 is chosen so that (x0, y0) lies on the curve
    tail = [Fraction(0)] + middle + [Fraction(1)]
    c0 = y0 * y0 - sum(c * x0**j for j, c in enumerate(tail))
    try:
        curve = HyperellipticCurve([c0] + tail[1:])
    except SingularModel:
        assume(False)
    pts = search_rational_points(curve, height_bound)
    assert pts == _scan_oracle(curve, height_bound)
    if max(abs(x0.numerator), x0.denominator) <= height_bound:
        assert Point(x0, y0) in pts


def test_global_height():
    assert global_height(Point(Fraction(1), Fraction(0))) == 0.0
    assert abs(global_height(Point(Fraction(32), Fraction(0))) - math.log(32)) < 1e-12
    assert abs(global_height(Point(Fraction(-1, 2), Fraction(0))) - math.log(2)) < 1e-12
    assert global_height(INFINITY) == 0.0


def _fp_mirror(q, p):
    """The involution on F_p points: negate y, then reduce mod p."""
    r = involution(q)
    return r if r.at_infinity else Point(r.x, r.y % p)


def test_involution():
    assert involution(Point(0, 4)) == Point(0, -4)
    assert _fp_mirror(Point(0, 4), 7) == Point(0, 3)
    assert involution(INFINITY) == INFINITY
    assert involution(involution(Point(Fraction(1), Fraction(2)))) == Point(
        Fraction(1), Fraction(2)
    )


def test_involution_fixed_points(ex1):
    fixed = [
        q
        for q in enumerate_fp_points(ex1, 7)
        if _fp_mirror(q, 7) == q
    ]
    assert all(q.at_infinity or q.y == 0 for q in fixed)
    assert INFINITY in fixed


def test_parse_curve_line(ex1):
    line = "[-103079215104,59055800320,-13656653824,1613758464,-101220352,3134464,-37024,1]"
    assert parse_curve_line(line) == [Fraction(c) for c in EX1_COEFFS]
    with pytest.raises(ParseError):
        parse_curve_line("not a curve")
    with pytest.raises(ParseError):
        parse_curve_line("[1, 2, bad]")
    # non-monic lines parse fine; rescaling happens downstream
    assert parse_curve_line("[1,4,6,4,-7,-16,0,8]") == [Fraction(c) for c in EX3_RAW_COEFFS]


def _good_reduction_by_gcd(curve, p):
    """Oracle: p odd, F p-integral and gcd(F, F') = 1 over F_p."""
    if p < 3 or any(c.denominator % p == 0 for c in curve.coeffs):
        return False
    fbar = curve.fp_coeffs(p)
    return xgcd(fbar, [i * fbar[i] % p for i in range(1, len(fbar))], p)[0] == [1]


def test_good_reduction_by_discriminant_matches_the_gcd_oracle():
    rng = random.Random(300)
    curves = bad = 0
    while curves < 60:
        coeffs = [Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 3, 4, 5, 9])) for _ in range(7)]
        try:
            curve = HyperellipticCurve(coeffs + [1])
        except SingularModel:
            continue
        curves += 1
        for p in range(2, 60):
            if is_prime(p):
                good = curve.has_good_reduction(p)
                assert good == _good_reduction_by_gcd(curve, p), (coeffs, p)
                bad += p > 2 and not good
    assert bad > 100  # bad reduction at odd primes is exercised too


def test_good_reduction_prime_skips_7_and_11():
    # disc(x^7 + 77) = -7^7 * 77^6: divisible by 7 and 11, not 13
    c = HyperellipticCurve([77, 0, 0, 0, 0, 0, 0, 1])
    assert c.disc % 7 == 0 and c.disc % 11 == 0 and c.disc % 13 != 0
    assert good_reduction_prime(c, 7) == 13


if __name__ == "__main__":
    charts = fixture_charts(7) + fixture_charts(11)
    print("[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in charts) + "\n]")
