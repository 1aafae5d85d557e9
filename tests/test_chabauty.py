"""Tests for the per-disc series construction and the full driver."""

from fractions import Fraction

import pytest

from ckpoints import chabauty, cohomology
from ckpoints.chabauty import (
    _strassmann_bound,
    common_zeros,
    disc_series,
    precisions,
    run_chabauty,
    truncated_discriminant,
)
from ckpoints.cohomology import frobenius_action
from ckpoints.coleman import integral_functional
from ckpoints.curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    fp_disc_representatives,
    good_reduction_prime,
    involution,
    search_rational_points,
)
from ckpoints.errors import AllSeriesDegenerate, InternalInvariant, PrecisionExhausted, ZeroBoundExceeded
from ckpoints.intpoly import taylor_shift
from ckpoints.padic import (
    PadicPowerSeries,
    PadicRing,
    PadicScalar,
    formal_integrate,
    padic_poly_roots,
)
from conftest import shared_action


@pytest.fixture(scope="module")
def fa1(ex1):
    return shared_action(ex1, 7, 18)


@pytest.fixture(scope="module")
def known1(ex1):
    return search_rational_points(ex1, 1000)


def test_precisions_formulas():
    assert precisions(7) == (18, 15)
    assert precisions(11) == (26, 23)
    assert precisions(13) == (30, 27)
    with pytest.raises(ValueError):
        precisions(5)
    # the t-adic order follows a raised p-adic precision
    assert precisions(7, 30) == (30, 27)
    assert precisions(7, 36) == (36, 33)
    assert precisions(11, 23) == (23, 20)


@pytest.mark.parametrize("n", [-3, 2, 6])
def test_precisions_reject_n_below_7(n):
    # below 7 the t-adic order drops under 3 and the infinity disc's t^4
    # shift no longer fits
    with pytest.raises(ValueError, match="at least 7"):
        precisions(7, n)


def test_precisions_floor():
    assert precisions(7, 7) == (7, 3)


def test_disc_series_infinity(ex1, fa1):
    ds = disc_series(ex1, fa1, INFINITY)
    assert all(c.is_zero for c in ds.offsets)
    zeros, chosen = common_zeros(ds)
    assert len(zeros) == 1 and zeros[0].at_infinity


def test_disc_series_no_common_roots(ex1, fa1):
    ds = disc_series(ex1, fa1, Point(0, 4))
    zeros, chosen = common_zeros(ds)
    assert zeros == []


def test_disc_series_derivative_matches_pullback(ex1, fa1):
    ds = disc_series(ex1, fa1, Point(6, 2))
    pulls = ds.chart.omega_pullbacks()
    for i in range(3):
        shift, pull = pulls[i]
        assert shift == 0
        deriv = ds.series[i].derivative()
        for a, b in zip(deriv.coeffs, pull.coeffs):
            assert a.congruent(b, required=min(a.prec, b.prec) - 1) in (True,)


def test_disc_series_offsets_vanish_only_with_seed(ex1, fa1):
    ds = disc_series(ex1, fa1, Point(4, 0))
    # anchored at the lifted Weierstrass center, the offsets are zero
    for a in ds.offsets:
        assert a.is_zero


@pytest.mark.parametrize("p", [7, 11])
def test_disc_series_builds_one_chart_and_g_pullbacks_per_disc(ex1, monkeypatch, p):
    # the tiny integral from the Teichmueller point is read in the disc's own
    # chart, the run path pulls back only the g holomorphic forms, and
    # (M^T - I) is eliminated once per Frobenius action
    from ckpoints import coleman, curve as curve_mod

    fa = frobenius_action(ex1, p, 2 * p + 4)
    charts, counts, systems = [], [], []
    real_chart, real_pullbacks, real_system = curve_mod.local_chart, curve_mod.LocalChart.omega_pullbacks, cohomology.LinearSystem

    def counted_chart(*args):
        charts.append(args[0])
        return real_chart(*args)

    def counted_pullbacks(self, count=None):
        counts.append(count)
        return real_pullbacks(self, count)

    def counted_system(matrix):
        systems.append(matrix)
        return real_system(matrix)

    monkeypatch.setattr(chabauty, "local_chart", counted_chart)
    monkeypatch.setattr(coleman, "local_chart", counted_chart)
    monkeypatch.setattr(curve_mod.LocalChart, "omega_pullbacks", counted_pullbacks)
    monkeypatch.setattr(cohomology, "LinearSystem", counted_system)
    discs = [d for d, _ in fp_disc_representatives(ex1, p)]
    for d in discs:
        disc_series(ex1, fa, d)
    assert len(charts) == len(counts) == len(discs)
    assert counts == [ex1.genus] * len(discs)
    assert len(systems) == 1


def test_common_zeros_weierstrass_disc(ex1, fa1):
    ds = disc_series(ex1, fa1, Point(4, 0))
    zeros, chosen = common_zeros(ds)
    assert len(zeros) == 1
    z = zeros[0]
    assert z.x.lift_centered() == 32
    assert z.y.is_zero


def test_common_zeros_trivial_triple(ex1, fa1):
    # series (t, t, t): the only common parameter is 0
    ds = disc_series(ex1, fa1, Point(6, 2))
    ring = PadicRing(7, 18)
    ident = ring.series([0, 1], 15)
    ds.series = [ident, ident, ident]
    zeros, chosen = common_zeros(ds)
    assert len(zeros) == 1
    assert (zeros[0].x - ds.base.x).is_zero


def test_run_chabauty_example1(ex1, known1, shared_actions):
    out = run_chabauty(ex1, 7, known1)
    assert [_as_tuple(c.rational) for c in out.rational] == [("inf",), (32, 0)]
    assert out.two_torsion_extras == []
    assert out.higher_torsion_extras == []
    assert out.prime == 7 and out.precision == 18 and out.t_precision == 15
    no_root_discs = [log.disc for log in out.disc_logs if not log.points]
    assert {d.x for d in no_root_discs} == {0, 1, 2, 6}


def test_run_chabauty_example2(ex2, shared_actions):
    known = search_rational_points(ex2, 100)
    out = run_chabauty(ex2, 7, known)
    assert [_as_tuple(c.rational) for c in out.rational] == [("inf",)]
    assert out.two_torsion_extras == []
    assert len(out.higher_torsion_extras) == 2
    a, b = out.higher_torsion_extras
    assert (a.point.x - b.point.x).is_zero
    assert (a.point.y + b.point.y).is_zero
    for c in (a, b):
        assert c.x_min_poly == [1, 8]
        assert c.order == 18


def test_run_chabauty_example2_at_raised_precision(ex2, shared_actions):
    # the series tail must clear the higher vanishing floor N - 3 = 27
    base = run_chabauty(ex2, 7, [])
    out = run_chabauty(ex2, 7, [], precision=30)
    assert out.precision == 30 and out.t_precision == 27
    assert [_as_tuple(c.rational) for c in out.rational] == [
        _as_tuple(c.rational) for c in base.rational
    ]
    assert out.two_torsion_extras == base.two_torsion_extras == []
    assert [(c.x_min_poly, c.order) for c in out.higher_torsion_extras] == [
        (c.x_min_poly, c.order) for c in base.higher_torsion_extras
    ]


def test_run_chabauty_example3(ex3_monic, shared_actions):
    curve, pmap = ex3_monic
    known = search_rational_points(curve, 1000)
    out = run_chabauty(curve, 7, known)
    back = {_as_tuple(pmap.backward(c.rational)) for c in out.rational}
    assert back == {
        ("inf",),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
    }
    assert out.fp_count == 6
    assert not out.two_torsion_extras and not out.higher_torsion_extras


def test_seedless_run_identical(ex1, known1, shared_actions):
    seeded = run_chabauty(ex1, 7, known1)
    unseeded = run_chabauty(ex1, 7, [])
    assert [_as_tuple(c.rational) for c in seeded.rational] == [
        _as_tuple(c.rational) for c in unseeded.rational
    ]
    assert len(seeded.two_torsion_extras) == len(unseeded.two_torsion_extras)
    assert len(seeded.higher_torsion_extras) == len(unseeded.higher_torsion_extras)


def test_soundness_known_points_in_output(ex1, ex3_monic, known1, shared_actions):
    out = run_chabauty(ex1, 7, known1)
    got = {_as_tuple(c.rational) for c in out.rational}
    for kp in known1:
        assert _as_tuple(kp) in got


def test_output_closed_under_involution(ex2, shared_actions):
    out = run_chabauty(ex2, 7, [])
    pts = [c.point for c in out.higher_torsion_extras]
    for pt in pts:
        mirror = involution(pt)
        assert any(
            (q.x - mirror.x).is_zero and (q.y - mirror.y).is_zero for q in pts
        )


def test_outputs_satisfy_curve_equation(ex2, shared_actions):
    out = run_chabauty(ex2, 7, [])
    for c in out.rational + out.two_torsion_extras + out.higher_torsion_extras:
        assert ex2.contains(c.point)


def test_genus_restriction():
    from ckpoints.curve import HyperellipticCurve

    g2 = HyperellipticCurve([1, 1, 0, 1, 0, 1])  # genus 2
    with pytest.raises(ValueError):
        run_chabauty(g2, 7, [])


def test_bad_known_point_rejected(ex1):
    with pytest.raises(ValueError):
        run_chabauty(ex1, 7, [Point(Fraction(5), Fraction(5))])


@pytest.mark.parametrize("p", [5, 9, 49])
def test_starting_prime_must_be_a_prime_at_least_7(ex1, p):
    with pytest.raises(ValueError):
        run_chabauty(ex1, p, [])


def _as_tuple(point):
    if point.at_infinity:
        return ("inf",)
    return (Fraction(point.x), Fraction(point.y))


def test_all_series_degenerate_raises(ex1, fa1):
    ds = disc_series(ex1, fa1, Point(6, 2))
    ring = PadicRing(7, 18)
    square = ring.series([0, 0, 1], 15)  # t^2: a certified double root
    ds.series = [square, square, square]
    with pytest.raises(AllSeriesDegenerate):
        common_zeros(ds)


def test_example2_rational_list_prime_invariant(ex2, shared_actions):
    # at p = 11 the quadratic field of the torsion points has no 11-adic
    # embedding, so the extras may differ; the rational list may not
    out = run_chabauty(ex2, 11, search_rational_points(ex2, 100))
    assert out.prime == 11
    assert [_as_tuple(c.rational) for c in out.rational] == [("inf",)]


def test_disc_series_seeded_at_noncentral_base():
    # a rational point sitting off-center in a Weierstrass disc: the series
    # expanded about the lifted center take the value of the Coleman integral
    # from infinity there (the curve's rank is unknown, so it need not vanish)
    curve = HyperellipticCurve([47, 1, 0, 0, 0, 0, 0, 1])  # (1, 7) is on it
    seed_pt = Point(Fraction(1), Fraction(7))
    assert curve.contains(seed_pt)
    fa = frobenius_action(curve, 7, 18)
    ds = disc_series(curve, fa, Point(1, 0))
    assert ds.chart.kind == "weierstrass"
    ring = PadicRing(7, 18)
    t_base = ds.chart.param_of(Point(ring(1), ring(7)))
    assert t_base.lift() == 7
    # the disc center is the Weierstrass point, not the seed
    assert not (ds.chart.center.x - ring(1)).is_zero
    vec = integral_functional(curve, fa, Point(ring(1), ring(7)))
    for i in range(3):
        assert (ds.series_value(t_base, i) - vec[i]).is_zero


def _fa(curve, p):
    # the run_chabauty tests take the same actions through shared_actions
    return shared_action(curve, p, precisions(p)[0])


def _reduce(point, p):
    if point.at_infinity or Fraction(point.x).denominator % p == 0:
        return INFINITY
    x, y = Fraction(point.x), Fraction(point.y)
    return Point(
        x.numerator * pow(x.denominator, -1, p) % p,
        y.numerator * pow(y.denominator, -1, p) % p,
    )


def _ex3_shifted(ex3_monic):
    # the monic model of the input translate F(x + 3) of example 3
    return HyperellipticCurve(taylor_shift([int(c) for c in ex3_monic[0].coeffs], 24))


def test_seedless_series_vanish_at_known_points(ex1, ex3_monic):
    # every disc is expanded about its lifted center, so the three series
    # vanish at a rational point only because the Coleman integrals from
    # infinity do (rank 0), not because the expansion was anchored there.
    # On the two example models every known point is infinity, a Weierstrass
    # point or has x = 0, so it is its own disc's lifted center; the
    # translate F(x + 24) moves (0, +-512) to x = -24, off the lifted
    # center, where the offsets are nonzero.
    ex3 = ex3_monic[0]
    shifted = _ex3_shifted(ex3_monic)
    checked = 0
    off_center = 0
    for curve in (ex1, ex3, shifted):
        points = search_rational_points(curve, 100)
        for p_min in (7, 11):
            p = good_reduction_prime(curve, p_min)
            fa = _fa(curve, p)
            ring = PadicRing(p, fa.precision)
            floor = fa.precision - 3
            for pt in points:
                ds = disc_series(curve, fa, _reduce(pt, p))
                lifted = pt if pt.at_infinity else Point(ring(pt.x), ring(pt.y))
                t = ds.chart.param_of(lifted)
                off_center += not t.is_zero and not all(c.is_zero for c in ds.offsets)
                for i in range(3):
                    val = ds.series_value(t, i)
                    assert val.congruent(PadicScalar.zero(p, floor), required=floor) is True
                checked += 1
    assert checked == 16 + 12
    assert off_center == 4


def test_off_center_roots_claim_only_known_digits(ex3_monic, shared_actions):
    # at p = 11 the root of the truncated series for (-24, -512) is wrong in
    # its last digits; claimed at full precision, the point failed rational
    # reconstruction and was reported as a torsion extra
    curve = _ex3_shifted(ex3_monic)
    known = search_rational_points(curve, 100)
    fa = _fa(curve, 11)
    ring = PadicRing(11, fa.precision)
    for pt in known:
        if pt.at_infinity:
            continue
        zeros, _ = common_zeros(disc_series(curve, fa, _reduce(pt, 11)))
        assert any(
            (z.x - ring(pt.x)).is_zero and (z.y - ring(pt.y)).is_zero for z in zeros
        )
    out = run_chabauty(curve, 11, known)
    assert len(out.rational) == 6 and not out.higher_torsion_extras


# -- Strassmann bounds ----------------------------------------------------------

R7 = PadicRing(7, 18)


def test_strassmann_bound_zero():
    # a unit constant term outweighs every c_n p^n with n >= 1
    assert _strassmann_bound(R7.series([3, 1, 5], 15), 15, 7) == 0


def test_strassmann_bound_one():
    # 7 + t + 7t^2: v(c_0) + 0 = v(c_1) + 1 = 1 < v(c_2) + 2
    assert _strassmann_bound(R7.series([7, 1, 7], 15), 15, 7) == 1


def test_strassmann_bound_infinity_disc_shape():
    # the antiderivative of a pullback shifted by t^4, as on the infinity
    # disc: t^5/5 + t^6/2 + (2/7) t^7 under five O(7^18) coefficients
    series = formal_integrate(R7.series([1, 3, 2], 14).shift_pow(4))
    assert series.order == 15
    assert _strassmann_bound(series, 15, 7) == 5


def test_strassmann_bound_refused_when_a_zero_coefficient_reaches_the_minimum():
    # c_0 = O(7) could be 7 * unit and tie with t at weight 1
    coeffs = [PadicScalar.zero(7, 1)] + R7.series([0, 1], 15).coeffs[1:]
    assert _strassmann_bound(PadicPowerSeries(coeffs, 15, 7), 15, 7) is None
    # known to one more digit, c_0 stays above the minimum
    coeffs[0] = PadicScalar.zero(7, 2)
    assert _strassmann_bound(PadicPowerSeries(coeffs, 15, 7), 15, 7) == 1
    # nothing is nonzero to precision
    assert _strassmann_bound(R7.series([], 15), 15, 7) is None


def test_strassmann_bound_refused_when_the_tail_reaches_the_minimum():
    # at order 3 the terms past t^3 have valuation >= 4 - ilog_7(4) = 4
    assert _strassmann_bound(R7.series([0, 0, 0, 7], 3), 3, 7) is None
    assert _strassmann_bound(R7.series([0, 0, 0, 1], 3), 3, 7) == 3


def test_bound_zero_disc_needs_no_root_finding(ex1, fa1, monkeypatch):
    # on disc (0, 3) series 0 has bound 1 and series 1 and 2 bound 0
    ds = disc_series(ex1, fa1, Point(0, 3))

    def no_roots(f):
        raise AssertionError("root finding on a disc proven empty")

    monkeypatch.setattr(chabauty, "padic_poly_roots", no_roots)
    assert common_zeros(ds) == ([], 1)


def test_degenerate_series_falls_through_to_the_next_bound(ex1, fa1):
    # t^2 (bound 2) has a double root; t^3 - 49t (bound 3) has the simple
    # roots 0 and +-7, and only t = 0 is a zero of t^2
    ds = disc_series(ex1, fa1, Point(6, 2))
    square = R7.series([0, 0, 1], 15)
    ds.series = [square, R7.series([0, -49, 0, 1], 15), square]
    zeros, chosen = common_zeros(ds)
    assert chosen == 1
    assert len(zeros) == 1 and (zeros[0].x - ds.base.x).is_zero


def test_more_roots_than_the_strassmann_bound_raise(ex1, fa1, monkeypatch):
    ds = disc_series(ex1, fa1, Point(4, 0))  # every series has bound 1
    real = chabauty.padic_poly_roots
    monkeypatch.setattr(chabauty, "padic_poly_roots", lambda f: real(f) + [R7(1)])
    with pytest.raises(ZeroBoundExceeded, match="Strassmann"):
        common_zeros(ds)


def test_coleman_bound_fires_on_a_padded_zero_list(ex1, monkeypatch, shared_actions):
    out = run_chabauty(ex1, 7, [])
    found = len(out.rational) + len(out.two_torsion_extras) + len(out.higher_torsion_extras)
    coleman_bound = out.fp_count + 2 * ex1.genus - 2
    # distinct fake points with y = 0, which the involution maps to themselves
    padding = [Point(R7(100 + k), R7(0)) for k in range(coleman_bound - found + 1)]
    real = chabauty.common_zeros

    def padded(ds):
        zeros, chosen = real(ds)
        return (zeros + padding if ds.disc.at_infinity else zeros), chosen

    monkeypatch.setattr(chabauty, "common_zeros", padded)
    with pytest.raises(ZeroBoundExceeded, match="Coleman"):
        run_chabauty(ex1, 7, [])


def test_run_chabauty_computes_p_of_t_once(ex2, monkeypatch):
    # #C(F_p) for Coleman's bound and #J(F_p) for both order-18 extras all
    # read the one P(T) cached on the action
    calls = []
    real = cohomology.zeta_char_poly
    monkeypatch.setattr(cohomology, "zeta_char_poly", lambda fa: calls.append(fa) or real(fa))
    out = run_chabauty(ex2, 7)
    assert [c.order for c in out.higher_torsion_extras] == [18, 18]
    assert len(calls) == 1


def test_char_poly_off_by_one_fails_the_point_count_check(ex1, monkeypatch):
    real = cohomology.zeta_char_poly

    def off_by_one(fa):
        coeffs = real(fa)
        return [coeffs[0], coeffs[1] + 1, *coeffs[2:]]

    monkeypatch.setattr(cohomology, "zeta_char_poly", off_by_one)
    with pytest.raises(InternalInvariant, match="P\\(T\\)"):
        run_chabauty(ex1, 7)


def _discriminant_common_zeros(ds):
    """common_zeros as certified before Strassmann bounds, kept as the oracle.

    The first series whose truncation has a nonvanishing discriminant is
    used; its roots go through the same vanishing check and Hensel cap.
    """
    ring = ds.chart.ring
    p = ring.p
    order = min(s.order for s in ds.series)
    floor = ring.prec - 3
    chosen = None
    for i, f_i in enumerate(ds.series):
        disc_val = truncated_discriminant(f_i.truncate(order), order)
        if not disc_val.is_zero:
            chosen = i
            break
    if chosen is None:
        raise AllSeriesDegenerate(f"all series have multiple roots on disc {ds.disc}")
    rescaled = [c.shift(n) for n, c in enumerate(ds.series[chosen].coeffs[: order + 1])]
    roots = padic_poly_roots(rescaled)
    slope_series = ds.series[chosen].derivative()
    points = []
    for s_root in roots:
        t_root = s_root.shift(1)
        ok = True
        for j in range(len(ds.series)):
            if j == chosen:
                continue
            val = ds.series_value(t_root, j)
            r = val.congruent(PadicScalar.zero(p, floor), required=floor)
            if r is None:
                raise PrecisionExhausted(
                    f"vanishing undecidable at floor {floor} on disc {ds.disc}"
                )
            if r is False:
                ok = False
                break
        if ok:
            slope = slope_series.evaluate(t_root)
            known = ds.series_value(t_root, chosen).prec - slope.val
            points.append(ds.chart.point_at(t_root.cap(known)))
    return points, chosen


@pytest.mark.parametrize("p, discs", [(7, 16), (11, 26)])
def test_strassmann_certificate_matches_discriminant_oracle(ex1, ex2, ex3_monic, p, discs):
    # same zeros with the same claimed digits on every fixture disc; the
    # chosen series may differ only where some series proves the disc empty
    compared = 0
    for curve in (ex1, ex2, ex3_monic[0]):
        fa = _fa(curve, p)
        for disc, _ in fp_disc_representatives(curve, p):
            ds = disc_series(curve, fa, disc)
            try:
                want, want_chosen = _discriminant_common_zeros(ds)
            except AllSeriesDegenerate:
                continue
            got, chosen = common_zeros(ds)
            assert [repr(z) for z in got] == [repr(z) for z in want], disc
            order = min(s.order for s in ds.series)
            bounds = [_strassmann_bound(s, order, p) for s in ds.series]
            if min(b for b in bounds if b is not None) >= 1:
                assert chosen == want_chosen, disc
            compared += 1
    assert compared == discs
