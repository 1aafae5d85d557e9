"""Tests for tiny integrals, Teichmueller points, and Coleman integration."""

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import EX1_COEFFS, EX2_COEFFS, EX3_RAW_COEFFS, correction_polys, f_horner, horner

from ckpoints.chabauty import precisions
from ckpoints.cohomology import evaluate_correction, frobenius_action
from ckpoints.coleman import (
    coleman_integral,
    integral_functional,
    teichmuller_point,
    tiny_integral,
)
from ckpoints.curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    involution,
    lift_point,
    local_chart,
    reduce_point,
    scale_to_monic,
    search_rational_points,
)
from ckpoints.errors import DifferentDiscs, PoleAtPoint, WeierstrassDisc
from ckpoints.padic import (
    PadicRing,
    formal_integrate,
    hensel_simple_root,
    hensel_sqrt,
)

P7 = 7
N7 = 18
M7 = 15
RING = PadicRing(P7, N7)


@pytest.fixture(scope="module")
def fa1(ex1):
    return frobenius_action(ex1, P7, N7)


def _disc_point(curve, pbar, offset, ring=RING, order=M7):
    """A point of the residue disc of pbar at chart parameter offset*p."""
    base = lift_point(pbar, curve, ring)
    chart = local_chart(base, curve, ring, order)
    return chart.point_at(ring(P7 * offset))


def assert_vec_zero(values, floor):
    for v in values:
        assert v.is_zero or v.val >= floor, f"{v} not zero above floor {floor}"


# -- tiny integrals ------------------------------------------------------------


def test_tiny_integral_same_endpoint(ex1):
    pt = lift_point(Point(0, 4), ex1, RING)
    vec = tiny_integral(ex1, pt, pt, RING, M7)
    assert all(v.is_zero for v in vec)


def test_tiny_integral_requires_same_disc(ex1):
    a = lift_point(Point(0, 4), ex1, RING)
    b = lift_point(Point(1, 5), ex1, RING)
    with pytest.raises(DifferentDiscs):
        tiny_integral(ex1, a, b, RING, M7)


def test_tiny_integral_rejects_exact_infinity(ex1):
    chart = local_chart(INFINITY, ex1, RING, M7)
    q = chart.point_at(RING(7))
    with pytest.raises(PoleAtPoint):
        tiny_integral(ex1, INFINITY, q, RING, M7)


def test_fundamental_theorem_on_exact_forms(ex1):
    """Chart-level FTC: integrating d(x^k) recovers x^k at the endpoints."""
    pt = lift_point(Point(6, 2), ex1, RING)
    chart = local_chart(pt, ex1, RING, M7)
    t1 = RING(7 * 5)
    for k in (1, 2, 3):
        xk = chart.x_series**k
        anti = formal_integrate(xk.derivative())
        got = anti.evaluate(t1, -1)
        expect = xk.evaluate(t1, 0) - xk.coeffs[0]
        assert got.congruent(expect, required=M7 - 2) is True


def test_tiny_integral_matches_doubled_truncation(ex1):
    rng = random.Random(17)
    for pbar in [Point(0, 4), Point(2, 6), Point(4, 0)]:
        a = _disc_point(ex1, pbar, rng.randrange(1, 7))
        b = _disc_point(ex1, pbar, rng.randrange(1, 7))
        lo = tiny_integral(ex1, a, b, RING, M7)
        hi = tiny_integral(ex1, a, b, RING, 2 * M7)
        for x, y in zip(lo, hi):
            assert x.congruent(y, required=min(x.prec, y.prec)) is True


def test_tiny_integral_infinity_disc_laurent(ex1):
    chart = local_chart(INFINITY, ex1, RING, M7)
    a = chart.point_at(RING(7))
    b = chart.point_at(RING(14))
    vec = tiny_integral(ex1, a, b, RING, M7)
    # meromorphic entries have negative valuation but are finite
    assert vec[5].val < 0
    hi = tiny_integral(ex1, a, b, RING, 2 * M7)
    for x, y in zip(vec, hi):
        assert x.congruent(y, required=min(x.prec, y.prec) - 1) is True


# -- Teichmueller points ---------------------------------------------------------


def test_teichmuller_fixed_residues(ex1):
    # F(0) and F(1) are nonzero mod 7 on this curve, and 0, 1 are
    # Teichmueller residues already
    pt = lift_point(Point(0, 4), ex1, RING)
    t = teichmuller_point(pt, ex1, RING)
    assert t.x.is_zero or t.x.lift() == 0
    pt1 = lift_point(Point(1, 5), ex1, RING)
    t1 = teichmuller_point(pt1, ex1, RING)
    assert t1.x.lift() == 1


def test_teichmuller_root_of_unity(ex1):
    pt = _disc_point(ex1, Point(2, 6), 3)
    t = teichmuller_point(pt, ex1, RING)
    assert t.x.lift() % 7 == 2
    assert (t.x**6).congruent(RING.one()) is True


def test_teichmuller_idempotent(ex1):
    pt = _disc_point(ex1, Point(6, 2), 4)
    t = teichmuller_point(pt, ex1, RING)
    t2 = teichmuller_point(t, ex1, RING)
    assert (t.x - t2.x).is_zero and (t.y - t2.y).is_zero


def _teichmuller_x_by_iteration(x, p, prec):
    """The Teichmueller lift of x mod p as the limit of x -> x^p."""
    m = p**prec
    x %= m
    for _ in range(prec + 1):
        nxt = pow(x, p, m)
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("x -> x^p did not converge")


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3_monic"])
def test_teichmuller_x_matches_power_iteration(name, p):
    curve = _monic_fixture(name)
    ring = PadicRing(p, 2 * p + 4)
    checked = 0
    for pbar in enumerate_fp_points(curve, p):
        if pbar.at_infinity or pbar.y == 0:
            continue
        pt = lift_point(pbar, curve, ring)
        t = teichmuller_point(pt, curve, ring)
        assert t.x.prec == ring.prec
        assert t.x.lift() == _teichmuller_x_by_iteration(pt.x.lift(), p, ring.prec)
        checked += 1
    assert checked > 0


def test_teichmuller_rejects_weierstrass_disc(ex1):
    w = lift_point(Point(4, 0), ex1, RING)
    with pytest.raises(WeierstrassDisc):
        teichmuller_point(w, ex1, RING)
    with pytest.raises(WeierstrassDisc):
        teichmuller_point(INFINITY, ex1, RING)


# -- Coleman integrals -----------------------------------------------------------


def test_coleman_same_point_is_zero(ex1, fa1):
    pt = lift_point(Point(1, 5), ex1, RING)
    vec = coleman_integral(ex1, fa1, pt, pt)
    assert all(v.is_zero for v in vec)


def test_weierstrass_basepoint_identity(ex1, fa1):
    """int_W^Q = 1/2 int_{iota Q}^Q, checked through an independent route."""
    w = lift_point(Point(4, 0), ex1, RING)
    q = lift_point(Point(1, 5), ex1, RING)
    direct = coleman_integral(ex1, fa1, w, q)
    # independent evaluation of int_{iota Q}^Q via an auxiliary third disc
    aux = lift_point(Point(6, 2), ex1, RING)
    leg1 = coleman_integral(ex1, fa1, involution(q), aux)
    leg2 = coleman_integral(ex1, fa1, aux, q)
    for d, a, b in zip(direct, leg1, leg2):
        assert (d + d - a - b).is_zero or (d + d - a - b).val >= N7 - 3


def test_example1_integral_vanishes_on_rational_points(ex1, fa1):
    w = lift_point(Point(4, 0), ex1, RING)
    vec = integral_functional(ex1, fa1, w)
    assert_vec_zero(vec, N7 - 3)
    at_inf = integral_functional(ex1, fa1, INFINITY)
    assert all(v.is_zero for v in at_inf)


def test_antisymmetry_exact(ex1, fa1):
    a = _disc_point(ex1, Point(0, 4), 2)
    b = _disc_point(ex1, Point(6, 5), 3)
    ab = coleman_integral(ex1, fa1, a, b)
    ba = coleman_integral(ex1, fa1, b, a)
    assert all((x + y).is_zero for x, y in zip(ab, ba))


def test_additivity_randomized(ex1, fa1):
    rng = random.Random(29)
    discs = [q for q in enumerate_fp_points(ex1, 7) if not q.at_infinity]
    for _ in range(6):
        pa, pb, pc = rng.sample(discs, 3)
        a = _disc_point(ex1, pa, rng.randrange(7))
        b = _disc_point(ex1, pb, rng.randrange(7))
        c = _disc_point(ex1, pc, rng.randrange(7))
        ab = coleman_integral(ex1, fa1, a, b)
        bc = coleman_integral(ex1, fa1, b, c)
        ac = coleman_integral(ex1, fa1, a, c)
        for x, y, z in zip(ab, bc, ac):
            d = x + y - z
            assert d.is_zero or d.val >= N7 - 3


def test_involution_antisymmetry_exact(ex1, fa1):
    a = _disc_point(ex1, Point(2, 1), 1)
    b = _disc_point(ex1, Point(6, 2), 5)
    ab = coleman_integral(ex1, fa1, a, b)
    mirrored = coleman_integral(ex1, fa1, involution(a), involution(b))
    assert all((x + y).is_zero for x, y in zip(ab, mirrored))


def test_path_independence_through_weierstrass_disc(ex1, fa1):
    a = _disc_point(ex1, Point(0, 3), 2)
    b = _disc_point(ex1, Point(1, 2), 4)
    # route through a point in the Weierstrass disc of (4, 0)
    w_chart_pt = _disc_point(ex1, Point(4, 0), 3)
    direct = coleman_integral(ex1, fa1, a, b)
    leg1 = coleman_integral(ex1, fa1, a, w_chart_pt)
    leg2 = coleman_integral(ex1, fa1, w_chart_pt, b)
    for d, x, y in zip(direct, leg1, leg2):
        r = x + y - d
        assert r.is_zero or r.val >= N7 - 3


def _frobenius_point(point, curve, ring):
    """Image of a non-Weierstrass point under the Frobenius lift x -> x^p."""
    xp = point.x**ring.p
    return Point(xp, hensel_sqrt(f_horner(curve, ring, xp), point.y.lift() % ring.p))


def test_change_of_variables_frobenius(ex1, fa1):
    """int_{phi P}^{phi Q} omega_i = sum_j M_ji int_P^Q omega_j + f_i(Q) - f_i(P)."""
    a = _disc_point(ex1, Point(0, 4), 1)
    b = _disc_point(ex1, Point(6, 2), 2)
    base = coleman_integral(ex1, fa1, a, b)
    pa = _frobenius_point(a, ex1, RING)
    pb = _frobenius_point(b, ex1, RING)
    moved = coleman_integral(ex1, fa1, pa, pb)
    for i in range(6):
        rhs = evaluate_correction(fa1.corrections[i], b) - evaluate_correction(
            fa1.corrections[i], a
        )
        for j in range(6):
            rhs = rhs + fa1.matrix[j][i] * base[j]
        d = moved[i] - rhs
        assert d.is_zero or d.val >= N7 - 3


def test_lift_independence_inside_disc(ex1, fa1):
    """The integral to a fixed endpoint depends only on the endpoints."""
    target = _disc_point(ex1, Point(1, 5), 3)
    a1 = lift_point(Point(6, 2), ex1, RING)
    a2 = _disc_point(ex1, Point(6, 2), 5)
    v1 = coleman_integral(ex1, fa1, a1, target)
    v2 = coleman_integral(ex1, fa1, a2, target)
    hop = coleman_integral(ex1, fa1, a1, a2)
    for x, y, h in zip(v1, v2, hop):
        d = x - (h + y)
        assert d.is_zero or d.val >= N7 - 3


def test_default_order_follows_the_precision(ex3_monic):
    # the default t-adic order grows with N: at N = 40 a tiny integral
    # claims N - 2 digits, not the 16 that the order 2p + 1 allows
    curve, _ = ex3_monic
    got = {}
    for n in (18, 40):
        ring = PadicRing(P7, n)
        base = lift_point(Point(0, 1), curve, ring)
        end = local_chart(base, curve, ring, precisions(P7, n)[1]).point_at(ring(P7))
        got[n] = coleman_integral(curve, frobenius_action(curve, P7, n), base, end)
    assert min(v.prec for v in got[18]) == 16
    assert min(v.prec for v in got[40]) >= 38
    for lo, hi in zip(got[18], got[40], strict=True):
        assert lo.congruent(hi, required=lo.prec) is True


def test_integral_functional_on_example3(ex3_monic, fa1):
    curve, pmap = ex3_monic
    fa = frobenius_action(curve, 7, N7)
    for pt in search_rational_points(curve, 10):
        if pt.at_infinity:
            continue
        lifted = Point(RING(pt.x), RING(pt.y))
        vec = integral_functional(curve, fa, lifted)
        assert_vec_zero(vec, N7 - 3)


def test_integral_functional_vanishes_at_torsion_points(ex2):
    # the found torsion points lie in the common zero set, so the triple of
    # integrals from infinity vanishes there; n * (triple) = 0 is consistent
    fa = frobenius_action(ex2, P7, N7)
    x = RING(Fraction(-1, 8))
    f_at = f_horner(ex2, RING, x)
    seed = next(s for s in range(1, 7) if s * s % 7 == f_at.lift() % 7)
    q = Point(x, hensel_sqrt(f_at, seed))
    vec = integral_functional(ex2, fa, q)
    assert_vec_zero(vec, N7 - 3)


# -- integrals from infinity: golden, precision audit, the odd corrections -------

GOLDEN_INTEGRALS = Path(__file__).parent / "golden" / "integrals_from_infinity.json"


@functools.lru_cache(maxsize=None)
def _monic_fixture(name):
    coeffs = {"ex1": EX1_COEFFS, "ex2": EX2_COEFFS}.get(name)
    return HyperellipticCurve(coeffs) if coeffs else scale_to_monic(EX3_RAW_COEFFS)[0]


@functools.lru_cache(maxsize=None)
def _frobenius(name, p):
    return frobenius_action(_monic_fixture(name), p, 2 * p + 4)


def test_integral_functional_matches_golden():
    """int_infinity^P at the lifted center of every F_p point, as (val, unit, prec).

    Written before the integrals from infinity went through one Teichmueller
    point; it holds integral_functional(curve, fa, lift_point(P), 2p + 1) with
    fa = frobenius_action(curve, p, 2p + 4) for the three monic fixtures at
    p = 7 and 11.
    """
    golden = json.loads(GOLDEN_INTEGRALS.read_text())
    assert [(e["curve"], e["p"]) for e in golden["entries"]] == [
        (name, p) for name in ("ex1", "ex2", "ex3_monic") for p in (7, 11)
    ]
    for entry in golden["entries"]:
        curve, p = _monic_fixture(entry["curve"]), entry["p"]
        assert entry["coeffs"] == [str(c) for c in curve.coeffs]
        assert (entry["precision"], entry["order"]) == (2 * p + 4, 2 * p + 1)
        ring = PadicRing(p, 2 * p + 4)
        fa = _frobenius(entry["curve"], p)
        got = []
        for pbar in enumerate_fp_points(curve, p):
            vec = integral_functional(curve, fa, lift_point(pbar, curve, ring), 2 * p + 1)
            key = "inf" if pbar.at_infinity else [pbar.x, pbar.y]
            got.append([key, [[v.val, v.unit, v.prec] for v in vec]])
        assert got == entry["points"]


def _audit_points(curve, ring):
    """Off-center points of example 1 built exactly, then Hensel-lifted in ring.

    Non-Weierstrass discs: x = xbar + 7k, y the square root of F(x) over ybar.
    The Weierstrass disc of (4, 0): y = 7k, x the root of F(x) - y^2 over 4.
    The infinity disc: x = t^-2, y = t^-7 sqrt(t^14 F(t^-2)) with t = 7k.
    """
    f = [ring(c).lift() for c in curve.coeffs]
    pts = []
    for xbar, ybar, k in ((0, 3, 1), (1, 5, 3), (2, 6, 4), (6, 2, 2)):
        x = ring(xbar + 7 * k)
        pts.append(Point(x, hensel_sqrt(f_horner(curve, ring, x), ybar)))
    for k in (1, 3):
        shifted = [f[0] - 49 * k * k] + f[1:]
        pts.append(Point(hensel_simple_root(shifted, 4, ring.p, ring.prec), ring(7 * k)))
    for k, seed in ((1, 1), (2, 6)):
        t = Fraction(7 * k)
        v = sum(Fraction(c) * t ** (14 - 2 * j) for j, c in enumerate(curve.coeffs))
        pts.append(Point(ring(t**-2), ring(t) ** -7 * hensel_sqrt(ring(v), seed)))
    return pts


def test_precision_audit_against_higher_precision(ex1, fa1):
    """Every claimed digit of an integral survives a recomputation at N + 10.

    The recomputation uses the Frobenius action at N + 10, the t-adic order
    2(2p + 1) and the same endpoints Hensel-lifted at N + 10.
    """
    hi_ring = PadicRing(P7, N7 + 10)
    fa_hi = frobenius_action(ex1, P7, N7 + 10)
    lo_pts = _audit_points(ex1, RING)
    hi_pts = _audit_points(ex1, hi_ring)
    order, hi_order = 2 * P7 + 1, 2 * (2 * P7 + 1)
    checked = 0

    def agree(lo, hi):
        nonlocal checked
        for a, b in zip(lo, hi, strict=True):
            assert a.congruent(b, required=a.prec) is True, (a, b)
            checked += 1

    for lo, hi in zip(lo_pts, hi_pts):
        agree(integral_functional(ex1, fa1, lo, order), integral_functional(ex1, fa_hi, hi, hi_order))
    for i in range(len(lo_pts)):
        for j in range(i + 1, len(lo_pts)):
            a, b = lo_pts[i], lo_pts[j]
            if reduce_point(a, P7) == reduce_point(b, P7):
                continue
            agree(
                coleman_integral(ex1, fa1, a, b, order),
                coleman_integral(ex1, fa_hi, hi_pts[i], hi_pts[j], hi_order),
            )
    assert checked == 8 * 3 + 26 * 6


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3_monic"])
def test_corrections_are_odd_in_y(name):
    """f_i(iota T) = -f_i(T) exactly: the integral from infinity needs one T."""
    curve, fa = _monic_fixture(name), _frobenius(name, P7)
    assert all(w % 2 == 1 for corr in fa.corrections for w in corr.ws)
    ring = PadicRing(P7, fa.precision)
    teichs = [
        teichmuller_point(lift_point(pbar, curve, ring), curve, ring)
        for pbar in enumerate_fp_points(curve, P7)
        if not pbar.at_infinity and pbar.y != 0
    ]
    assert teichs
    for t in teichs:
        for corr in fa.corrections:
            a = evaluate_correction(corr, involution(t))
            b = -evaluate_correction(corr, t)
            assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)


def _scalar_horner(corr, point):
    """The PadicScalar Horner that evaluated corrections before they went flat."""
    x, y = point.x, point.y
    acc = None
    for w, poly in correction_polys(corr).items():
        term = horner(poly, x) * y**w
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3_monic"])
def test_flat_corrections_match_scalar_horner_at_teichmueller_points(name, p):
    curve, fa = _monic_fixture(name), _frobenius(name, p)
    ring = PadicRing(p, fa.precision)
    checked = 0
    for pbar in enumerate_fp_points(curve, p):
        if pbar.at_infinity or pbar.y == 0:
            continue
        t = teichmuller_point(lift_point(pbar, curve, ring), curve, ring)
        for pt in (t, involution(t)):
            for corr in fa.corrections:
                a, b = evaluate_correction(corr, pt), _scalar_horner(corr, pt)
                assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)
                checked += 1
    assert checked > 0
