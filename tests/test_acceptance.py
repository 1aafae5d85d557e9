"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria (all exact unless stated):
  1. worked example 1 reproduces row-for-row at p=7, N=18, M=15
  2. worked example 2: one rational point, an order-18 torsion pair at
     x = -1/8 with the printed 7-adic digits through O(7^16)
  3. worked example 3: six rational points after monic rescaling, sharp
     mod-p point count bound
  4. zeta consistency on 20 random curves at p in {7, 11, 13}
  5. Coleman property suite on >= 200 random point pairs
  6. robustness: bigger prime, doubled precision, empty seed
  7. precision constants (2p+4, 2p+1) for primes 7 <= p <= 100
  8. oracle equivalence at desk scale
"""

import math
import random
import time
from fractions import Fraction

from ckpoints.chabauty import precisions, run_chabauty
from ckpoints.classify import MumfordDivisor, divisor_order
from ckpoints.cohomology import (
    curve_count_fp,
    frobenius_action,
    jacobian_order_fp,
    zeta_char_poly,
)
from ckpoints.coleman import coleman_integral, tiny_integral
from ckpoints.curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    involution,
    lift_point,
    local_chart,
    scale_to_monic,
    search_rational_points,
)
from ckpoints.padic import PadicRing, PadicScalar, formal_integrate, padic_poly_roots
from conftest import EX3_RAW_COEFFS, shared_action


def _as_tuple(point):
    if point.at_infinity:
        return ("inf",)
    return (Fraction(point.x), Fraction(point.y))


def test_criterion_1_example1_reproduction(ex1, shared_actions):
    t0 = time.monotonic()
    known = search_rational_points(ex1, 1000)
    out = run_chabauty(ex1, 7, known)
    assert out.prime == 7 and out.precision == 18 and out.t_precision == 15
    got = {_as_tuple(c.rational) for c in out.rational}
    assert got == {("inf",), (Fraction(32), Fraction(0))}
    assert out.two_torsion_extras == [] and out.higher_torsion_extras == []
    # the disc table matches row for row: zeros exactly on inf and (4,0)
    by_disc = {}
    for log in out.disc_logs:
        key = "inf" if log.disc.at_infinity else (log.disc.x, min(log.disc.y, 7 - log.disc.y))
        by_disc[key] = log.points
    assert len(by_disc["inf"]) == 1 and by_disc["inf"][0].at_infinity
    assert len(by_disc[(4, 0)]) == 1
    assert by_disc[(4, 0)][0].x.lift_centered() == 32
    for key in [(0, 3), (1, 2), (2, 1), (6, 2)]:
        assert by_disc[key] == []
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"\nPASS criterion 1: example 1 reproduced exactly in {elapsed:.1f}s")


def test_criterion_2_example2_reproduction(ex2, shared_actions):
    known = search_rational_points(ex2, 100)
    out = run_chabauty(ex2, 7, known)
    assert {_as_tuple(c.rational) for c in out.rational} == {("inf",)}
    assert out.two_torsion_extras == []
    assert len(out.higher_torsion_extras) == 2
    a, b = out.higher_torsion_extras
    assert (a.point.x - b.point.x).is_zero and (a.point.y + b.point.y).is_zero
    expected_digits = sum(6 * 7 ** (2 * k) for k in range(9))
    for c in (a, b):
        assert c.x_min_poly == [1, 8]
        assert c.order == 18
        assert (c.point.x.lift() - expected_digits) % 7**17 == 0
        assert (8 * c.point.x.lift() + 1) % 7**18 == 0
    print("\nPASS criterion 2: example 2 reproduced (x = -1/8, order 18)")


def test_criterion_3_example3_reproduction(shared_actions):
    curve, pmap = scale_to_monic(EX3_RAW_COEFFS)
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
    assert len(out.rational) == out.fp_count  # sharp point-count bound
    assert not out.two_torsion_extras and not out.higher_torsion_extras
    print("\nPASS criterion 3: example 3 reproduced (6 points, sharp bound)")


def test_criterion_4_zeta_consistency():
    rng = random.Random(2024)
    primes = (7, 11, 13)
    curves = []
    while len(curves) < 20:
        coeffs = [rng.randrange(-15, 16) for _ in range(7)] + [1]
        try:
            curve = HyperellipticCurve(coeffs)
        except Exception:
            continue
        if all(curve.has_good_reduction(p) for p in primes):
            curves.append(curve)
    checked = 0
    for curve in curves:
        for p in primes:
            fa = frobenius_action(curve, p, 6)
            coeffs = zeta_char_poly(fa)
            assert curve_count_fp(fa) == len(enumerate_fp_points(curve, p))
            for k in range(1, 7):
                assert abs(coeffs[k]) <= math.comb(6, k) * p ** (k / 2) + 1e-9
            checked += 1
    assert checked == 60
    print(f"\nPASS criterion 4: zeta consistency on {checked} (curve, prime) pairs")


def test_criterion_5_coleman_property_suite(ex1, ex2, ex3_monic):
    p, n = 7, 18
    floor = n - 3
    ring = PadicRing(p, n)
    rng = random.Random(555)
    curves = [ex1, ex2, ex3_monic[0]]
    fas = {id(c): shared_action(c, p, n) for c in curves}
    charts: dict = {}

    def disc_point(curve, pbar, offset):
        key = (id(curve), pbar)
        if key not in charts:
            base = lift_point(pbar, curve, ring)
            charts[key] = local_chart(base, curve, ring, 15)
        return charts[key].point_at(ring(p * offset))

    def rand_point(curve, non_weier=False):
        discs = [
            q
            for q in enumerate_fp_points(curve, p)
            if not q.at_infinity and (not non_weier or q.y != 0)
        ]
        return disc_point(curve, rng.choice(discs), rng.randrange(7))

    def assert_small(scalar):
        assert scalar.is_zero or scalar.val >= min(scalar.prec, floor) - 3

    pairs = 0
    # Fundamental theorem of calculus on exact forms d(x^k), per disc chart
    for _ in range(50):
        curve = rng.choice(curves)
        a = rand_point(curve, non_weier=True)
        chart = local_chart(a, curve, ring, 15)
        t1 = ring(p * rng.randrange(1, 7))
        k = rng.randrange(1, 4)
        xk = chart.x_series**k
        anti = formal_integrate(xk.derivative())
        diff = anti.evaluate(t1, -1) - (xk.evaluate(t1, 0) - xk.coeffs[0])
        assert_small(diff)
        pairs += 1
    # endpoint antisymmetry
    for _ in range(50):
        curve = rng.choice(curves)
        a, b = rand_point(curve), rand_point(curve)
        ab = coleman_integral(curve, fas[id(curve)], a, b)
        ba = coleman_integral(curve, fas[id(curve)], b, a)
        for x, y in zip(ab, ba):
            assert_small(x + y)
        pairs += 1
    # additivity over random midpoints
    for _ in range(34):
        curve = rng.choice(curves)
        a, b, c = rand_point(curve), rand_point(curve), rand_point(curve)
        fa = fas[id(curve)]
        ab = coleman_integral(curve, fa, a, b)
        bc = coleman_integral(curve, fa, b, c)
        ac = coleman_integral(curve, fa, a, c)
        for x, y, z in zip(ab, bc, ac):
            assert_small(x + y - z)
        pairs += 1
    # involution antisymmetry
    for _ in range(40):
        curve = rng.choice(curves)
        a, b = rand_point(curve), rand_point(curve)
        fa = fas[id(curve)]
        ab = coleman_integral(curve, fa, a, b)
        mirrored = coleman_integral(curve, fa, involution(a), involution(b))
        for x, y in zip(ab, mirrored):
            assert_small(x + y)
        pairs += 1
    # involution halving: from a Weierstrass point, the integral is half
    # the involution-path integral (checked through an independent midpoint)
    for _ in range(26):
        curve = rng.choice(curves)
        fa = fas[id(curve)]
        weier = [
            q for q in enumerate_fp_points(curve, p) if not q.at_infinity and q.y == 0
        ]
        w = lift_point(rng.choice(weier), curve, ring) if weier else INFINITY
        q = rand_point(curve, non_weier=True)
        direct = coleman_integral(curve, fa, w, q)
        mid = rand_point(curve, non_weier=True)
        leg1 = coleman_integral(curve, fa, involution(q), mid)
        leg2 = coleman_integral(curve, fa, mid, q)
        for d, x, y in zip(direct, leg1, leg2):
            assert_small(d + d - x - y)
        pairs += 1
    assert pairs >= 200
    print(f"\nPASS criterion 5: Coleman properties held on {pairs} point pairs")


def test_criterion_6_robustness_invariances(ex1, shared_actions):
    known = search_rational_points(ex1, 1000)
    base = run_chabauty(ex1, 7, known)
    base_set = {_as_tuple(c.rational) for c in base.rational}

    bigger_prime = run_chabauty(ex1, 11, known)
    assert bigger_prime.prime == 11
    assert {_as_tuple(c.rational) for c in bigger_prime.rational} == base_set

    doubled = run_chabauty(ex1, 7, known, precision=36)
    assert {_as_tuple(c.rational) for c in doubled.rational} == base_set

    unseeded = run_chabauty(ex1, 7, [])
    assert {_as_tuple(c.rational) for c in unseeded.rational} == base_set
    assert len(unseeded.two_torsion_extras) == len(base.two_torsion_extras)
    assert len(unseeded.higher_torsion_extras) == len(base.higher_torsion_extras)
    print("\nPASS criterion 6: prime/precision/seed invariance on example 1")


def test_criterion_7_precision_constants():
    checked = 0
    for p in range(7, 101):
        if any(p % q == 0 for q in (2, 3, 5, 7)) and p != 7:
            continue
        n, m = precisions(p)
        assert n == 2 * p + 4 and m == 2 * p + 1
        checked += 1
    assert checked >= 21
    print(f"\nPASS criterion 7: precision constants verified for {checked} primes")


def test_criterion_8_oracle_equivalence(ex1):
    p, n = 7, 18
    ring = PadicRing(p, n)
    rng = random.Random(808)

    # tiny integrals match a doubled-truncation recomputation
    for pbar in [Point(0, 4), Point(6, 2), Point(4, 0)]:
        base = lift_point(pbar, ex1, ring)
        chart = local_chart(base, ex1, ring, 15)
        a = chart.point_at(ring(7 * rng.randrange(1, 7)))
        b = chart.point_at(ring(7 * rng.randrange(1, 7)))
        lo = tiny_integral(ex1, a, b, ring, 15)
        hi = tiny_integral(ex1, a, b, ring, 30)
        for x, y in zip(lo, hi):
            d = x - y
            assert d.is_zero or d.val >= min(x.prec, y.prec)

    # root finder agrees with exhaustive search mod p^4
    done = 0
    while done < 20:
        deg = rng.choice([2, 3])
        coeffs = [rng.randrange(-30, 30) for _ in range(deg)] + [rng.randrange(1, 5)]
        f = [PadicScalar.from_int(c, p, 4) for c in coeffs]
        try:
            got = sorted(r.lift() % p**4 for r in padic_poly_roots(f))
        except Exception:
            continue
        oracle = []
        for x in range(p**4):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p**4
            if acc == 0:
                oracle.append(x)
        for r in got:
            assert r in oracle
        for r in oracle:
            dfr = sum(i * coeffs[i] * r ** (i - 1) for i in range(1, len(coeffs))) % p
            if dfr != 0:
                assert any(x % p == r % p for x in got)
        done += 1

    # Cantor orders divide the Jacobian order from the zeta polynomial
    fa = shared_action(ex1, 7, 18)
    group_order = jacobian_order_fp(fa)
    pts = [q for q in enumerate_fp_points(ex1, 7) if not q.at_infinity]
    for pbar in pts:
        d = MumfordDivisor.from_point(pbar, 7)
        assert group_order % divisor_order(d, ex1, 7, group_order) == 0
    print("\nPASS criterion 8: oracle equivalence at desk scale")
