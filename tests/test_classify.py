"""Tests for rational reconstruction, integer relations, Cantor, torsion."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import ckpoints.classify
from ckpoints.classify import (
    MumfordDivisor,
    algebraic_dependency,
    cantor_compose_reduce,
    cantor_scalar_mul,
    classify_point,
    divisor_order,
    rational_reconstruct,
    torsion_order,
)
from ckpoints.chabauty import run_chabauty
from ckpoints.cohomology import frobenius_action, jacobian_order_fp
from ckpoints.curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    lift_point,
    parse_curve_line,
    scale_to_monic,
)
from ckpoints.errors import LatticeReductionStalled, NotSimpleRoot, NotTorsionConsistent
from ckpoints.padic import PadicRing, hensel_sqrt

from conftest import f_horner, shared_action

Z7 = PadicRing(7, 18)
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "examples.txt"


# -- rational reconstruction ---------------------------------------------------


def test_reconstruct_paper_values():
    assert rational_reconstruct(Z7(32)) == 32
    assert rational_reconstruct(Z7(Fraction(-1, 8))) == Fraction(-1, 8)
    assert rational_reconstruct(Z7(0)) == 0


def test_reconstruct_roundtrip_randomized():
    rng = random.Random(7)
    bound = 10**6
    for _ in range(1000):
        n = rng.randrange(-bound, bound)
        d = rng.randrange(1, bound)
        if d % 7 == 0:
            continue
        q = Fraction(n, d)
        assert rational_reconstruct(Z7(q)) == q


def test_reconstruct_negative_valuation():
    q = Fraction(3, 49)
    assert rational_reconstruct(Z7(q)) == q


def test_reconstruct_output_is_always_valid():
    # random residues may or may not admit a bounded reconstruction, but any
    # answer must satisfy the congruence and the height bound (and is then
    # unique); absence is reported as None rather than a wrong value
    import math

    rng = random.Random(99)
    m = 7**18
    bound = math.isqrt(m // 2)
    nones = 0
    for _ in range(200):
        a = Z7(rng.randrange(m))
        r = rational_reconstruct(a)
        if r is None:
            nones += 1
            continue
        assert abs(r.numerator) <= bound and r.denominator <= bound
        assert (r.numerator - a.lift() * r.denominator) % m == 0
    assert nones > 0


# -- two-torsion test ------------------------------------------------------------


def test_is_two_torsion_extra(ex1):
    # the two-torsion verdict needs y = 0 and a point that is not rational
    fa = shared_action(ex1, 7, 18)
    w = lift_point(Point(4, 0), ex1, Z7)
    assert classify_point(w, ex1, fa).verdict == "rational"  # Weierstrass, but rational
    nonw = lift_point(Point(0, 4), ex1, Z7)
    assert classify_point(nonw, ex1, fa).verdict == "higher-torsion"
    assert classify_point(INFINITY, ex1, fa).verdict == "rational"


def test_two_torsion_from_split_quadratic_factor():
    # F = (x^2 - 2) * quintic: sqrt(2) exists in Q_7, so the Weierstrass
    # points (sqrt(2), 0) are Q_7-rational but not Q-rational
    quintic = [1, 1, 0, 0, 0, 1]  # x^5 + x + 1
    prod = [0] * 8
    for i, a in enumerate([-2, 0, 1]):
        for j, b in enumerate(quintic):
            prod[i + j] += a * b
    curve = HyperellipticCurve(prod)
    x = hensel_sqrt(Z7(2), 3)
    assert rational_reconstruct(x) is None
    assert algebraic_dependency(x) == [-2, 0, 1]
    # 7 divides disc(F); at 17, where 2 is a square too, the Weierstrass
    # point (sqrt(2), 0) is classified as a two-torsion extra
    ring = PadicRing(17, 12)
    w = Point(hensel_sqrt(ring(2), 6), ring.zero())
    c = classify_point(w, curve, frobenius_action(curve, 17, 12))
    assert (c.verdict, c.x_min_poly, c.order) == ("two-torsion", [-2, 0, 1], 2)


# -- algebraic dependency ---------------------------------------------------------


def test_dependency_paper_values():
    assert algebraic_dependency(Z7(Fraction(-1, 8))) == [1, 8]
    assert algebraic_dependency(Z7(5)) == [-5, 1]


def test_dependency_y_coordinate_high_precision():
    # y^2 = -3/2^22: minimal polynomial 2^22 x^2 + 3, recovered at a
    # precision whose lattice bound comfortably exceeds the coefficients
    ring = PadicRing(7, 40)
    val = ring(Fraction(-3, 2**22))
    res = val.lift() % 7
    seed = next(s for s in range(1, 7) if s * s % 7 == res)
    y = hensel_sqrt(val, seed)
    assert algebraic_dependency(y) == [3, 0, 4194304]


def test_lll_round_limit_raises(monkeypatch):
    # the degree-2 lattice of sqrt(2) needs swaps, so one round cannot finish
    x = hensel_sqrt(Z7(2), 3)
    monkeypatch.setattr(ckpoints.classify, "_LLL_MAX_ROUNDS", 1)
    with pytest.raises(LatticeReductionStalled):
        algebraic_dependency(x)
    monkeypatch.undo()
    assert algebraic_dependency(x) == [-2, 0, 1]


def _lll_recomputing(basis, delta=Fraction(3, 4)):
    """The LLL that recomputed Gram-Schmidt after every size reduction (oracle)."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)

    def gramschmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar_sq = [Fraction(0)] * n
        bstar = [[Fraction(0)] * len(b[0]) for _ in range(n)]
        for i in range(n):
            bstar[i] = [Fraction(x) for x in b[i]]
            for j in range(i):
                if bstar_sq[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], bstar[j])) / bstar_sq[j]
                bstar[i] = [x - mu[i][j] * y for x, y in zip(bstar[i], bstar[j])]
            bstar_sq[i] = sum(x * x for x in bstar[i])
        return mu, bstar_sq

    mu, bstar_sq = gramschmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = int(round(mu[k][j]))
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                mu, bstar_sq = gramschmidt()
        if bstar_sq[k] >= (delta - mu[k][k - 1] ** 2) * bstar_sq[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bstar_sq = gramschmidt()
            k = max(k - 1, 1)
    b.sort(key=lambda row: sum(x * x for x in row))
    return b


def _det(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j in range(3))


@pytest.mark.parametrize("dim", [2, 3])
def test_lll_matches_recomputing_oracle_on_random_lattices(dim):
    rng = random.Random(dim)
    done = 0
    while done < 150:
        scale = rng.choice([10, 1000, 10**9])
        basis = [[rng.randrange(-scale, scale) for _ in range(dim)] for _ in range(dim)]
        if _det(basis) == 0:
            continue
        assert ckpoints.classify._lll(basis) == _lll_recomputing(basis)
        done += 1
    # relation lattices shaped as in algebraic_dependency
    for _ in range(50):
        m = rng.choice([7, 11, 13]) ** rng.randrange(4, 30)
        a = rng.randrange(m)
        basis = [[m] + [0] * (dim - 1)]
        for i in range(1, dim):
            basis.append([(-pow(a, i, m)) % m] + [int(i == j) for j in range(1, dim)])
        assert ckpoints.classify._lll(basis) == _lll_recomputing(basis)


def test_lll_matches_recomputing_oracle_on_fixture_runs(monkeypatch):
    # every lattice that classification reduces on the three fixtures at
    # p = 7 and 11, the primes of the report goldens
    seen = []
    real = ckpoints.classify._lll

    def recording(basis):
        seen.append([list(row) for row in basis])
        return real(basis)

    monkeypatch.setattr(ckpoints.classify, "_lll", recording)
    for line in FIXTURE.read_text().splitlines():
        if line.startswith("#"):
            continue
        curve, _ = scale_to_monic(parse_curve_line(line))
        for p in (7, 11):
            run_chabauty(curve, p)
    assert len(seen) == 6
    for basis in seen:
        assert real(basis) == _lll_recomputing(basis)


def test_dependency_degree_one_agrees_with_reconstruction():
    rng = random.Random(3)
    for _ in range(50):
        q = Fraction(rng.randrange(-500, 500), rng.randrange(1, 500))
        if q.denominator % 7 == 0:
            continue
        got = algebraic_dependency(Z7(q))
        assert got is not None and len(got) == 2
        assert Fraction(-got[0], got[1]) == rational_reconstruct(Z7(q)) == q


def test_dependency_verification_property():
    rng = random.Random(12)
    for _ in range(20):
        a = Z7(rng.randrange(7**18))
        g = algebraic_dependency(a)
        if g is None:
            continue
        acc = 0
        x = a.lift()
        m = 7 ** (18 - 3)
        for c in reversed(g):
            acc = (acc * x + c) % m
        assert acc == 0


# -- Cantor group law -------------------------------------------------------------


def test_cantor_identity_and_inverse(ex1):
    d = MumfordDivisor.from_point(Point(0, 4), 7)
    ident = MumfordDivisor.identity(7)
    assert cantor_compose_reduce(d, ident, ex1, 7) == d
    assert cantor_compose_reduce(d, d.neg(), ex1, 7).is_identity


def test_cantor_weierstrass_order_two(ex1):
    d = MumfordDivisor.from_point(Point(4, 0), 7)
    assert cantor_compose_reduce(d, d, ex1, 7).is_identity
    fa = frobenius_action(ex1, 7, 8)
    assert divisor_order(d, ex1, 7, jacobian_order_fp(fa)) == 2


def test_cantor_associativity_randomized(ex1):
    rng = random.Random(5)
    pts = [q for q in enumerate_fp_points(ex1, 7) if not q.at_infinity]
    for _ in range(15):
        a, b, c = (MumfordDivisor.from_point(rng.choice(pts), 7) for _ in range(3))
        lhs = cantor_compose_reduce(cantor_compose_reduce(a, b, ex1, 7), c, ex1, 7)
        rhs = cantor_compose_reduce(a, cantor_compose_reduce(b, c, ex1, 7), ex1, 7)
        assert lhs == rhs


def test_cantor_inconsistent_input_raises_typed_error(ex3_monic):
    # neither class satisfies v^2 = F mod u on the example-3 monic model, so
    # the reduction step meets a nonzero remainder; the check must survive -O
    curve, _ = ex3_monic
    d1 = MumfordDivisor((0, 10, 1), (1, 1), 11)
    d2 = MumfordDivisor((6, 6, 1), (2, 3), 11)
    with pytest.raises(NotTorsionConsistent):
        cantor_compose_reduce(d1, d2, curve, 11)


def test_cantor_rejects_invalid_class_against_identity(ex3_monic):
    # composing an invalid class with the identity used to return it
    # unchanged; the entry check refuses it before any arithmetic
    curve, _ = ex3_monic
    bad = MumfordDivisor((0, 10, 1), (1, 1), 11)
    for d1, d2 in ((bad, MumfordDivisor.identity(11)), (MumfordDivisor.identity(11), bad)):
        with pytest.raises(NotTorsionConsistent):
            cantor_compose_reduce(d1, d2, curve, 11)


def test_cantor_rejects_non_mumford_shapes(ex1):
    pt = next(q for q in enumerate_fp_points(ex1, 7) if not q.at_infinity and q.y % 7)
    good = MumfordDivisor.from_point(pt, 7)
    assert not cantor_compose_reduce(good, MumfordDivisor.identity(7), ex1, 7).is_identity
    non_monic = MumfordDivisor(tuple(2 * c % 7 for c in good.u), good.v, 7)
    v_too_long = MumfordDivisor(good.u, good.v + (1,), 7)
    zero_u = MumfordDivisor((7,), (), 7)
    for bad in (non_monic, v_too_long, zero_u):
        with pytest.raises(NotTorsionConsistent):
            cantor_compose_reduce(good, bad, ex1, 7)


def test_cantor_order_kills_class_and_no_proper_divisor(ex1):
    fa = frobenius_action(ex1, 7, 8)
    group_order = jacobian_order_fp(fa)
    rng = random.Random(8)
    pts = [q for q in enumerate_fp_points(ex1, 7) if not q.at_infinity]
    for _ in range(5):
        d = MumfordDivisor.from_point(rng.choice(pts), 7)
        n = divisor_order(d, ex1, 7, group_order)
        assert group_order % n == 0
        assert cantor_scalar_mul(n, d, ex1, 7).is_identity
        for q in {2, 3, 5, 7, 11, 13}:
            if n % q == 0:
                assert not cantor_scalar_mul(n // q, d, ex1, 7).is_identity


# -- torsion order -----------------------------------------------------------------


def test_torsion_order_example2(ex2):
    fa = frobenius_action(ex2, 7, 18)
    ring = PadicRing(7, 18)
    x = ring(Fraction(-1, 8))
    f_at = f_horner(ex2, ring, x)
    seed = next(s for s in range(1, 7) if s * s % 7 == f_at.lift() % 7)
    y = hensel_sqrt(f_at, seed)
    q = Point(x, y)
    assert torsion_order(q, ex2, 7, jacobian_order_fp(fa)) == 18


def test_torsion_order_weierstrass_is_two(ex1):
    fa = frobenius_action(ex1, 7, 8)
    w = lift_point(Point(4, 0), ex1, Z7)
    assert torsion_order(w, ex1, 7, jacobian_order_fp(fa)) == 2


# -- classification ----------------------------------------------------------------


def test_classify_rational_weierstrass_precedence(ex1):
    fa = frobenius_action(ex1, 7, 18)
    w = lift_point(Point(4, 0), ex1, Z7)
    c = classify_point(w, ex1, fa)
    assert c.verdict == "rational"
    assert c.rational == Point(Fraction(32), Fraction(0))


def test_classify_higher_torsion(ex2):
    fa = frobenius_action(ex2, 7, 18)
    ring = PadicRing(7, 18)
    x = ring(Fraction(-1, 8))
    f_at = f_horner(ex2, ring, x)
    seed = next(s for s in range(1, 7) if s * s % 7 == f_at.lift() % 7)
    q = Point(x, hensel_sqrt(f_at, seed))
    c = classify_point(q, ex2, fa)
    assert c.verdict == "higher-torsion"
    assert c.x_min_poly == [1, 8]
    assert c.order == 18
    assert not c.order_p_ambiguous


def test_refine_falls_back_only_on_expected_lift_failures(ex2, monkeypatch):
    ring = PadicRing(7, 18)
    x = ring(Fraction(-1, 8))
    f_at = f_horner(ex2, ring, x)
    seed = next(s for s in range(1, 7) if s * s % 7 == f_at.lift() % 7)
    q = Point(x, hensel_sqrt(f_at, seed))

    def raising(exc):
        def lift(*args):
            raise exc

        return lift

    monkeypatch.setattr(ckpoints.classify, "hensel_simple_root", raising(NotSimpleRoot("no")))
    assert ckpoints.classify._refine_from_min_poly(q, [1, 8], ex2, ring) is q
    monkeypatch.setattr(ckpoints.classify, "hensel_simple_root", raising(TypeError("bug")))
    with pytest.raises(TypeError):
        ckpoints.classify._refine_from_min_poly(q, [1, 8], ex2, ring)
    # integer input cannot be non-integral, so a ValueError is a bug too
    monkeypatch.setattr(ckpoints.classify, "hensel_simple_root", raising(ValueError("bug")))
    with pytest.raises(ValueError):
        ckpoints.classify._refine_from_min_poly(q, [1, 8], ex2, ring)


def test_group_order_kills_random_composed_divisors(ex1):
    # #J(F_p) = P(1) annihilates classes built by composing random point
    # classes, not just the single-point generators
    fa = frobenius_action(ex1, 7, 8)
    n = jacobian_order_fp(fa)
    rng = random.Random(41)
    pts = [q for q in enumerate_fp_points(ex1, 7) if not q.at_infinity]
    for _ in range(8):
        d = MumfordDivisor.identity(7)
        for _ in range(rng.randrange(2, 5)):
            d = cantor_compose_reduce(
                d, MumfordDivisor.from_point(rng.choice(pts), 7), ex1, 7
            )
        assert cantor_scalar_mul(n, d, ex1, 7).is_identity
