"""Tests for capped-precision p-adic scalars, series, Hensel lifting and root finding."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckpoints.errors import (
    CkError,
    NotASquare,
    NotSimpleRoot,
    PrecisionExhausted,
    SingularSystem,
    ZeroSeed,
)
from ckpoints.padic import (
    LinearSystem,
    PadicPowerSeries,
    PadicRing,
    PadicScalar,
    _determinant,
    _newton_root,
    formal_integrate,
    hensel_simple_root,
    hensel_sqrt,
    int_valuation,
    padic_poly_roots,
    solve_linear_system,
    truncated_discriminant,
)

from conftest import horner

Z7 = PadicRing(7, 18)


def test_int_roundtrip():
    a = Z7(123456)
    assert a.lift() == 123456
    b = Z7(-1)
    assert b.lift() == 7**18 - 1


def test_fraction_lift():
    a = Z7(Fraction(-1, 8))
    assert (a.lift() * 8 + 1) % 7**18 == 0


def test_negative_valuation():
    a = Z7(Fraction(3, 7))
    assert a.val == -1
    assert (a * Z7(7)).lift() == 3


def test_ring_axioms_randomized():
    rng = random.Random(201)
    for _ in range(300):
        a, b, c = (Z7(rng.randrange(-(7**9), 7**9)) for _ in range(3))
        lhs = (a + b) + c
        rhs = a + (b + c)
        assert lhs.congruent(rhs) is True
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.congruent(rhs) is True
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.congruent(rhs) is True


def test_precision_rules():
    a = Z7(3).cap(10)
    b = Z7(4)
    assert (a + b).prec == 10
    c = Z7(49)  # valuation 2
    assert (a * c).prec == 12  # valuation-adjusted min


def test_zero_to_precision_three_valued():
    small = Z7(7**17)
    z = small - small  # exact cancellation: zero to precision 18
    assert z.is_zero
    assert z.congruent(Z7.zero()) is True
    assert z.congruent(Z7.zero(), required=25) is None
    assert Z7(1).congruent(Z7(2)) is False


def test_division_by_zero_to_precision_raises():
    z = Z7(0)
    with pytest.raises(PrecisionExhausted):
        Z7(1) / z


# -- hensel_sqrt ------------------------------------------------------------


def test_hensel_sqrt_identity():
    assert hensel_sqrt(Z7(1), 1).lift() == 1


def test_hensel_sqrt_of_two_matches_brute_force():
    # oracle: exhaustive search over residues mod 7^4
    target = None
    for x in range(7**4):
        if x % 7 == 3 and (x * x - 2) % 7**4 == 0:
            target = x
            break
    r = hensel_sqrt(PadicScalar.from_int(2, 7, 4), 3)
    assert r.lift() == target


def test_hensel_sqrt_square_relation_randomized():
    rng = random.Random(77)
    for _ in range(1000):
        p = rng.choice([7, 11, 13])
        ring = PadicRing(p, 12)
        a = ring(rng.randrange(1, p**6))
        if a.val != 0:
            continue
        u = a.lift() % p
        seed = None
        for y in range(1, p):
            if y * y % p == u:
                seed = y
                break
        if seed is None:
            continue
        r = hensel_sqrt(a, seed)
        assert (r * r).congruent(a) is True
        assert r.lift() % p == seed


def test_hensel_sqrt_errors():
    with pytest.raises(NotASquare):
        hensel_sqrt(Z7(3), 3)  # 9 != 3 mod 7
    with pytest.raises(ZeroSeed):
        hensel_sqrt(Z7(1), 7)


@pytest.mark.parametrize("a", [7, 49 * 2, 0])
def test_hensel_sqrt_non_unit_raises_a_typed_error(a):
    # a report shows a CkError as a precision failure, a ValueError as a crash
    with pytest.raises(PrecisionExhausted) as info:
        hensel_sqrt(Z7(a), 1)
    assert isinstance(info.value, CkError) and not isinstance(info.value, ValueError)
    with pytest.raises(PrecisionExhausted):
        Z7.series([a, 1], 3).sqrt(Z7(1))


# -- hensel_simple_root -----------------------------------------------------


def test_hensel_simple_root_linear():
    f = [-5, 1]  # x - 5
    assert hensel_simple_root(f, 5, 7, 18).lift() == 5


def test_hensel_simple_root_matches_sqrt():
    f = [-2, 0, 1]  # x^2 - 2
    r1 = hensel_simple_root(f, 3, 7, 18)
    r2 = hensel_sqrt(Z7(2), 3)
    assert r1.congruent(r2) is True


def test_hensel_simple_root_rejects_multiple():
    f = [0, 0, 1]  # x^2
    with pytest.raises(NotSimpleRoot):
        hensel_simple_root(f, 0, 7, 18)


def test_hensel_simple_root_randomized_true_root():
    rng = random.Random(13)
    for _ in range(1000):
        p = rng.choice([7, 11])
        ring = PadicRing(p, 10)
        r0 = rng.randrange(p)
        other = [rng.randrange(-50, 50) for _ in range(3)]
        # f = (x - r0 - p*k) * quadratic ensures a known simple root
        k = rng.randrange(-10, 10)
        root = r0 + p * k
        f_coeffs = [-root, 1]
        quad = [other[0] * p + 1, other[1], other[2] * p + 1]
        prod = [0] * 4
        for i, a in enumerate(f_coeffs):
            for j, b in enumerate(quad):
                prod[i + j] += a * b
        df_at = sum(i * prod[i] * root ** (i - 1) for i in range(1, 4))
        if df_at % p == 0:
            continue
        got = hensel_simple_root(prod, r0, p, 10)
        val = horner([ring(c) for c in prod], got)
        assert val.is_zero
        assert got.lift() % p == r0 % p


# -- the Newton lift -----------------------------------------------------------


def _times_linear(coeffs, root):
    """Coefficients of (x - root) times the polynomial with these coefficients."""
    out = [0] + list(coeffs)
    for i in range(len(coeffs)):
        out[i] -= root * coeffs[i]
    return out


def _value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([7, 11, 13]),
    n=st.integers(1, 4),
    root=st.integers(-(10**6), 10**6),
    cofactor=st.lists(st.integers(-500, 500), min_size=1, max_size=4),
)
def test_newton_root_simple_matches_brute_force(p, n, root, cofactor):
    # f = (x - root) * g with g(root) a unit: a planted simple root mod p
    assume(_value(cofactor, root) % p)
    f = _times_linear(cofactor, root)
    m = p**n
    seed = root % p
    # oracle: every residue mod p^n above the seed at which f vanishes
    brute = [x for x in range(seed, m, p) if _value(f, x) % m == 0]
    assert brute == [_newton_root(f, seed, p, n)] == [root % m]


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([7, 11, 13]),
    d=st.integers(1, 3),
    extra=st.integers(1, 8),
    root=st.integers(-(10**6), 10**6),
    unit=st.integers(1, 10**4),
    start=st.integers(0, 10**4),
    cofactor=st.lists(st.integers(-500, 500), min_size=1, max_size=3),
)
def test_newton_root_near_cluster_right_mod_p_n_minus_d(p, d, extra, root, unit, start, cofactor):
    # f = (x - root)(x - other) * g with v(root - other) = d, so
    # d = v(f'(root)) > 0 and the lift is right only mod p^(n - d)
    assume(unit % p and _value(cofactor, root) % p)
    other = root + p**d * unit
    f = _times_linear(_times_linear(cofactor, root), other)
    n = 2 * d + extra
    # v(x - root) > d makes v(f(x)) > 2d
    x = root + p ** (d + 1) * start
    got = _newton_root(f, x, p, n)
    assert got == root % p ** (n - d)


def test_newton_root_refuses_a_double_root_mod_p():
    # f'(0) = 0: Hensel's condition cannot hold for x^2 - 7 at 0
    with pytest.raises(PrecisionExhausted):
        _newton_root([-7, 0, 1], 0, 7, 6)
    # v(f(7)) = 1 <= 2 v(f'(7)) = 2 for x^2 - 14
    with pytest.raises(PrecisionExhausted):
        _newton_root([-14, 0, 1], 7, 7, 6)


# -- formal integration ------------------------------------------------------


def test_formal_integrate_zero():
    s = PadicPowerSeries.zero(7, 18, 5)
    out = formal_integrate(s)
    assert all(c.is_zero for c in out.coeffs)


def test_formal_integrate_termwise_rule():
    M = 9
    s = Z7.series([1] * (M + 1), M)
    out = formal_integrate(s)
    assert out.coeffs[0].is_zero
    for n in range(M + 1):
        expect = Z7(Fraction(1, n + 1)).cap(out.coeffs[n + 1].prec)
        assert out.coeffs[n + 1].congruent(expect) is True


def test_formal_integrate_precision_loss_at_p_minus_1():
    M = 10
    s = Z7.series([1] * (M + 1), M)
    out = formal_integrate(s)
    # index n = p-1 = 6 divides by 7: exactly one digit lost
    assert out.coeffs[7].prec == 17
    assert out.coeffs[6].prec == 18


def test_integrate_then_differentiate_roundtrip():
    rng = random.Random(5)
    M = 12
    s = Z7.series([rng.randrange(-1000, 1000) for _ in range(M + 1)], M)
    back = formal_integrate(s).derivative()
    for n in range(M):
        assert back.coeffs[n].congruent(s.coeffs[n]) is True


# -- series utilities --------------------------------------------------------


def test_series_inverse_and_sqrt():
    rng = random.Random(9)
    M = 12
    u = Z7.series([1] + [rng.randrange(-30, 30) for _ in range(M)], M)
    inv = u.inverse()
    prod = u * inv
    assert prod.coeffs[0].congruent(Z7(1)) is True
    for c in prod.coeffs[1:]:
        assert c.is_zero
    sq = u * u
    root = sq.sqrt(Z7(1))
    for a, b in zip(root.coeffs, u.coeffs):
        assert a.congruent(b) is True


def newton_inverse(self):
    """Oracle: the Newton-doubling series inverse the recurrence replaced."""
    c0 = self.coeffs[0]
    if c0.is_zero or c0.val != 0:
        raise PrecisionExhausted("series inverse requires a unit constant term")
    one = PadicScalar.one(self.p, c0.prec)
    inv0 = one / c0
    z = PadicPowerSeries.constant(inv0, self.order)
    known = 1
    two = PadicScalar.from_int(2, self.p, c0.prec)
    two_s = PadicPowerSeries.constant(two, self.order)
    while known <= self.order:
        z = z * (two_s - self * z)
        known *= 2
    return z


def newton_sqrt(self, seed):
    """Oracle: the Newton-doubling series square root the recurrence replaced."""
    if seed.is_zero or seed.val != 0:
        raise PrecisionExhausted("series sqrt requires a unit constant term")
    half = PadicScalar.from_fraction(Fraction(1, 2), self.p, seed.prec)
    y = PadicPowerSeries.constant(seed, self.order)
    known = 1
    while known <= self.order:
        y = (y + self * newton_inverse(y)).scale(half)  # Newton: y <- (y + u/y)/2
        known *= 2
    return y


def _fraction_val(q, p):
    if q == 0:
        return float("inf")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def _rational(c):
    return Fraction(c.unit) * Fraction(c.p) ** c.val


@st.composite
def unit_series(draw):
    """A series with a unit constant term that is a square mod p.

    Every other coefficient has a random precision in [0, 12] and a random
    valuation in [-1, prec]; valuation = prec is a zero O(p^prec).  Returns
    (series, seed residue).
    """
    p = draw(st.sampled_from([3, 5, 7, 11]))
    order = draw(st.integers(0, 8))
    prec0 = draw(st.integers(1, 12))
    seed = draw(st.integers(1, p - 1))
    unit0 = (seed * seed + p * draw(st.integers(0, p**prec0))) % p**prec0
    coeffs = [PadicScalar(p, 0, unit0, prec0)]
    for _ in range(order):
        prec = draw(st.integers(0, 12))
        val = draw(st.integers(-1, prec))
        unit = 0
        if val < prec:
            unit = draw(st.integers(1, p ** (prec - val) - 1).filter(lambda u: u % p))
        coeffs.append(PadicScalar(p, val, unit, prec))
    return PadicPowerSeries(coeffs, order, p), seed


def _draw_lift(data, c):
    # a rational that agrees with c to its precision
    return _rational(c) + Fraction(c.p) ** c.prec * data.draw(st.integers(-(c.p**3), c.p**3))


def _int_sqrt_mod(a, seed, p, k):
    """The square root of the integer a congruent to seed, mod p^k, digit by digit."""
    r = seed
    for i in range(1, k):
        r = next(r + d * p**i for d in range(p) if ((r + d * p**i) ** 2 - a) % p ** (i + 1) == 0)
    return r


def _assert_claims_hold(got, exact):
    for n, c in enumerate(got.coeffs):
        assert _fraction_val(exact[n] - _rational(c), c.p) >= c.prec, (n, c, exact[n])


@settings(max_examples=200, deadline=None)
@given(unit_series(), st.data())
def test_series_inverse_claims_only_true_digits(drawn, data):
    s, _ = drawn
    inv = s.inverse()
    assert inv.order == s.order
    for _ in range(2):
        lift = [_draw_lift(data, c) for c in s.coeffs]
        exact = [1 / lift[0]]
        for n in range(1, s.order + 1):
            exact.append(-exact[0] * sum(lift[i] * exact[n - i] for i in range(1, n + 1)))
        _assert_claims_hold(inv, exact)


@settings(max_examples=200, deadline=None)
@given(unit_series(), st.data())
def test_series_sqrt_claims_only_true_digits(drawn, data):
    s, seed = drawn
    p = s.p
    # the seed only picks the branch: any unit with the right residue
    root = s.sqrt(PadicScalar(p, 0, seed + p * data.draw(st.integers(0, p**3)), 5))
    assert root.order == s.order
    assert root.coeffs[0].lift() % p == seed
    for _ in range(2):
        lift = [_draw_lift(data, c) for c in s.coeffs]
        # y_0 to 60 digits: past every claim, also after coefficients of
        # valuation -1 have taken digits off its error
        exact = [Fraction(_int_sqrt_mod(int(lift[0]), seed, p, 60))]
        for n in range(1, s.order + 1):
            cross = sum(exact[i] * exact[n - i] for i in range(1, n))
            exact.append((lift[n] - cross) / (2 * exact[0]))
        _assert_claims_hold(root, exact)


@settings(max_examples=200, deadline=None)
@given(unit_series(), st.data())
def test_series_inverse_sqrt_claims_only_true_digits(drawn, data):
    # the charts take 1/y from the square root's Newton iteration instead of
    # a second inversion: it must claim only digits true on every lift
    s, seed = drawn
    p = s.p
    root, inv = s.sqrt_and_inverse(PadicScalar(p, 0, seed + p * data.draw(st.integers(0, p**3)), 5))
    assert [str(c) for c in root.coeffs] == [str(c) for c in s.sqrt(PadicScalar(p, 0, seed, 5)).coeffs]
    assert inv.order == s.order and inv.precs == root.precs
    for _ in range(2):
        lift = [_draw_lift(data, c) for c in s.coeffs]
        y = [Fraction(_int_sqrt_mod(int(lift[0]), seed, p, 60))]
        for n in range(1, s.order + 1):
            cross = sum(y[i] * y[n - i] for i in range(1, n))
            y.append((lift[n] - cross) / (2 * y[0]))
        exact = [1 / y[0]]
        for n in range(1, s.order + 1):
            exact.append(-exact[0] * sum(y[i] * exact[n - i] for i in range(1, n + 1)))
        _assert_claims_hold(inv, exact)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11]),
    prec=st.integers(1, 12),
    seed=st.integers(1, 10),
    ints=st.lists(st.integers(1, 10**12), min_size=1, max_size=10),
)
def test_series_inverse_and_sqrt_match_newton_oracles(p, prec, seed, ints):
    # inputs known to one precision with no zero coefficient: there the
    # Newton doublings lose nothing to the zero skip in the series product
    assume(seed % p)
    ring = PadicRing(p, prec)
    rest = [c % (p**prec - 1) + 1 for c in ints[1:]]  # nonzero mod p^prec
    s = ring.series([seed * seed + p * ints[0]] + rest, len(rest))
    root0 = hensel_sqrt(s.coeffs[0], seed)
    for new, old in ((s.inverse(), newton_inverse(s)), (s.sqrt(root0), newton_sqrt(s, root0))):
        for a, b in zip(new.coeffs, old.coeffs):
            assert a.congruent(b) is True
            if not b.is_zero:
                assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)


def test_series_sqrt_seed_right_only_mod_p():
    # 3^2 = 2 (mod 7): the seed picks the branch, hensel_sqrt finds the root
    s = Z7.series([2, 1, 3, 0, 5], 4)
    root = s.sqrt(Z7(3))
    assert root.coeffs[0].prec == 18 and root.coeffs[0].lift() % 7 == 3
    for a, b in zip((root * root).coeffs, s.coeffs):
        assert a.congruent(b) is True
    other = s.sqrt(Z7(4))
    assert other.coeffs[0].lift() % 7 == 4
    for a, b in zip(other.coeffs, (-root).coeffs):
        assert a.congruent(b) is True
    same = s.sqrt(Z7(3 + 7 * 5))
    assert [str(c) for c in same.coeffs] == [str(c) for c in root.coeffs]


def test_series_sqrt_non_square_seed_raises():
    with pytest.raises(NotASquare):
        Z7.series([2, 1, 3], 4).sqrt(Z7(1))  # 1 != 2 (mod 7)
    with pytest.raises(NotASquare):
        Z7.series([3, 1], 3).sqrt(Z7(2))  # 3 is not a square mod 7
    # the unit check on the seed comes first
    with pytest.raises(PrecisionExhausted):
        Z7.series([3, 1], 3).sqrt(Z7(7))
    with pytest.raises(PrecisionExhausted):
        Z7.series([2, 1], 3).sqrt(Z7(0))
    with pytest.raises(PrecisionExhausted):
        Z7.series([7, 1], 3).sqrt(Z7(1))  # a_0 is not a unit


# -- the flat series against exact arithmetic on two lifts ----------------------


@st.composite
def scalars(draw, p, low=-2, precs=(-1, 12)):
    """A PadicScalar with a random precision in precs and a random valuation
    in [low, prec]; valuation = prec is a zero O(p^prec)."""
    prec = draw(st.integers(*precs))
    val = draw(st.integers(min(low, prec), prec))
    unit = 0
    if val < prec:
        unit = draw(st.integers(1, p ** (prec - val) - 1).filter(lambda u: u % p))
    return PadicScalar(p, val, unit, prec)


@st.composite
def any_series(draw, p, max_order=8):
    """A series whose every coefficient is drawn by scalars: random precision
    (negative ones too), zeros O(p^k) and valuations down to -2."""
    order = draw(st.integers(0, max_order))
    return PadicPowerSeries([draw(scalars(p)) for _ in range(order + 1)], order, p)


_PRIMES = st.sampled_from([3, 5, 7, 11])


def _lifts(data, s):
    return [_draw_lift(data, c) for c in s.coeffs]


def _exact_product(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


@settings(max_examples=200, deadline=None)
@given(_PRIMES.flatmap(lambda p: st.tuples(scalars(p), scalars(p))), st.data())
def test_scalar_arithmetic_claims_only_true_digits(pair, data):
    a, b = pair
    results = [(a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y), (a * b, lambda x, y: x * y)]
    if not b.is_zero:  # then no lift of b is 0
        results.append((a / b, lambda x, y: x / y))
    for _ in range(2):
        x, y = _draw_lift(data, a), _draw_lift(data, b)
        for got, op in results:
            assert _fraction_val(op(x, y) - _rational(got), a.p) >= got.prec, (a, b, got)


@settings(max_examples=200, deadline=None)
@given(_PRIMES.flatmap(lambda p: st.tuples(any_series(p), any_series(p))), st.data())
def test_flat_product_sum_and_scale_claim_only_true_digits(pair, data):
    a, b = pair
    c = data.draw(scalars(a.p))
    prod, total, diff, scaled = a * b, a + b, a - b, a.scale(c)
    n = min(a.order, b.order) + 1
    assert prod.order == total.order == diff.order == n - 1
    for _ in range(2):
        la, lb, lc = _lifts(data, a), _lifts(data, b), _draw_lift(data, c)
        _assert_claims_hold(prod, _exact_product(la, lb, n))
        _assert_claims_hold(total, [x + y for x, y in zip(la, lb)])
        _assert_claims_hold(diff, [x - y for x, y in zip(la, lb)])
        _assert_claims_hold(scaled, [x * lc for x in la])


@settings(max_examples=200, deadline=None)
@given(_PRIMES.flatmap(lambda p: st.tuples(any_series(p), st.lists(scalars(p), min_size=1, max_size=4))), st.data())
def test_flat_compose_poly_claims_only_true_digits(drawn, data):
    s, poly = drawn
    got = s.compose_poly(poly)
    assert got.order == s.order
    for _ in range(2):
        ls, lpoly = _lifts(data, s), [_draw_lift(data, c) for c in poly]
        acc = [Fraction(0)] * (s.order + 1)
        for c in reversed(lpoly):
            acc = _exact_product(acc, ls, s.order + 1)
            acc[0] += c
        _assert_claims_hold(got, acc)


@settings(max_examples=200, deadline=None)
@given(_PRIMES.flatmap(lambda p: any_series(p)), st.data())
def test_flat_derivative_and_integral_claim_only_true_digits(s, data):
    deriv = s.derivative()
    anti = formal_integrate(s) if s.order >= 1 else None
    for _ in range(2):
        ls = _lifts(data, s)
        _assert_claims_hold(deriv, [n * c for n, c in enumerate(ls)][1:] or [Fraction(0)])
        if anti is not None:
            _assert_claims_hold(anti, [Fraction(0)] + [c / (n + 1) for n, c in enumerate(ls)])


@settings(max_examples=200, deadline=None)
@given(_PRIMES.flatmap(lambda p: st.tuples(any_series(p), scalars(p, low=1, precs=(1, 10)))), st.data())
def test_flat_evaluate_claims_only_true_digits(drawn, data):
    # the claim covers the truncated series at every lift of t; the tail is 0 here
    s, t = drawn
    tail = data.draw(st.integers(-2, 2))
    got = s.evaluate(t, tail)
    for _ in range(2):
        ls, lt = _lifts(data, s), _draw_lift(data, t)
        exact = sum(c * lt**n for n, c in enumerate(ls))
        assert _fraction_val(exact - _rational(got), s.p) >= got.prec, (got, exact)


@settings(max_examples=100, deadline=None)
@given(
    p=_PRIMES,
    prec=st.integers(1, 12),
    ints=st.lists(st.integers(1, 10**9), min_size=2, max_size=18),
    t_int=st.integers(1, 10**6),
)
def test_flat_operations_equal_the_scalar_ones_at_one_precision(p, prec, ints, t_int):
    # inputs known to one precision with no zero coefficient: there the
    # per-coefficient series (the oracle) claims nothing it lacks, and the
    # flat rows must give the same (val, unit, prec) everywhere
    from scalar_series import ScalarSeries, scalar_integrate

    ring = PadicRing(p, prec)
    cs = [c % (p**prec - 1) + 1 for c in ints]
    half = len(cs) // 2
    a, b = ring.series(cs[:half], half - 1), ring.series(cs[half:], len(cs) - half - 1)
    old_a, old_b = (ScalarSeries(s.coeffs, s.order, p) for s in (a, b))
    t = ring(p * t_int)

    def triples(s):
        return [(c.val, c.unit, c.prec) for c in s.coeffs]

    assert triples(a * b) == triples(old_a * old_b)
    assert triples(a.derivative()) == triples(old_a.derivative())
    got, want = b.evaluate(t, 1), old_b.evaluate(t, 1)
    assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec)
    if len(cs) - half >= 2:
        assert triples(formal_integrate(b)) == triples(scalar_integrate(old_b))


# -- padic_poly_roots ---------------------------------------------------------


def brute_roots_mod(coeffs, p, k):
    """Oracle: all residues mod p^k where the integer polynomial vanishes."""
    m = p**k
    out = []
    for x in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % m
        if acc == 0:
            out.append(x)
    return out


def test_roots_trivial_product():
    f = [Z7(c) for c in [0, -1, 1]]  # x(x-1) = x^2 - x
    roots = sorted(r.lift() % 7 for r in padic_poly_roots(f))
    assert roots == [0, 1]


def test_roots_x2_minus_2_match_brute_force():
    oracle = brute_roots_mod([-2, 0, 1], 7, 4)
    f = [PadicScalar.from_int(c, 7, 4) for c in [-2, 0, 1]]
    roots = sorted(r.lift() % 7**4 for r in padic_poly_roots(f))
    assert roots == sorted(oracle)


def test_roots_x2_plus_3():
    # -3 = 4 = 2^2 mod 7 is a square, so two roots exist
    oracle = brute_roots_mod([3, 0, 1], 7, 4)
    f = [PadicScalar.from_int(c, 7, 4) for c in [3, 0, 1]]
    roots = sorted(r.lift() % 7**4 for r in padic_poly_roots(f))
    assert len(roots) == 2
    assert roots == sorted(oracle)


def test_roots_agree_with_exhaustive_search_randomized():
    rng = random.Random(31)
    done = 0
    while done < 40:
        p = rng.choice([7, 11])
        deg = rng.randrange(2, 6)
        coeffs = [rng.randrange(-40, 40) for _ in range(deg)] + [rng.randrange(1, 10)]
        # skip inputs whose root clusters exceed the precision budget; the
        # contract guarantees simple roots upstream
        f = [PadicScalar.from_int(c, p, 4) for c in coeffs]
        try:
            got = sorted(r.lift() % p**4 for r in padic_poly_roots(f))
        except PrecisionExhausted:
            continue
        oracle = brute_roots_mod(coeffs, p, 4)
        # oracle includes residues that merely vanish mod p^4 without being
        # genuine Z_p roots of a nearby factor; every certified root must be
        # among them, and every genuine simple root mod p must be found
        for r in got:
            assert r in oracle
        for r in oracle:
            fp_der = sum(i * coeffs[i] * r ** (i - 1) for i in range(1, len(coeffs))) % p
            if fp_der != 0:
                assert any(x % p == r % p for x in got)
        done += 1


def test_roots_cluster_separation():
    # roots 7 and 14 are congruent mod 7: forces the zoom-in path
    f = [Z7(c) for c in [98, -21, 1]]  # (x-7)(x-14)
    roots = sorted(r.lift_centered() for r in padic_poly_roots(f))
    assert roots == [7, 14]


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([7, 11]),
    d=st.integers(1, 3),
    extra=st.integers(1, 6),
    root=st.integers(-(10**6), 10**6),
    unit=st.integers(1, 10**4),
    cofactor=st.lists(st.integers(-500, 500), min_size=1, max_size=3),
)
def test_roots_reach_the_hensel_limit(p, d, extra, root, unit, cofactor):
    # f = (x - root)(x - other) * g with v(root - other) = d: a planted
    # cluster.  Every root comes back known to prec - v(f'(x)) digits, the
    # Hensel limit, so no Newton polish could add any.
    other = root + p**d * unit
    assume(unit % p and any(c % p for c in cofactor))
    assume(_value(cofactor, root) % p and _value(cofactor, other) % p)
    f = _times_linear(_times_linear(cofactor, root), other)
    prec = 2 * d + extra
    try:
        roots = padic_poly_roots([PadicScalar.from_int(c, p, prec) for c in f])
    except PrecisionExhausted:
        # g may carry a cluster of its own that prec digits cannot separate
        assume(False)
    deriv = [i * f[i] for i in range(1, len(f))]
    for r in roots:
        assert r.prec >= prec - int_valuation(_value(deriv, r.lift()), p)
    for planted in (root, other):
        assert sum((r.lift() - planted) % p**r.prec == 0 for r in roots) == 1


# -- truncated_discriminant ---------------------------------------------------


def test_discriminant_double_root():
    s = Z7.series([0, 0, 1], 5)  # t^2
    assert truncated_discriminant(s, 5).is_zero


def test_discriminant_simple():
    s = Z7.series([0, -1, 1], 5)  # t(t-1)
    assert truncated_discriminant(s, 5).congruent(Z7(1)) is True


def test_discriminant_quadratic_formula():
    s = Z7.series([-2, 0, 1], 5)  # t^2 - 2, disc = b^2 - 4ac = 8
    assert truncated_discriminant(s, 5).congruent(Z7(8)) is True


# -- linear algebra against exact rational arithmetic ---------------------------


def _exact_eliminate(rows):
    """Fraction Gaussian elimination: (determinant, upper-triangular rows)."""
    rows = [[Fraction(c) for c in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0), rows
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det, rows


def _exact_solve(matrix, rhs):
    n = len(matrix)
    _, a = _exact_eliminate([list(row) + [b] for row, b in zip(matrix, rhs)])
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][k] * x[k] for k in range(i + 1, n))) / a[i][i]
    return x


def _padic_matrix(rows):
    return [[PadicScalar.from_fraction(Fraction(c), 7, 18) for c in r] for r in rows]


def _agrees(got, exact, min_prec):
    want = PadicScalar.from_fraction(exact, 7, 18)
    return got.prec >= min_prec and got.congruent(want) is True


def test_determinant_and_solve_match_fractions():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(2, 7)
        # entries divisible by 7 make pivots of positive valuation likely
        m = [[rng.randrange(-60, 61) * rng.choice((1, 1, 7)) for _ in range(n)] for _ in range(n)]
        b = [rng.randrange(-60, 61) for _ in range(n)]
        det, _ = _exact_eliminate(m)
        assert _agrees(_determinant(_padic_matrix(m), 7), det, 12)
        if det == 0:
            continue
        x = solve_linear_system(_padic_matrix(m), _padic_matrix([b])[0], 7)
        for got, exact in zip(x, _exact_solve(m, b)):
            assert _agrees(got, exact, 8)


def test_determinant_sign_of_valuation_swap():
    # the first column's minimum-valuation entry is in row 2, not row 0
    m = [[7, 1, 2], [14, 3, 1], [1, 5, 4]]
    det, _ = _exact_eliminate(m)
    assert det == 7 * (12 - 5) - 1 * (56 - 1) + 2 * (70 - 3)
    got = _determinant(_padic_matrix(m), 7)
    assert _agrees(got, det, 17)
    assert not _agrees(-got, det, 17)
    x = solve_linear_system(_padic_matrix(m), _padic_matrix([[1, 0, 0]])[0], 7)
    for got_i, exact in zip(x, _exact_solve(m, [1, 0, 0])):
        assert _agrees(got_i, exact, 16)


def test_singular_system_detected():
    rng = random.Random(11)
    for _ in range(10):
        r0 = [rng.randrange(-30, 31) for _ in range(4)]
        r1 = [rng.randrange(-30, 31) for _ in range(4)]
        r2 = [rng.randrange(-30, 31) for _ in range(4)]
        m = [r0, r1, [a + 2 * b for a, b in zip(r0, r1)], r2]
        assert _exact_eliminate(m)[0] == 0
        assert _determinant(_padic_matrix(m), 7).is_zero
        with pytest.raises(SingularSystem):
            solve_linear_system(_padic_matrix(m), _padic_matrix([[1, 2, 3, 4]])[0], 7)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_linear_system_claims_only_true_digits(data):
    # entries with random precision and valuation, zeros O(p^k) among them:
    # an entry that is zero to precision below a pivot still carries its
    # uncertainty into the row it is eliminated from
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(2, 3))
    entry = scalars(p, low=0, precs=(1, 8))
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [data.draw(entry) for _ in range(n)]
    try:
        x = solve_linear_system(matrix, rhs, p)
    except (SingularSystem, PrecisionExhausted):
        assume(False)
    for _ in range(2):
        lifted = [[_draw_lift(data, c) for c in row] for row in matrix]
        if _exact_eliminate(lifted)[0] == 0:
            continue
        exact = _exact_solve(lifted, [_draw_lift(data, c) for c in rhs])
        for got, want in zip(x, exact):
            assert _fraction_val(want - _rational(got), p) >= got.prec, (got, want)


def test_linear_system_replays_one_elimination():
    # solving against one eliminated matrix equals solving the augmented system
    rng = random.Random(3)
    m = [[rng.randrange(-60, 61) * rng.choice((1, 7)) for _ in range(4)] for _ in range(4)]
    system = LinearSystem(_padic_matrix(m))
    for _ in range(5):
        b = _padic_matrix([[rng.randrange(-60, 61) for _ in range(4)]])[0]
        once = [(c.val, c.unit, c.prec) for c in system.solve(b)]
        assert once == [(c.val, c.unit, c.prec) for c in solve_linear_system(_padic_matrix(m), b, 7)]
