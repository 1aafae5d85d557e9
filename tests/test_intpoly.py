"""Tests for the Z/m[x] kernel: products, monic division, gcds over F_p."""

import random

import pytest

from ckpoints.intpoly import (
    add,
    apply_columns,
    divmod_monic,
    evaluate,
    monic,
    mul,
    mul_rows,
    mul_rows_each,
    mul_trunc,
    pack_columns,
    scale,
    taylor_shift,
    xgcd,
)

PRIMES = (7, 11, 13, 17)


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _deg(a):
    return len(a) - 1


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, a, p):
    return sympy.Poly(list(reversed(a)) or [0], sympy.Symbol("x"), modulus=p)


def _sympy_coeffs(poly, p):
    # sympy prints GF(p) elements in the symmetric range; compare ascending in [0, p)
    return [c % p for c in reversed(poly.all_coeffs())] if not poly.is_zero else []


def _pairs(p, count=40, seed=0):
    rng = random.Random(1000 * p + seed)
    for _ in range(count):
        a = _random_poly(rng, p, rng.randrange(0, 9))
        b = _random_poly(rng, p, rng.randrange(0, 9))
        if rng.random() < 0.3:
            # plant a common factor so that nontrivial gcds occur
            c = _random_poly(rng, p, rng.randrange(1, 4))
            a, b = mul(a, c, p), mul(b, c, p)
        yield a, b


@pytest.mark.parametrize("p", PRIMES)
def test_mul_and_divmod_against_sympy(sympy, p):
    for a, b in _pairs(p):
        sa = _to_sympy(sympy, a, p)
        assert mul(a, b, p) == _sympy_coeffs(sa * _to_sympy(sympy, b, p), p)
        f = monic(b, p)
        q, r = divmod_monic(a, f, p)
        sq, sr = sa.div(_to_sympy(sympy, f, p))
        assert q == _sympy_coeffs(sq, p)
        assert r == _sympy_coeffs(sr, p)


@pytest.mark.parametrize("p", PRIMES)
def test_xgcd_against_sympy(sympy, p):
    for a, b in _pairs(p, seed=1):
        g, s, t = xgcd(a, b, p)
        ss, st, sg = _to_sympy(sympy, a, p).gcdex(_to_sympy(sympy, b, p))
        assert g == _sympy_coeffs(sg, p)
        if _deg(g) < min(_deg(a), _deg(b)):
            # the cofactors are unique under the minimal-degree bounds
            assert s == _sympy_coeffs(ss, p)
            assert t == _sympy_coeffs(st, p)


@pytest.mark.parametrize("p", PRIMES)
def test_xgcd_bezout_and_minimal_degrees(p):
    for a, b in _pairs(p, count=200, seed=2):
        g, s, t = xgcd(a, b, p)
        assert g and g[-1] == 1
        assert add(mul(s, a, p), mul(t, b, p), p) == g
        assert divmod_monic(a, g, p)[1] == [] and divmod_monic(b, g, p)[1] == []
        if _deg(g) < min(_deg(a), _deg(b)):
            assert _deg(s) < _deg(b) - _deg(g)
            assert _deg(t) < _deg(a) - _deg(g)


def test_xgcd_degenerate_inputs():
    assert xgcd([], [], 7) == ([], [1], [])
    assert xgcd([14, 7], [0, 7], 7)[0] == []
    assert xgcd([3], [], 7) == ([1], [5], [])
    assert xgcd([2, 1], [2, 1], 7)[0] == [2, 1]


def test_divmod_monic_reconstructs_over_z_mod_prime_power():
    rng = random.Random(3)
    m = 7**9
    for _ in range(50):
        a = [rng.randrange(m) for _ in range(rng.randrange(0, 15))]
        f = [rng.randrange(m) for _ in range(rng.randrange(0, 8))] + [1]
        q, r = divmod_monic(a, f, m)
        assert len(r) < len(f)
        assert add(mul(q, f, m), r, m) == add(a, [], m)


def test_scale_monic_evaluate_and_taylor_shift():
    assert scale([1, 2, 3], 5, 5) == []
    assert monic([2, 4, 7], 7) == [4, 1]
    assert monic([7, 14], 7) == []
    rng = random.Random(4)
    for _ in range(50):
        a = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 9))]
        r, x = rng.randrange(-20, 20), rng.randrange(-20, 20)
        exact = sum(c * (x + r) ** i for i, c in enumerate(a))
        assert evaluate(a, x + r, 10**9) == exact % 10**9
        assert sum(c * x**i for i, c in enumerate(taylor_shift(a, r))) == exact


# -- row products (Kronecker substitution) ------------------------------------


def _rows_oracle(a_rows, b_rows, m):
    """Row-by-row schoolbook convolution: row n = sum_{i+j=n} a_i * b_j."""
    if not a_rows or not b_rows:
        return []
    out = [[] for _ in range(len(a_rows) + len(b_rows) - 1)]
    for i, a in enumerate(a_rows):
        for j, b in enumerate(b_rows):
            out[i + j] = add(out[i + j], mul(a, b, m), m)
    return out


def _random_rows(rng, m, count, width, full=False):
    # full rows have every coefficient m - 1, the worst case for a slot
    rows = []
    for _ in range(count):
        length = width if full else rng.randrange(0, width + 1)
        rows.append([m - 1] * length if full else [rng.randrange(m) for _ in range(length)])
    return rows


@pytest.mark.parametrize("p", PRIMES)
def test_mul_rows_against_rowwise_schoolbook(p):
    rng = random.Random(50 + p)
    m = p ** (2 * p + 4)
    for _ in range(30):
        width = rng.randrange(1, 9)
        a = _random_rows(rng, m, rng.randrange(1, 40), width)
        b = _random_rows(rng, m, rng.randrange(1, 15), width)
        assert mul_rows(a, b, m) == _rows_oracle(a, b, m)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_rows_top_coefficients_fill_the_slots(p):
    # every slot then holds min(#rows) * width products of (m - 1)^2, the
    # exact bound the slot width is sized for
    m = p ** (2 * p + 4)
    rng = random.Random(p)
    for na, nb, width in ((1, 1, 1), (1, 9, 7), (25, 13, 7), (13, 25, 7), (40, 40, 8)):
        a = _random_rows(rng, m, na, width, full=True)
        b = _random_rows(rng, m, nb, width, full=True)
        assert mul_rows(a, b, m) == _rows_oracle(a, b, m)
    # (m - 1)^2 = 1 mod m
    assert mul_rows([[m - 1]], [[m - 1]], m) == [[1]]


@pytest.mark.parametrize("p", PRIMES)
def test_mul_trunc_against_schoolbook(p):
    # random and all-(m - 1) operands (every slot at its bound), truncated
    # below, at and above the length of the full product
    rng = random.Random(70 + p)
    m = p ** (2 * p + 4)
    for full in (False, True):
        for _ in range(20):
            a = [m - 1 if full else rng.randrange(m) for _ in range(rng.randrange(1, 30))]
            b = [m - 1 if full else rng.randrange(m) for _ in range(rng.randrange(1, 30))]
            whole = mul(a, b, m)
            for n in (1, len(a), len(a) + len(b) - 1, len(a) + len(b) + 3):
                want = (whole + [0] * n)[:n]
                assert mul_trunc(a, b, n, m) == want
    assert mul_trunc([], [1, 2], 3, m) == [0, 0, 0]


def test_mul_rows_empty_and_zero_rows():
    m = 7**10
    assert mul_rows([], [[1, 2]], m) == []
    assert mul_rows([[1, 2]], [], m) == []
    assert mul_rows([[]], [[]], m) == [[]]
    assert mul_rows([[], [3]], [[], [], [5, 1]], m) == [[], [], [], [15, 3]]
    assert mul_rows([[2, 3]], [[4, 5]], m) == [mul([2, 3], [4, 5], m)]


@pytest.mark.parametrize("p", (7, 11, 13))
def test_mul_rows_each_equals_separate_products(p):
    # the shape of the six final Frobenius products: one long level list times
    # short digit lists; every row full of m - 1, so a slot sized for a smaller
    # operand than the largest would overflow
    m = p ** (3 * p + 2)
    rng = random.Random(200 + p)
    for a_rows, a_width in ((3 * p * 10, 7), (p, 5), (1, 7)):
        a = _random_rows(rng, m, a_rows, a_width, full=True)
        bs = [_random_rows(rng, m, count, width, full=True)
              for count, width in ((1, 7), (p // 2, 3), (p + 1, 7), (2 * p, 6), (p - 1, 7), (3, 1))]
        assert list(mul_rows_each(a, bs, m)) == [mul_rows(a, b, m) for b in bs]
    mixed = [_random_rows(rng, m, p + 1, 7), [], [[]], _random_rows(rng, m, 2, 7, full=True)]
    a = _random_rows(rng, m, 40, 7)
    assert list(mul_rows_each(a, mixed, m)) == [mul_rows(a, b, m) for b in mixed]
    assert list(mul_rows_each([], mixed, m)) == [[] for _ in mixed]
    assert list(mul_rows_each(a, [], m)) == []


@pytest.mark.parametrize("p", (7, 11, 13, 17, 23))
def test_packed_columns_hold_the_largest_sums(p):
    # every entry m - 1 puts each slot at its largest sum, n (m - 1)^2; a
    # slot one byte narrower than pack_columns sizes it loses digits for
    # most m
    rng = random.Random(p)
    for nw in range(1, 121):
        m = p**nw
        for n_cols, n_rows in ((13, 13), (6, 13), (1, 1), (2, 7)):
            rows = [[m - 1] * n_cols for _ in range(n_rows)]
            size, packed = pack_columns([list(col) for col in zip(*rows)], m)
            for vec in ([m - 1] * n_cols, [rng.choice((0, m - 1, rng.randrange(m))) for _ in range(n_cols)]):
                want = [sum(a * b for a, b in zip(row, vec)) for row in rows]
                assert apply_columns(size, packed, vec, n_rows) == want
                assert apply_columns(size, packed, vec[:1], n_rows) == [row[0] * vec[0] for row in rows]
    with pytest.raises(ValueError):
        apply_columns(size, packed, [1] * (n_cols + 1), n_rows)


def test_add_pads_the_shorter_operand():
    assert add([1, 2, 3], [4], 5) == [0, 2, 3]
    assert add([4], [1, 2, 3], 5) == [0, 2, 3]
    assert add([1, 4], [4, 1], 5) == []
    assert add([], [], 5) == []
