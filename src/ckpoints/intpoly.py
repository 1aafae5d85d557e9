"""Polynomial arithmetic over Z/m on ascending coefficient lists.

a[i] is the coefficient of x^i; a trimmed list has no trailing zeros and the
zero polynomial is [].  Results come back trimmed with coefficients in
[0, m) whenever the inputs are reduced.  The Frobenius reduction runs these
routines on Z/p^N, Cantor's algorithm and the good-reduction test on F_p,
and the Z_p root finder evaluates with them, so the hot loops are plain
integer code with no per-call normalisation.

Products and fixed linear maps run on Kronecker substitution: values are
packed into byte slots of one Python int, each slot wide enough for the
exact sum it will hold, so a whole product (mul_trunc, mul_rows_each) or
a whole matrix-vector product (pack_columns, apply_columns: one sum of
big-int products over the packed columns) is a few C-level operations,
read back one slot per coefficient.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from itertools import zip_longest


def trim(a: list[int]) -> list[int]:
    """Drop trailing zeros in place; returns a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % m
    return trim(out)


def mul_rows(a_rows: list[list[int]], b_rows: list[list[int]], m: int) -> list[list[int]]:
    """Product of two polynomials in (Z/m[x])[z] given as lists of z-rows.

    Row n of the result is sum_{i+j=n} a_rows[i] * b_rows[j], trimmed and
    reduced mod m.  Every coefficient must already lie in [0, m).
    """
    return next(mul_rows_each(a_rows, [b_rows], m))


def pack(values: list[int], size: int) -> int:
    """Nonnegative values below 2^(8 size) as one int, value k in byte slot k
    (Kronecker substitution)."""
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in values), "little")


def pack_columns(cols: list[list[int]], m: int) -> tuple[int, list[int]]:
    """A matrix over Z/m given by its columns, entries in [0, m), as (size,
    packed): column j as one int, row i in byte slot i of the given size.
    A slot holds the exact sum of len(cols) products below m^2, so
    apply_columns reads the matrix-vector product off one big-int sum.
    """
    size = (2 * (m - 1).bit_length() + len(cols).bit_length() + 7) // 8
    return size, [pack(col, size) for col in cols]


def apply_columns(size: int, packed: list[int], vec: list[int], n_rows: int) -> list[int]:
    """The first n_rows entries of M vec, exact over Z (not reduced), for M
    packed by pack_columns and entries of vec in [0, m): one C-level sum of
    big-int products, then one shift and mask per slot."""
    if len(vec) > len(packed):
        raise ValueError(f"a vector of {len(vec)} entries for a matrix of {len(packed)} columns")
    total = sum(map(operator.mul, vec, packed))
    bits = 8 * size
    mask = (1 << bits) - 1
    return [total >> k & mask for k in range(0, n_rows * bits, bits)]


def mul_trunc(a: list[int], b: list[int], n: int, m: int) -> list[int]:
    """The first n coefficients of a * b mod m, as one big-int product.

    Entries must lie in [0, m).  Each list is packed into one int, in slots
    wide enough for the exact sum of min(len(a), len(b)) products below
    m^2; only the first n slots of the product are read back.  Shorter
    results are padded with zeros.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    size = (2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    slots = len(a) + len(b) - 1
    buf = (pack(a, size) * pack(b, size)).to_bytes(slots * size, "little")
    out = [int.from_bytes(buf[k : k + size], "little") % m for k in range(0, min(n, slots) * size, size)]
    return out + [0] * (n - len(out))


def mul_rows_each(a_rows: list[list[int]], b_operands: list[list[list[int]]], m: int) -> Iterator[list[list[int]]]:
    """Yield mul_rows(a_rows, b_rows, m) for each b_rows in b_operands, a_rows packed once.

    Each row list is packed into one Python int (Kronecker substitution:
    every row gets 2w - 1 byte-aligned slots, w the longest row of all the
    operands, each wide enough for the exact sum of the largest min(#rows) * w
    products below m^2), so each product is a single big-int multiplication.
    """
    if not a_rows:
        yield from ([] for _ in b_operands)
        return
    width = max(max(map(len, a_rows)), *(len(row) for b_rows in b_operands for row in b_rows), 1)
    stride = 2 * width - 1
    terms = max((min(len(a_rows), len(b_rows)) for b_rows in b_operands), default=0) * width
    size = (2 * (m - 1).bit_length() + terms.bit_length() + 1 + 7) // 8

    def pack(rows):
        chunks = []
        for row in rows:
            chunks.extend(c.to_bytes(size, "little") for c in row)
            chunks.append(bytes(size * (stride - len(row))))
        return int.from_bytes(b"".join(chunks), "little")

    packed_a = pack(a_rows)
    for b_rows in b_operands:
        if not b_rows:
            yield []
            continue
        n_out = len(a_rows) + len(b_rows) - 1
        buf = (packed_a * pack(b_rows)).to_bytes(n_out * stride * size, "little")
        slots = [int.from_bytes(buf[k : k + size], "little") % m for k in range(0, len(buf), size)]
        yield [trim(slots[n * stride : (n + 1) * stride]) for n in range(n_out)]


def add(a: list[int], b: list[int], m: int) -> list[int]:
    return trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def scale(a: list[int], c: int, m: int) -> list[int]:
    return trim([x * c % m for x in a])


def divmod_monic(a: list[int], f: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by f; f must be trimmed with f[-1] == 1."""
    df = len(f) - 1
    r = list(a)
    if len(r) - 1 < df:
        return [], trim(r)
    q = [0] * (len(r) - df)
    for i in range(len(r) - 1, df - 1, -1):
        c = r[i] % m
        if c:
            q[i - df] = c
            for k in range(df + 1):
                r[i - df + k] = (r[i - df + k] - c * f[k]) % m
    return trim(q), trim(r[:df])


def monic(a: list[int], p: int) -> list[int]:
    """a reduced mod the prime p and divided by its leading coefficient."""
    a = trim([c % p for c in a])
    if not a:
        return a
    return scale(a, pow(a[-1], -1, p), p)


def xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Monic gcd g over F_p and cofactors s, t with s*a + t*b = g.

    s and t are the extended-Euclid cofactors, of minimal degree
    (deg s < deg b - deg g, deg t < deg a - deg g); g is [] when a and b
    both vanish mod p.
    """
    r0, r1 = trim([c % p for c in a]), trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q, r = divmod_monic(r0, scale(r1, inv, p), p)
        neg_q = scale(q, -inv, p)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul(neg_q, s1, p), p)
        t0, t1 = t1, add(t0, mul(neg_q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return scale(r0, inv, p), scale(s0, inv, p), scale(t0, inv, p)


def evaluate(a: list[int], x: int, m: int) -> int:
    """a(x) mod m by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def taylor_shift(a: list[int], r: int) -> list[int]:
    """Coefficients of a(x + r), exact over Z."""
    out = list(a)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += r * out[j + 1]
    return out
