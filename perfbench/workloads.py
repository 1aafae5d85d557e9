"""Seeded curve batches for the benchmark and the exact oracle that checks them.

Every curve is an integer translate F(x) -> F(x + a) of one of the three
worked examples in fixtures/examples.txt.  A translate is isomorphic to its
fixture over Q (and over Z_p at every prime of good reduction, since the
discriminant is translation invariant), so its rational points are the
fixture's points with x shifted by -a, its torsion extras keep their count
and order, and #C(F_p) is unchanged.  Seed 0 gives a = 0 everywhere, i.e.
the literal fixtures; any other seed draws a from SHIFT_RANGE.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

SHIFT_RANGE = 6


@dataclass(frozen=True)
class Fixture:
    """One worked example with its exactly known answer on the input model."""

    name: str
    coeffs: tuple[Fraction, ...]
    # affine rational points (x, y); infinity is always a rational point too
    points: tuple[tuple[Fraction, Fraction], ...]
    # x-coordinates of rational x whose y lies in a quadratic field, with the
    # torsion order of [Q - inf]; the pair Q, -Q is a higher-torsion extra
    # over Q_p exactly when F(x) is a square in Q_p
    torsion_x: tuple[tuple[Fraction, int], ...] = ()


def _fr(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


FIXTURES = (
    Fixture(
        "example1",
        _fr(-103079215104, 59055800320, -13656653824, 1613758464, -101220352, 3134464, -37024, 1),
        ((Fraction(32), Fraction(0)),),
    ),
    Fixture(
        "example2",
        _fr("-1/4194304", "-1/65536", "-27/65536", "-53/8192", "-243/4096", "-51/256", "5/64", 1),
        (),
        ((Fraction(-1, 8), 18),),
    ),
    Fixture(
        "example3",
        _fr(1, 4, 6, 4, -7, -16, 0, 8),
        (
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(-1, 2), Fraction(0)),
        ),
    ),
)


@dataclass(frozen=True)
class Workload:
    name: str
    prime: int | None  # None: the `ck run` default (first good prime >= 7)
    height_bound: int
    jobs: int
    fixtures: tuple[int, ...]  # indices into FIXTURES, one per curve

    @property
    def start_prime(self) -> int:
        return 7 if self.prime is None else self.prime


WORKLOADS = {
    w.name: w
    for w in (
        # what a user runs first: `ck run` defaults; the search is ~half the work
        Workload("fixtures-p7", None, 1000, 1, (0, 1, 2)),
        # prime escalation regime: Frobenius dominates, the search is negligible
        Workload("fixtures-p11", 11, 100, 1, (0, 1, 2)),
        # the only workload through the pipeline's process pool
        Workload("batch8-jobs2", 7, 100, 2, (0, 1, 2, 0, 1, 2, 0, 1)),
    )
}


@dataclass(frozen=True)
class Curve:
    fixture: Fixture
    shift: int
    coeffs: tuple[Fraction, ...]

    def line(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


def translate(coeffs, a: int) -> tuple[Fraction, ...]:
    """Coefficients of F(x + a), ascending, for F given by ascending coeffs."""
    n = len(coeffs)
    return tuple(
        sum((coeffs[j] * math.comb(j, k) * a ** (j - k) for j in range(k, n)), Fraction(0))
        for k in range(n)
    )


def make_batch(workload: Workload, seed: int) -> list[Curve]:
    rng = random.Random(f"{workload.name}/{seed}")
    batch = []
    for i in workload.fixtures:
        a = 0 if seed == 0 else rng.randint(-SHIFT_RANGE, SHIFT_RANGE)
        fx = FIXTURES[i]
        batch.append(Curve(fx, a, translate(fx.coeffs, a)))
    return batch


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    points: frozenset  # {"inf"} | {(Fraction x, Fraction y)} on the input model
    fp_count: int
    two_torsion: int
    higher_torsion: tuple[tuple[tuple[int, ...], int], ...]  # (x min poly, order) each


def _mod_p(c: Fraction, p: int) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def _eval_mod(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _is_padic_square(v: Fraction, p: int) -> bool:
    if v == 0:
        raise ValueError("zero has no square class")
    val = 0
    num, den = v.numerator, v.denominator
    while num % p == 0:
        num //= p
        val += 1
    while den % p == 0:
        den //= p
        val -= 1
    return val % 2 == 0 and pow(num * den % p, (p - 1) // 2, p) == 1


def _x_min_poly(x: Fraction) -> tuple[int, ...]:
    # d*x - n, primitive, positive leading coefficient: the library's convention
    return (-x.numerator, x.denominator)


def expected(curve: Curve, p: int) -> Expected:
    """The exact answer for a translate at prime p, derived from its fixture.

    #C(F_p) and the number of Weierstrass points over Q_p (F has good
    reduction, so they lift one-to-one from F_p by Hensel) are brute-forced
    over F_p; everything else is the fixture's answer moved by the shift.
    """
    a = curve.shift
    fx = curve.fixture
    points = frozenset({"inf"} | {(x - a, y) for x, y in fx.points})
    fbar = [_mod_p(c, p) for c in curve.coeffs]
    fp_count = 1
    roots = 0
    for x in range(p):
        v = _eval_mod(fbar, x, p)
        if v == 0:
            roots += 1
            fp_count += 1
        elif pow(v, (p - 1) // 2, p) == 1:
            fp_count += 2
    rational_roots = sum(1 for _, y in fx.points if y == 0)
    higher = []
    for x0, order in fx.torsion_x:
        f_x0 = sum((c * x0**j for j, c in enumerate(fx.coeffs)), Fraction(0))
        if _is_padic_square(f_x0, p):
            higher += [(_x_min_poly(x0 - a), order)] * 2
    return Expected(points, fp_count, roots - rational_roots, tuple(higher))


def _parse_point(text: str):
    if text == "inf":
        return "inf"
    x, y = text.strip("()").split(", ")
    return (Fraction(x), Fraction(y))


def _parse_poly(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        c, var, power = term.partition("x")
        c = c.rstrip("*")
        deg = 0 if not var else (int(power[1:]) if power else 1)
        coeffs[deg] = int(c) if c else 1
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def check_record(rec, curve: Curve, start_prime: int) -> list[str]:
    """Mismatches between one pipeline record and the exact answer.

    Malformed output counts as a mismatch, never as an exception.
    """
    if rec.status != "ok":
        return [f"status {rec.status!r}"]
    if rec.prime < start_prime:
        return [f"prime {rec.prime} below the start prime {start_prime}"]
    exp = expected(curve, rec.prime)
    problems = []
    try:
        got_points = [_parse_point(s) for s in rec.rational_points_input_model]
        higher = sorted(
            ((_parse_poly(e["x_min_poly"]), e["order"]) for e in rec.higher_torsion_extras), key=repr
        )
        two_orders = [e["order"] for e in rec.two_torsion_extras]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed record: {type(exc).__name__}: {exc}"]
    if len(got_points) != len(set(got_points)) or set(got_points) != exp.points:
        problems.append(f"rational points {sorted(map(str, got_points))}")
    if rec.fp_count != exp.fp_count:
        problems.append(f"#C(F_p) {rec.fp_count} != {exp.fp_count}")
    if rec.stoll_sharp != (len(exp.points) == exp.fp_count):
        problems.append(f"sharpness flag {rec.stoll_sharp}")
    if len(two_orders) != exp.two_torsion or any(o != 2 for o in two_orders):
        problems.append(f"two-torsion extras {two_orders}, expected {exp.two_torsion}")
    if higher != sorted(exp.higher_torsion, key=repr):
        problems.append(f"higher-torsion extras {higher}, expected {list(exp.higher_torsion)}")
    return problems
