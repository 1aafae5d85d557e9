"""Shared fixtures: the three worked example curves used across the suite."""

from fractions import Fraction

import pytest

from ckpoints import chabauty
from ckpoints.cohomology import frobenius_action
from ckpoints.curve import HyperellipticCurve, scale_to_monic
from ckpoints.padic import PadicScalar

# y^2 = x^7 - 37024 x^6 + ... - 103079215104; two rational points
EX1_COEFFS = [
    -103079215104,
    59055800320,
    -13656653824,
    1613758464,
    -101220352,
    3134464,
    -37024,
    1,
]

# monic model with 2-power denominators; one rational point plus an
# order-18 torsion pair over Q(sqrt(-3))
EX2_COEFFS = [
    Fraction(-1, 4194304),
    Fraction(-1, 65536),
    Fraction(-27, 65536),
    Fraction(-53, 8192),
    Fraction(-243, 4096),
    Fraction(-51, 256),
    Fraction(5, 64),
    Fraction(1),
]

# non-monic input model y^2 = 8x^7 - 16x^5 - 7x^4 + 4x^3 + 6x^2 + 4x + 1;
# six rational points, sharp for the mod-p point count bound
EX3_RAW_COEFFS = [1, 4, 6, 4, -7, -16, 0, 8]


_ACTIONS: dict = {}


def shared_action(curve, p, n):
    """frobenius_action(curve, p, n), computed once per session."""
    key = (tuple(curve.coeffs), p, n)
    if key not in _ACTIONS:
        _ACTIONS[key] = frobenius_action(curve, p, n)
    return _ACTIONS[key]


@pytest.fixture
def shared_actions(monkeypatch):
    """run_chabauty takes its Frobenius actions from the session memo."""
    monkeypatch.setattr(chabauty, "frobenius_action", shared_action)


@pytest.fixture(scope="session")
def ex1():
    return HyperellipticCurve(EX1_COEFFS)


@pytest.fixture(scope="session")
def ex2():
    return HyperellipticCurve(EX2_COEFFS)


@pytest.fixture(scope="session")
def ex3_monic():
    curve, point_map = scale_to_monic(EX3_RAW_COEFFS)
    return curve, point_map


def correction_polys(corr):
    """A flat Correction as {w: coefficient list}, one PadicScalar per coefficient."""
    p, top = corr.p, corr.prec + corr.e
    return {
        w: [PadicScalar.from_int(r, p, top).shift(-corr.e) for r in row]
        for w, row in zip(corr.ws, corr.rows)
    }


def horner(coeffs, x):
    """Horner's rule over PadicScalar coefficients (ascending) at a PadicScalar x."""
    acc = PadicScalar.zero(x.p, coeffs[-1].prec + max(x.val, 0) * len(coeffs))
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def f_horner(curve, ring, x):
    """F(x) by Horner's rule, with the coefficients of F taken in ring."""
    return horner([ring(c) for c in curve.coeffs], x)
