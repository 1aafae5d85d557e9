"""Per-disc search for the common zeros of the three integral functionals.

For a rank-0 Jacobian the holomorphic Coleman integrals from infinity vanish
on every rational point, so the rational points are among the common zeros
of three power series per residue disc.  Discs are processed up to the
hyperelliptic involution: each disc gets a local expansion of the three
functionals about its Hensel-lifted center (a formal antiderivative plus the
Coleman integral from infinity to the center as offset), a Strassmann bound
for each series after the rescaling t = p*s (read off the coefficient
valuations), Z_p root extraction from the series of least bound, and a
vanishing check of the other two series at every root.  A bound of 0 proves
the disc empty without root finding.  If no series in some disc gives
separable roots, the whole run restarts at the next prime of good
reduction.  Coleman's bound #C(F_p) + 2g - 2 on the number of common zeros
cross-checks the result.  Known rational points do not enter the search;
they only cross-check its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import ClassifiedPoint, classify_point
from .cohomology import FrobeniusAction, curve_count_fp, frobenius_action
from .coleman import integral_functional, series_order
from .curve import (
    HyperellipticCurve,
    LocalChart,
    Point,
    fp_disc_representatives,
    good_reduction_prime,
    involution,
    is_prime,
    lift_point,
    local_chart,
)
from .errors import AllSeriesDegenerate, InternalInvariant, NonTorsionExtra, PrecisionExhausted, ZeroBoundExceeded
from .padic import (
    PadicPowerSeries,
    PadicRing,
    PadicScalar,
    ilog,
    padic_poly_roots,
    truncated_discriminant,  # not called here; perfbench/spans.py wraps this name
)


def precisions(p: int, n: int | None = None) -> tuple[int, int]:
    """Working precisions for the prime p: p-adic n (2p+4 by default), t-adic M.

    M is coleman.series_order(p, n): the digits the truncated series still
    determines at a root then reach the vanishing floor n - 3.  At the
    default n, M = 2p+1.  The infinity disc shifts a pullback by t^4, which
    needs M >= 3; M starts at n - 4, so n >= 7.
    """
    if p < 7:
        raise ValueError("the driver requires a prime p >= 7")
    if n is None:
        n = 2 * p + 4
    if n < 7:
        raise ValueError(f"the p-adic precision must be at least 7, got {n}")
    return n, series_order(p, n)


@dataclass
class DiscSeries:
    """The three holomorphic integral series on one residue disc."""

    disc: Point
    base: Point
    chart: LocalChart
    series: list[PadicPowerSeries]
    offsets: list[PadicScalar]
    # every disc is set up from its lifted center; perfbench/spans.py is the
    # only reader of this attribute
    seeded = False

    def series_value(self, t: PadicScalar, i: int) -> PadicScalar:
        p = self.chart.ring.p
        tail = -ilog(p, self.series[i].order + 1)
        return self.series[i].evaluate(t, tail)


@dataclass
class DiscLog:
    """Per-disc outcome for reporting: found points or 'no common roots'."""

    disc: Point
    mirrored: bool
    points: list[Point]
    chosen_series: int | None


@dataclass
class ChabautyOutput:
    """Classified common-zero set: rational points and torsion extras."""

    rational: list[ClassifiedPoint]
    two_torsion_extras: list[ClassifiedPoint]
    higher_torsion_extras: list[ClassifiedPoint]
    prime: int
    precision: int
    t_precision: int
    escalations: int
    disc_logs: list[DiscLog]
    fp_count: int

    @property
    def rational_points(self) -> list[Point]:
        return [c.rational for c in self.rational]


def disc_series(
    curve: HyperellipticCurve,
    fa: FrobeniusAction,
    disc: Point,
) -> DiscSeries:
    """Expand the three functionals on the residue disc of an F_p point.

    The disc center is Hensel-lifted and charted at t = 0, once.  Each
    series is the formal antiderivative of a pulled-back holomorphic
    differential plus its offset, the Coleman integral from infinity to
    the center, whose tiny part the same antiderivatives give; so every
    disc is set up the same way whatever rational points are known.  The
    truncation order follows the precision of fa (see precisions).
    """
    ring = PadicRing(fa.p, fa.precision)
    order = precisions(fa.p, fa.precision)[1]
    base = lift_point(disc, curve, ring)
    chart = local_chart(base, curve, ring, order)
    antis = chart.antiderivatives(curve.genus)
    offsets = integral_functional(curve, fa, base, order, antis)
    series = [anti + PadicPowerSeries.constant(offset, anti.order) for anti, offset in zip(antis, offsets)]
    return DiscSeries(disc, base, chart, series, offsets)


def _strassmann_bound(series: PadicPowerSeries, order: int, p: int) -> int | None:
    """Strassmann bound of series(p*s) on Z_p, or None if precision cannot fix it.

    The bound is the last index n <= order attaining m = min v(c_n) + n over
    the coefficients that are nonzero to precision: series(p*s) has at most
    that many zeros in Z_p, counted with multiplicity.  It is certified only
    when no zero-to-precision coefficient and no term past the truncation can
    reach m; the tail has valuation at least (order + 1) - ilog_p(order + 1),
    the bound DiscSeries.series_value assumes.
    """
    coeffs = series.coeffs[: order + 1]
    known = [(c.val + n, n) for n, c in enumerate(coeffs) if not c.is_zero]
    if not known:
        return None
    m = min(known)[0]
    if (order + 1) - ilog(p, order + 1) <= m:
        return None
    if any(c.is_zero and c.prec + n <= m for n, c in enumerate(coeffs)):
        return None
    return max(n for w, n in known if w == m)


def common_zeros(ds: DiscSeries) -> tuple[list[Point], int]:
    """Points of the disc where all three series vanish, plus the series used.

    Each series gets its Strassmann bound after t = p*s, and the series are
    tried by (bound, index).  A least bound of 0 proves that the disc holds
    no common zero.  Otherwise the Z_p roots of the truncation are found,
    at most the bound many; a root cluster that cannot be separated at the
    working precision moves on to the next series, and AllSeriesDegenerate
    is raised when none is left.  The roots are checked against the other
    two series at the precision floor N - 3.  Each point's coordinates carry
    only the digits that the truncated series determines.
    """
    ring = ds.chart.ring
    p = ring.p
    order = min(s.order for s in ds.series)
    floor = ring.prec - 3
    ranked = sorted(
        (b, i)
        for i, f_i in enumerate(ds.series)
        if (b := _strassmann_bound(f_i, order, p)) is not None
    )
    if ranked and ranked[0][0] == 0:
        return [], ranked[0][1]
    for bound, chosen in ranked:
        # rescale t = p*s so the roots of interest are the Z_p roots
        rescaled = [c.shift(n) for n, c in enumerate(ds.series[chosen].coeffs[: order + 1])]
        try:
            roots = padic_poly_roots(rescaled)
        except PrecisionExhausted:
            continue
        break
    else:
        raise AllSeriesDegenerate(f"no series has separable roots on disc {ds.disc}")
    if len(roots) > bound:
        raise ZeroBoundExceeded(
            f"{len(roots)} roots of series {chosen} on disc {ds.disc} exceed "
            f"its Strassmann bound {bound}"
        )
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
            # a root of the truncation is the series' root only to the
            # precision of the series there, less the valuation of its
            # slope (Hensel)
            slope = slope_series.evaluate(t_root)
            known = ds.series_value(t_root, chosen).prec - slope.val
            points.append(ds.chart.point_at(t_root.cap(known)))
    return points, chosen


_PRIME_CAP = 100  # the last prime a run escalates to


def run_chabauty(
    curve: HyperellipticCurve,
    p: int | None = None,
    known_points: list[Point] | None = None,
    precision: int | None = None,
) -> ChabautyOutput:
    """Provably compute the common-zero set and classify it.

    Requires a validated monic odd-degree genus-3 model whose Jacobian has
    Mordell-Weil rank 0 (the rank is a trusted input).  The search itself
    never uses known rational points: they only cross-check the output,
    and one missing from it raises NonTorsionExtra.  When no series in some
    disc has separable roots the run escalates to the next prime of good
    reduction, up to _PRIME_CAP; a starting prime of bad reduction counts as
    one escalation.  More common zeros than Coleman's bound allows raise
    ZeroBoundExceeded.
    """
    if curve.genus != 3:
        raise ValueError("the driver is specific to genus 3")
    if p is not None and (p < 7 or not is_prime(p)):
        raise ValueError(f"the driver requires a starting prime p >= 7, got {p}")
    known_points = list(known_points or [])
    for kp in known_points:
        if not curve.contains(kp):
            raise ValueError(f"known point {kp} is not on the curve")
    p_current = good_reduction_prime(curve, p if p is not None else 7)
    escalations = 1 if (p is not None and p_current != p) else 0
    while True:
        if p_current > _PRIME_CAP:
            raise PrecisionExhausted(
                f"no prime below the cap {_PRIME_CAP} avoided degenerate series"
            )
        try:
            out = _run_at_prime(curve, p_current, precision, escalations)
            break
        except AllSeriesDegenerate:
            p_current = good_reduction_prime(curve, p_current + 1)
            escalations += 1
    got_rational = {_rational_key(c.rational) for c in out.rational}
    for kp in known_points:
        if _rational_key(kp) not in got_rational:
            raise NonTorsionExtra(
                f"known rational point {kp} missing from the zero set: "
                "the rank-0 assumption or the input curve is wrong"
            )
    return out


def _run_at_prime(curve, p, precision, escalations) -> ChabautyOutput:
    n, order = precisions(p, precision)
    fa = frobenius_action(curve, p, n)
    floor = n - 3

    discs = fp_disc_representatives(curve, p)
    found: list[Point] = []
    disc_logs: list[DiscLog] = []
    for disc, mirrored in discs:
        zeros, chosen = common_zeros(disc_series(curve, fa, disc))
        local: list[Point] = []
        for z in zeros:
            _append_unique(local, z, floor)
            _append_unique(local, involution(z), floor)
        disc_logs.append(DiscLog(disc, mirrored, list(local), chosen))
        for z in local:
            _append_unique(found, z, floor)
    fp_count = curve_count_fp(fa)
    # a free check of Frobenius: P(T) must count the F_p points of the
    # discs, one per unmirrored disc and two per mirrored one
    if fp_count != sum(1 + mirrored for _, mirrored in discs):
        raise InternalInvariant(f"#C(F_{p}) = {fp_count} from P(T) disagrees with the F_p points")
    # each common zero is a zero of the first integral from infinity, which
    # has at most #C(F_p) + 2g - 2 zeros in C(Q_p) when p > 2g (Coleman)
    coleman_bound = fp_count + 2 * curve.genus - 2
    if len(found) > coleman_bound:
        raise ZeroBoundExceeded(
            f"{len(found)} common zeros at p = {p} exceed Coleman's bound {coleman_bound}"
        )

    rational: list[ClassifiedPoint] = []
    two_torsion: list[ClassifiedPoint] = []
    higher: list[ClassifiedPoint] = []
    for pt in found:
        c = classify_point(pt, curve, fa)
        if c.verdict == "rational":
            rational.append(c)
        elif c.verdict == "two-torsion":
            two_torsion.append(c)
        else:
            higher.append(c)
    rational.sort(key=lambda c: _rational_sort_key(c.rational))
    return ChabautyOutput(
        rational=rational,
        two_torsion_extras=two_torsion,
        higher_torsion_extras=higher,
        prime=p,
        precision=n,
        t_precision=order,
        escalations=escalations,
        disc_logs=disc_logs,
        fp_count=fp_count,
    )


def _rational_key(point: Point):
    if point.at_infinity:
        return "inf"
    return (Fraction(point.x), Fraction(point.y))


def _rational_sort_key(point: Point):
    if point.at_infinity:
        return (0, Fraction(0), Fraction(0))
    return (1, Fraction(point.x), Fraction(point.y))


def _append_unique(seq: list[Point], pt: Point, floor: int):
    for existing in seq:
        if existing.at_infinity or pt.at_infinity:
            if existing.at_infinity and pt.at_infinity:
                return
            continue
        dx = existing.x - pt.x
        dy = existing.y - pt.y
        if (dx.is_zero or dx.val >= floor) and (dy.is_zero or dy.val >= floor):
            return
    seq.append(pt)
