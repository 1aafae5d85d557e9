"""Provably compute rational points on rank-0 genus-3 odd hyperelliptic curves.

The pipeline combines capped-precision p-adic arithmetic, the Frobenius
action on the cohomology of the affine curve, Coleman integration between
arbitrary Q_p-points, a per-residue-disc power-series root search, and
classification of the resulting p-adic points into rational points and
torsion extras.
"""

from .padic import (
    PadicPowerSeries,
    PadicRing,
    PadicScalar,
    formal_integrate,
    hensel_simple_root,
    hensel_sqrt,
    padic_poly_roots,
    truncated_discriminant,
)
from .curve import (
    INFINITY,
    HyperellipticCurve,
    Point,
    enumerate_fp_points,
    fp_disc_representatives,
    global_height,
    good_reduction_prime,
    involution,
    lift_point,
    local_chart,
    parse_curve_line,
    reduce_point,
    scale_to_monic,
    search_rational_points,
)
from .cohomology import (
    FrobeniusAction,
    curve_count_fp,
    evaluate_correction,
    frobenius_action,
    jacobian_order_fp,
    zeta_char_poly,
)
from .coleman import (
    coleman_integral,
    integral_functional,
    teichmuller_point,
    tiny_integral,
)
from .chabauty import ChabautyOutput, common_zeros, disc_series, precisions, run_chabauty
from .classify import (
    ClassifiedPoint,
    MumfordDivisor,
    algebraic_dependency,
    cantor_compose_reduce,
    cantor_scalar_mul,
    classify_point,
    rational_reconstruct,
    torsion_order,
)
from .pipeline import (
    BatchReport,
    CurveRecord,
    RunConfig,
    emit_report,
    ingest,
    parse_report_csv,
    run_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
