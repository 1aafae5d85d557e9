"""Tests of the benchmark's own logic: inputs, oracle and span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import os
import pickle
import random
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from ckpoints import pipeline  # noqa: E402
from ckpoints.pipeline import BatchReport, CurveRecord  # noqa: E402
from run import Passes, end_to_end, fit_exponent  # noqa: E402
from speed import MIN_SAMPLES, PROBE_REF, SpeedSampler, _follow, probe_unit, to_ref, window  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402
from workloads import FIXTURES, WORKLOADS, Curve, check_record, expected, make_batch, translate  # noqa: E402

INF = "inf"


def test_seed0_is_the_literal_fixtures():
    literal = [coeffs for _, coeffs in pipeline.ingest(str(ROOT / "fixtures" / "examples.txt"))]
    assert [list(fx.coeffs) for fx in FIXTURES] == literal
    for w in WORKLOADS.values():
        batch = make_batch(w, 0)
        assert [c.shift for c in batch] == [0] * len(w.fixtures)
        assert [list(c.coeffs) for c in batch] == [literal[i] for i in w.fixtures]


def test_seed0_expected_answers_are_the_acceptance_answers():
    ex1, ex2, ex3 = (c for c in make_batch(WORKLOADS["fixtures-p7"], 0))
    e1, e2, e3 = expected(ex1, 7), expected(ex2, 7), expected(ex3, 7)
    assert e1.points == {INF, (32, 0)}
    assert e2.points == {INF}
    assert e2.higher_torsion == (((1, 8), 18), ((1, 8), 18))  # x = -1/8, order 18
    assert e3.points == {INF, (0, 1), (0, -1), (1, 0), (-1, 0), (Fraction(-1, 2), 0)}
    assert (e1.fp_count, e2.fp_count, e3.fp_count) == (10, 9, 6)  # example 3 is sharp
    assert e1.two_torsion == e2.two_torsion == e3.two_torsion == 0
    assert not e1.higher_torsion and not e3.higher_torsion
    # at p = 11, -3 is not a square, so the torsion pair leaves Q_11, and two
    # irrational roots of example 3's F become 2-torsion extras
    assert expected(ex2, 11).higher_torsion == ()
    assert expected(ex3, 11).two_torsion == 2


def _eval(coeffs, x):
    return sum((c * x**j for j, c in enumerate(coeffs)), Fraction(0))


def _translate(fx, a):
    return Curve(fx, a, translate(fx.coeffs, a))


def test_a_translate_moves_the_points_with_it():
    rng = random.Random(7)
    for fx in FIXTURES:
        for a in (-6, -1, 3, 6):
            curve = _translate(fx, a)
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            assert _eval(curve.coeffs, x) == _eval(fx.coeffs, x + a)
            for x, y in expected(curve, 7).points - {INF}:
                assert y * y == _eval(curve.coeffs, x)


def _record(points, higher=(), fp_count=9, status="ok"):
    rec = CurveRecord(index=0, status=status, input_coeffs=[], prime=7, fp_count=fp_count)
    rec.rational_points_input_model = list(points)
    rec.higher_torsion_extras = [{"x_min_poly": poly, "order": order} for poly, order in higher]
    return rec


def test_check_record_reports_mismatches_without_raising():
    curve = _translate(FIXTURES[1], -2)  # x = -1/8 + 2 = 15/8
    good = _record(["inf"], [("-15 + 8*x", 18)] * 2)
    assert check_record(good, curve, 7) == []
    assert check_record(_record(["inf"], [("-15 + 8*x", 18)]), curve, 7)
    assert check_record(_record(["inf", "(1, 2)"], [("-15 + 8*x", 18)] * 2), curve, 7)
    assert check_record(_record(["inf"], [("-15 + 8*x", 9)] * 2), curve, 7)
    assert check_record(_record(["inf"], [("-15 + 8*x", 18)] * 2, fp_count=10), curve, 7)
    assert check_record(_record(["(garbage"], []), curve, 7)[0].startswith("malformed")
    assert check_record(_record([], status="error: boom"), curve, 7) == ["status 'error: boom'"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("r", "root", 0.0, 10.0),
        Span("a", "child", 1.0, 4.0, "r"),
        Span("b", "child", 3.0, 6.0, "r"),  # overlaps a: only the union counts
        Span("g", "grandchild", 2.0, 3.0, "a"),
        Span("w", "late", 9.0, 12.0, "r"),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == {"r": 10 - 5 - 1, "a": 2.0, "b": 3.0, "g": 1.0, "w": 3.0}
    seconds, calls, _ = layer_totals(spans)
    assert seconds["child"] == 5.0 and calls["child"] == 2


def test_tracer_wraps_the_callers_name_and_restores_it():
    original = pipeline.emit_report
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.emit_report is not original
        # pool workers look process_curve up by name, so the wrapper must pickle as it
        assert pickle.loads(pickle.dumps(pipeline.process_curve)) is pipeline.process_curve
        data = pipeline.emit_report(BatchReport([], {}, 0.0, [], []), "json")
    finally:
        tracer.uninstall()
    assert pipeline.emit_report is original
    (span,) = tracer.spans
    assert span.name == "pipeline.emit_report" and span.counts == {"bytes": len(data)}


def test_fit_exponent_recovers_a_power_law():
    assert abs(fit_exponent({p: 3e-5 * p**4 for p in (7, 11, 13)}) - 4) < 1e-9


def test_times_scale_to_the_reference_speed():
    assert abs(to_ref(3.0, [PROBE_REF] * 3) - 3.0) < 1e-12
    # probes that ran twice as slow as the reference halve the time
    assert abs(to_ref(3.0, [1.5 * PROBE_REF, 2.5 * PROBE_REF]) - 1.5) < 1e-12
    # one preempted probe in ten is left out, with the fastest
    probes = [0.5 * PROBE_REF] + [2 * PROBE_REF] * 8 + [40 * PROBE_REF]
    assert abs(to_ref(3.0, probes) - 1.5) < 1e-12
    assert probe_unit() == probe_unit()  # fixed work


def test_a_short_window_borrows_the_nearest_samples():
    samples = [(float(t), float(t)) for t in range(20)]
    assert window(samples, 2.0, 11.5) == [float(t) for t in range(2, 12)]
    assert sorted(window(samples, 9.9, 10.1)) == [8.0, 9.0, 10.0, 11.0, 12.0][:MIN_SAMPLES]


def test_the_sampler_times_probes_while_the_main_thread_works():
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            probe_unit()
        t1 = time.perf_counter()
    assert len(sampler.samples) >= 5
    assert 0 < sampler.to_ref(t0, t1) < 100


def test_following_a_thread_pins_to_the_cpu_it_ran_on():
    if not hasattr(os, "sched_getaffinity"):
        return
    me = threading.get_native_id()
    before = os.sched_getaffinity(0)
    try:
        _follow(me, me)
        assert len(os.sched_getaffinity(0)) == 1
    finally:
        os.sched_setaffinity(0, before)


def test_each_curve_counts_once_by_its_median_time():
    # a run that stopped after curve 0's second pass: 0 must not weigh double
    passes = Passes(records=[(0, None), (1, None), (2, None), (0, None)],
                    curve_ref={0: [1.0, 3.0, 2.0], 1: [4.0], 2: [6.0]})
    m = end_to_end(passes, n_curves=3, jobs=1, failed=0, setup_s=0.1)
    assert m["curves_per_s"][0] == 3 / (2.0 + 4.0 + 6.0)
    assert m["curve_s.p50"][0] == 4.0
    assert abs(m["curve_s.p80"][0] - 4.0 - 0.6 * 2.0) < 1e-12
    # a pooled batch is timed whole; one failed record in four costs a quarter
    pool = Passes(records=[(i, None) for i in range(4)], call_ref=[5.0, 7.0, 6.0],
                  curve_ref={i: [1.0] for i in range(4)})
    assert end_to_end(pool, n_curves=4, jobs=2, failed=1, setup_s=0.1)["curves_per_s"][0] == 0.75 * 4 / 6.0
