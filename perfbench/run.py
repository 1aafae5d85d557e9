"""Time-to-proof benchmark for ckpoints.

    python3 perfbench/run.py --workload fixtures-p7 --seed 1 --seconds 38 --trace 0

Builds a seeded batch of curve translates (workloads.py), runs it through
the public `ckpoints.pipeline.run_batch` in a closed loop for --seconds,
checks every record against the exact answer, and prints one JSON result as
the last line of stdout.  --trace 0 reports the end-to-end metrics, in
seconds at a reference machine speed (speed.py).
--trace 1 wraps each module's public function (spans.py) for whole batches
during half of --seconds, repeats as many batches untraced, reports
per-layer self times and counts, times the Frobenius p-scaling sweep, and
writes the spans to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYERS, Tracer, layer_totals
from speed import PROBE_REF, SpeedSampler
from workloads import FIXTURES, WORKLOADS, check_record, make_batch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

SETUP_REPEATS = 15
SWEEP_PRIMES = (7, 11, 13)


def git_sha() -> str:
    """HEAD's commit, read from .git directly; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload, seed):
    """Import ckpoints afresh, generate the batch, write it and ingest it;
    return the timed span's start and end with the results."""
    for name in [m for m in sys.modules if m == "ckpoints" or m.startswith("ckpoints.")]:
        del sys.modules[name]
    gc.collect()  # free the previous copy, so repeats do not raise the peak RSS
    t0 = time.perf_counter()
    pipeline = importlib.import_module("ckpoints.pipeline")
    batch = make_batch(workload, seed)
    path = OUT / f"{workload.name}-seed{seed}.txt"
    path.write_text(f"# {workload.name} seed {seed}\n" + "".join(c.line() + "\n" for c in batch))
    curves = pipeline.ingest(str(path))
    return t0, time.perf_counter(), pipeline, batch, curves


@dataclass
class Passes:
    calls: int = 0  # run_batch calls made
    batches: float = 0.0  # batches completed, a fraction when a run stops mid-batch
    seconds: float = 0.0  # summed run_batch wall time
    call_wall: list = field(default_factory=list)  # each call's wall time
    call_ref: list = field(default_factory=list)  # each call's time at the reference speed
    curve_ref: dict = field(default_factory=dict)  # batch position -> its curve times, ditto
    records: list = field(default_factory=list)  # (batch position, record)
    reports: list = field(default_factory=list)


def run_batches(
    pipeline, workload, curves, seconds, whole_batches=False, calls=None, tracer=None, sampler=None
):
    """Closed loop over the fixed batch: each call starts when the last ends.

    With one job each curve is its own run_batch call, timed from outside;
    with a pool the batch is one call and the per-curve times are the ones
    the pipeline measures inside its workers.  With a `sampler`, the probes
    taken during a call scale its times to the reference speed.  The loop
    runs at least one whole batch, then stops before the next call (the next
    batch with `whole_batches`) that would, at the mean pace so far, end
    after `seconds`; or it makes exactly `calls` calls.
    """
    cfg = pipeline.RunConfig(
        height_bound=workload.height_bound,
        prime=workload.prime,
        jobs=workload.jobs,
        with_timings=workload.jobs > 1,
    )
    per_batch = [[c] for c in curves] if workload.jobs == 1 else [curves]
    res = Passes()
    start = time.perf_counter()
    while True:
        pos = res.calls % len(per_batch)
        if calls is not None:
            if res.calls == calls:
                break
        elif res.calls >= len(per_batch) and (pos == 0 or not whole_batches):
            next_calls = len(per_batch) if whole_batches else 1
            if time.perf_counter() - start + res.seconds / res.calls * next_calls > seconds:
                break
        if tracer is not None:
            tracer.batch = res.calls // len(per_batch)
            tracer.curve = f"{tracer.batch}.{pos}" if workload.jobs == 1 else None
        t0 = time.perf_counter()
        report = pipeline.run_batch(per_batch[pos], cfg)
        t1 = time.perf_counter()
        dt = t1 - t0
        scale = sampler.to_ref(t0, t1) / dt if sampler else 1.0
        res.calls += 1
        res.seconds += dt
        res.call_wall.append(dt)
        res.call_ref.append(dt * scale)
        res.reports.append(report)
        if workload.jobs == 1:
            res.curve_ref.setdefault(pos, []).append(dt * scale)
            res.records.append((pos, report.records[0]))
        else:
            for r in report.records:
                res.records.append((r.index, r))
                # a failed record carries no timings: count it at the batch's time
                t = r.timings["search_seconds"] + r.timings["chabauty_seconds"] if r.timings else dt
                res.curve_ref.setdefault(r.index, []).append(t * scale)
    res.batches = res.calls / len(per_batch)
    return res


def check(batch, workload, passes: Passes) -> int:
    failed = 0
    for pos, rec in passes.records:
        problems = check_record(rec, batch[pos], workload.start_prime)
        if problems:
            failed += 1
            print(f"MISMATCH curve {pos} (shift {batch[pos].shift}): {problems}", file=sys.stderr)
    return failed


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(passes: Passes, n_curves: int, jobs: int, failed: int, setup_s: float) -> dict:
    """The user-facing metrics, from times at the reference speed.

    Each curve of the batch counts once, by the median of its times, however
    many times the run reached it; so a run that stops part-way through a
    batch does not tilt the mix towards the curves at its start.
    """
    curve_s = [statistics.median(ts) for _, ts in sorted(passes.curve_ref.items())]
    batch_s = sum(curve_s) if jobs == 1 else statistics.median(passes.call_ref)
    proven = 1 - failed / len(passes.records)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "curves_per_s": (proven * n_curves / batch_s, "curves/s"),
        "curve_s.p50": (percentile(curve_s, 50), "s"),
        "curve_s.p80": (percentile(curve_s, 80), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def frobenius_sweep() -> dict:
    """Frobenius on the example-3 monic model at each sweep prime, unwrapped."""
    from ckpoints.cohomology import frobenius_action
    from ckpoints.curve import scale_to_monic

    curve, _ = scale_to_monic(FIXTURES[2].coeffs)
    times = {}
    for p in SWEEP_PRIMES:
        t0 = time.perf_counter()
        frobenius_action(curve, p, 2 * p + 4)
        times[p] = time.perf_counter() - t0
    return times


def fit_exponent(times: dict) -> float:
    """Least-squares slope of log(seconds) against log(p)."""
    xs = [math.log(p) for p in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(spans, traced: Passes, plain: Passes, sweep: dict, failed: int, attempted: int) -> dict:
    seconds, calls, counts = layer_totals(spans)
    n = traced.batches
    m = {}
    for name in LAYERS:
        m[f"{name}.s"] = (seconds[name] / n, "s")
        m[f"{name}.calls"] = (calls[name] / n, "count")
    search, disc, zeros = (
        counts["curve.search_rational_points"],
        counts["chabauty.disc_series"],
        counts["chabauty.common_zeros"],
    )
    roots = counts["padic.padic_poly_roots"]["roots"]
    verdicts = counts["classify.classify_point"]
    m.update(
        {
            "curve.search_rational_points.points": (search["points"] / n, "count"),
            "chabauty.disc_series.seeded_ratio": (
                _ratio(disc["seeded"], calls["chabauty.disc_series"]), "ratio"),
            "chabauty.common_zeros.accepted_ratio": (_ratio(zeros["accepted"], roots), "ratio"),
            "padic.truncated_discriminant.series_per_disc": (
                _ratio(calls["padic.truncated_discriminant"], calls["chabauty.common_zeros"]), "ratio"),
            "padic.padic_poly_roots.roots": (roots / n, "count"),
            "chabauty.run_chabauty.escalations": (
                counts["chabauty.run_chabauty"]["escalations"] / n, "count"),
            "classify.classify_point.rational": (verdicts["rational"] / n, "count"),
            "classify.classify_point.two_torsion": (verdicts["two_torsion"] / n, "count"),
            "classify.classify_point.higher_torsion": (verdicts["higher_torsion"] / n, "count"),
            "pipeline.emit_report.bytes": (counts["pipeline.emit_report"]["bytes"] / n, "bytes"),
            "trace.batch_s": (
                sum(s.end - s.start for s in spans if s.name == "pipeline.run_batch") / n, "s"),
            "trace.overhead_ratio": (traced.seconds / plain.seconds, "ratio"),
            "failed_ratio": (failed / attempted, "ratio"),
        }
    )
    for p, t in sweep.items():
        m[f"cohomology.frobenius_action.p{p}.s"] = (t, "s")
    m["cohomology.frobenius_action.p_exponent"] = (fit_exponent(sweep), "exponent")
    return m


def shares(spans) -> str:
    """Each layer's self time as a share of the busy time under run_batch.

    With one job that is the run_batch wall time; with a pool it is the
    workers' summed time, so the shares still add up to 100%.
    """
    seconds, _, _ = layer_totals(spans)
    del seconds["pipeline.emit_report"]
    total = sum(seconds.values())
    top = sorted(((v / total, k) for k, v in seconds.items()), reverse=True)
    return ", ".join(f"{k} {100 * v:.1f}%" for v, k in top)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ckpoints" / "__init__.py").is_file():
        print(f"perfbench: no ckpoints sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "prime": workload.prime,
        "height_bound": workload.height_bound,
        "jobs": workload.jobs,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_ref_s": PROBE_REF,
    }
    setup_times = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            t0, t1, pipeline, batch, curves = set_up(workload, args.seed)
            setup_times.append(sampler.to_ref(t0, t1))
    setup_s = statistics.median(setup_times)
    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported ckpoints from {pipeline.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env["shifts"] = [c.shift for c in batch]
    env["fixtures"] = [c.fixture.name for c in batch]

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes = run_batches(
                pipeline, workload, curves, args.seconds / 2, whole_batches=True, tracer=tracer
            )
            tracer.curve = None
            for report in passes.reports:
                pipeline.emit_report(report, "json")
        finally:
            tracer.uninstall()
        if workload.jobs > 1 and not any(s.name == "cohomology.frobenius_action" for s in tracer.spans):
            print("perfbench: pool workers returned no spans (the pool does not fork)", file=sys.stderr)
            return 3
        plain = run_batches(pipeline, workload, curves, args.seconds, calls=passes.calls)
        failed = check(batch, workload, passes) + check(batch, workload, plain)
        attempted = len(passes.records) + len(plain.records)
        metrics = per_layer(tracer.spans, passes, plain, frobenius_sweep(), failed, attempted)
        with open(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        print(f"self-time shares of the traced batch: {shares(tracer.spans)}")
    else:
        with SpeedSampler() as sampler:
            passes = run_batches(pipeline, workload, curves, args.seconds, sampler=sampler)
        probes = [t for _, t in sampler.samples]
        env["probe_s"] = {"n": len(probes), "median": statistics.median(probes),
                          "min": min(probes), "max": max(probes)}
        failed = check(batch, workload, passes)
        attempted = len(passes.records)
        metrics = end_to_end(passes, len(batch), workload.jobs, failed, setup_s)

    env["batches"] = passes.batches
    env["call_wall_s"] = passes.call_wall
    env["call_ref_s"] = passes.call_ref
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"env": env, "result": result}, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
