"""Run a set of benchmark runs and report each metric's spread.

    python3 perfbench/sets.py --seeds 1-10 --label a
    python3 perfbench/sets.py --compare a b

Runs run.py once per (seed, workload), one run at a time, rotating the
workload order from seed to seed so that slow drift in machine speed spreads
evenly over the workloads.  For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median beside the metric's bound in BENCHMARK.json, and writes
the set to perfbench/out/set-<label>.json.  --compare prints how far set b's
medians moved from set a's, as a share of a's, signed so that positive is
worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(seeds, workloads, seconds, trace) -> dict:
    values: dict = {w: {} for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed", flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    return values


def summarize(values: dict, bounds: dict) -> None:
    for w, metrics in values.items():
        print(f"\n{w}")
        for name, vs in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
            print(f"  {name:40s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.3f}  bound {bound}{flag}")


def compare(a: dict, b: dict, spec: dict) -> None:
    for m in spec["end_to_end"]:
        for w in a:
            ma, mb = statistics.median(a[w][m["name"]]), statistics.median(b[w][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "  <-- over the bound" if worse > m["bound"] else ""
            print(f"{w:14s} {m['name']:14s} {ma:.5g} -> {mb:.5g}  worse by {worse:+.3f} "
                  f"(bound {m['bound']}){flag}")


def main() -> None:
    spec = _spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="set")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads((OUT / f"set-{x}.json").read_text()) for x in args.compare)
        compare(a, b, spec)
        return
    OUT.mkdir(exist_ok=True)
    values = run_set(_seeds(args.seeds), args.workloads.split(","), args.seconds, args.trace)
    (OUT / f"set-{args.label}.json").write_text(json.dumps(values, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summarize(values, bounds)


if __name__ == "__main__":
    main()
