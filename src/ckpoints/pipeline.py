"""Batch orchestration: ingest curve files, run the search, emit reports.

One record per curve: the monic model and point map, the prime used, the
classified point lists, the mod-p point count with its sharpness flag
(#C(Q) = #C(F_p)), escalation counts and optional timings.  Reports
aggregate a histogram of rational point counts and the maximum height.
JSON output is deterministic (sorted keys, no volatile fields unless
timings are requested explicitly); the CSV format carries the per-curve
scalar fields and can be parsed back losslessly.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .chabauty import run_chabauty
from .curve import (
    Point,
    global_height,
    parse_curve_line,
    scale_to_monic,
    search_rational_points,
)
from .errors import CkError, ParseError


@dataclass
class RunConfig:
    height_bound: int = 1000
    prime: int | None = None
    precision: int | None = None
    jobs: int = 1
    with_timings: bool = False


@dataclass
class CurveRecord:
    index: int
    status: str
    input_coeffs: list[str]
    monic_coeffs: list[str] = field(default_factory=list)
    monic_lead: str = "1"
    prime: int = 0
    precision: int = 0
    t_precision: int = 0
    escalations: int = 0
    fp_count: int = 0
    stoll_sharp: bool = False
    rational_points: list[str] = field(default_factory=list)
    rational_points_input_model: list[str] = field(default_factory=list)
    heights: list[float] = field(default_factory=list)
    max_height: float = 0.0
    two_torsion_extras: list[dict] = field(default_factory=list)
    higher_torsion_extras: list[dict] = field(default_factory=list)
    disc_table: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)


@dataclass
class BatchReport:
    records: list[CurveRecord]
    histogram: dict[int, int]
    max_height: float
    max_height_points: list[str]
    failures: list[dict]


def ingest(path: str) -> list[tuple[int, list[Fraction]]]:
    """Parse a curve file: one `[c0,...,c7]` per line, comments with '#'."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                out.append((lineno, parse_curve_line(stripped)))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}", line_number=lineno) from exc
    return out


def _fmt_extra(c) -> dict:
    return {
        "x_padic": str(c.point.x),
        "y_padic": str(c.point.y),
        "x_min_poly": _poly_string(c.x_min_poly),
        "order": c.order,
        "order_p_ambiguous": bool(c.order_p_ambiguous),
    }


def _poly_string(coeffs) -> str | None:
    if coeffs is None:
        return None
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*x" if c != 1 else "x")
        else:
            terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(terms) if terms else "0"


def process_curve(args) -> CurveRecord:
    """Run the full per-curve flow; returns a record, never raises."""
    index, coeffs, cfg = args
    rec = CurveRecord(index=index, status="ok", input_coeffs=[str(c) for c in coeffs])
    try:
        t0 = time.monotonic()
        curve, pmap = scale_to_monic(coeffs)
        rec.monic_coeffs = [str(c) for c in curve.coeffs]
        rec.monic_lead = str(pmap.lead)
        known = search_rational_points(curve, cfg.height_bound)
        t1 = time.monotonic()
        out = run_chabauty(curve, p=cfg.prime, known_points=known, precision=cfg.precision)
        t2 = time.monotonic()
        rec.prime = out.prime
        rec.precision = out.precision
        rec.t_precision = out.t_precision
        rec.escalations = out.escalations
        rec.fp_count = out.fp_count
        monic_points = out.rational_points
        back_points = [pmap.backward(q) for q in monic_points]
        for q in back_points:
            if not q.at_infinity and Fraction(q.y) ** 2 != sum(
                Fraction(coeffs[j]) * Fraction(q.x) ** j for j in range(len(coeffs))
            ):
                raise CkError(f"back-mapped point {q} is not on the input model")
        rec.rational_points = [str(q) for q in monic_points]
        rec.rational_points_input_model = [str(q) for q in back_points]
        rec.heights = [round(global_height(q), 13) for q in back_points]
        rec.max_height = max(rec.heights) if rec.heights else 0.0
        rec.stoll_sharp = len(monic_points) == out.fp_count
        rec.two_torsion_extras = [_fmt_extra(c) for c in out.two_torsion_extras]
        rec.higher_torsion_extras = [_fmt_extra(c) for c in out.higher_torsion_extras]
        for log in out.disc_logs:
            label = str(log.disc)
            if log.mirrored:
                label += f"/{Point(log.disc.x, (-log.disc.y) % out.prime)}"
            rec.disc_table.append(
                {
                    "disc": label,
                    "common_zeros": [str(q) for q in log.points]
                    if log.points
                    else "no common roots",
                }
            )
        rec.timings = {
            "search_seconds": round(t1 - t0, 3),
            "chabauty_seconds": round(t2 - t1, 3),
        }
    except Exception as exc:  # per-curve failures never kill the batch; the type names the kind
        rec.status = f"error: {type(exc).__name__}: {exc}"
    return rec


def _aggregate(records: list[CurveRecord]) -> BatchReport:
    """Histogram, failures and maximum height over the records, in order."""
    histogram: dict[int, int] = {}
    failures = []
    max_height = 0.0
    max_points: list[str] = []
    for r in records:
        if r.status != "ok":
            failures.append({"index": r.index, "message": r.status})
            continue
        n = len(r.rational_points)
        histogram[n] = histogram.get(n, 0) + 1
        for pt, h in zip(r.rational_points_input_model, r.heights):
            if h > max_height:
                max_height = h
                max_points = [pt]
            elif h == max_height and h > 0:
                max_points.append(pt)
    return BatchReport(records, histogram, max_height, max_points, failures)


def run_batch(curves, config: RunConfig) -> BatchReport:
    """Process each curve and aggregate; deterministic given the config."""
    tasks = [(i, coeffs, config) for i, (lineno, coeffs) in enumerate(curves)]
    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(process_curve, tasks))
    else:
        records = [process_curve(t) for t in tasks]
    records.sort(key=lambda r: r.index)
    if not config.with_timings:
        for r in records:
            r.timings = {}
    return _aggregate(records)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_CSV_FIELDS = [
    "index",
    "status",
    "input_coeffs",
    "monic_coeffs",
    "monic_lead",
    "prime",
    "precision",
    "t_precision",
    "escalations",
    "fp_count",
    "stoll_sharp",
    "rational_points",
    "rational_points_input_model",
    "heights",
    "max_height",
    "two_torsion_extras",
    "higher_torsion_extras",
]


def emit_report(report: BatchReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _record_payload(rec: CurveRecord) -> dict:
    payload = {k: getattr(rec, k) for k in _CSV_FIELDS}
    payload["disc_table"] = rec.disc_table
    if rec.timings:
        payload["timings"] = rec.timings
    return payload


def _emit_json(report: BatchReport) -> bytes:
    doc = {
        "schema": "ck-batch-report/1",
        "records": [_record_payload(r) for r in report.records],
        "histogram": {str(k): v for k, v in sorted(report.histogram.items())},
        "max_height": report.max_height,
        "max_height_points": report.max_height_points,
        "failures": report.failures,
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _emit_csv(report: BatchReport) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rec in report.records:
        row = {}
        for k in _CSV_FIELDS:
            v = getattr(rec, k)
            row[k] = json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v
        writer.writerow(row)
    return buf.getvalue().encode()


def parse_report_csv(data: bytes) -> BatchReport:
    """Rebuild a report from its CSV emission (aggregates are recomputed)."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    records = []
    for row in rows:
        rec = CurveRecord(index=int(row["index"]), status=row["status"], input_coeffs=[])
        for k in _CSV_FIELDS:
            raw = row[k]
            current = getattr(rec, k)
            if isinstance(current, (list, dict)):
                setattr(rec, k, json.loads(raw))
            elif isinstance(current, bool):
                setattr(rec, k, raw == "True")
            elif isinstance(current, int):
                setattr(rec, k, int(raw))
            elif isinstance(current, float):
                setattr(rec, k, float(raw))
            else:
                setattr(rec, k, raw)
        records.append(rec)
    return _aggregate(records)


def _emit_text(report: BatchReport) -> bytes:
    lines = []
    for rec in report.records:
        lines.append(f"curve #{rec.index}: [{', '.join(rec.input_coeffs)}]")
        if rec.status != "ok":
            lines.append(f"  {rec.status}")
            lines.append("")
            continue
        if rec.monic_lead != "1":
            lines.append(f"  monic model: [{', '.join(rec.monic_coeffs)}] (lead {rec.monic_lead})")
        lines.append(
            f"  prime {rec.prime}, precision {rec.precision}, "
            f"t-precision {rec.t_precision}, escalations {rec.escalations}"
        )
        width = max((len(d["disc"]) for d in rec.disc_table), default=4)
        lines.append(f"  {'disc':<{width}}  common zeros of the three series")
        for d in rec.disc_table:
            result = d["common_zeros"]
            shown = ", ".join(result) if isinstance(result, list) else result
            lines.append(f"  {d['disc']:<{width}}  {shown}")
        lines.append(
            f"  rational points ({len(rec.rational_points)}): "
            + ", ".join(rec.rational_points_input_model)
        )
        if rec.two_torsion_extras:
            lines.append(f"  2-torsion extras: {len(rec.two_torsion_extras)}")
            for e in rec.two_torsion_extras:
                lines.append(f"    x = {e['x_padic']} (min poly {e['x_min_poly']})")
        if rec.higher_torsion_extras:
            lines.append(f"  higher-torsion extras: {len(rec.higher_torsion_extras)}")
            for e in rec.higher_torsion_extras:
                flag = " (p-part ambiguous)" if e["order_p_ambiguous"] else ""
                lines.append(
                    f"    x = {e['x_padic']}, min poly {e['x_min_poly']}, "
                    f"order {e['order']}{flag}"
                )
        lines.append(
            f"  #C(F_p) = {rec.fp_count}; point-count bound is "
            + ("sharp" if rec.stoll_sharp else "not sharp")
        )
        if rec.timings:
            lines.append(f"  timings: {rec.timings}")
        lines.append("")
    lines.append("histogram (n rational points: curves):")
    for n, count in sorted(report.histogram.items()):
        lines.append(f"  {n}: {count}")
    lines.append(f"max height: {report.max_height}")
    if report.max_height_points:
        lines.append(f"  at: {', '.join(report.max_height_points)}")
    if report.failures:
        lines.append(f"failures: {len(report.failures)}")
        for f in report.failures:
            lines.append(f"  #{f['index']}: {f['message']}")
    return ("\n".join(lines) + "\n").encode()
