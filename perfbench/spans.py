"""Call-site spans around the public function of each ckpoints module.

Wrappers replace the name the caller looks up (for example
`ckpoints.chabauty.frobenius_action`, which `_run_at_prime` calls), so the
library itself is not edited.  Spans stay in memory: each has a name, start,
end, parent and curve id, plus counts read off the wrapped call's result.
Pool workers forked by `run_batch` inherit the wrappers; their spans ride
back to the parent on the returned record and are re-attached there.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

SPAN_ATTR = "_perfbench_spans"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "curve", "counts")

    def __init__(self, id, name, start, end=None, parent=None, curve=None, counts=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.curve = curve
        self.counts = counts or {}

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _verdicts(args, result):
    return {result.verdict.replace("-", "_"): 1}


# (module, attribute the caller looks up, span name, counts from (args, result))
WRAPS = (
    ("ckpoints.pipeline", "run_batch", "pipeline.run_batch", None),
    ("ckpoints.pipeline", "process_curve", "pipeline.process_curve", None),
    ("ckpoints.pipeline", "emit_report", "pipeline.emit_report", lambda a, r: {"bytes": len(r)}),
    ("ckpoints.pipeline", "search_rational_points", "curve.search_rational_points",
     lambda a, r: {"points": len(r)}),
    ("ckpoints.pipeline", "run_chabauty", "chabauty.run_chabauty",
     lambda a, r: {"escalations": r.escalations}),
    ("ckpoints.chabauty", "frobenius_action", "cohomology.frobenius_action", None),
    ("ckpoints.chabauty", "disc_series", "chabauty.disc_series",
     lambda a, r: {"seeded": int(r.seeded)}),
    ("ckpoints.chabauty", "integral_functional", "coleman.integral_functional", None),
    ("ckpoints.chabauty", "common_zeros", "chabauty.common_zeros",
     lambda a, r: {"accepted": len(r[0])}),
    ("ckpoints.chabauty", "truncated_discriminant", "padic.truncated_discriminant", None),
    ("ckpoints.chabauty", "padic_poly_roots", "padic.padic_poly_roots",
     lambda a, r: {"roots": len(r)}),
    ("ckpoints.chabauty", "classify_point", "classify.classify_point", _verdicts),
)

LAYERS = tuple(name for _, _, name, _ in WRAPS)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # curve id stamped on new spans; a forked worker sets its own from
        # `batch` and the task index
        self.curve: str | None = None
        self.batch = 0
        self._stack: list[Span] = []
        self._next = 0
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        self._next += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(f"{os.getpid()}-{self._next}", name, time.perf_counter(), None, parent, self.curve)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts = count(args, result)
                return result
            finally:
                tracer._close(span)

        if name == "pipeline.process_curve":
            return self._wrap_process_curve(traced)
        if name == "pipeline.run_batch":
            return self._wrap_run_batch(traced)
        return traced

    def _wrap_process_curve(self, traced):
        tracer = self

        @functools.wraps(traced)
        def process_curve(args):
            in_worker = os.getpid() != tracer._pid
            if in_worker:
                tracer.curve = f"{tracer.batch}.{args[0]}"
            mark = len(tracer.spans)
            rec = traced(args)
            if in_worker:
                setattr(rec, SPAN_ATTR, [s.as_dict() for s in tracer.spans[mark:]])
            return rec

        return process_curve

    def _wrap_run_batch(self, traced):
        tracer = self

        @functools.wraps(traced)
        def run_batch(*args, **kwargs):
            report = traced(*args, **kwargs)
            for rec in report.records:
                for d in rec.__dict__.pop(SPAN_ATTR, ()):
                    tracer.spans.append(Span(**d))
            return report

        return run_batch

    def install(self) -> None:
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap each other (pool workers run side by side) or run
    past their parent; only the union of their intervals inside the parent
    is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans):
    """Per span name: total self seconds, call count and summed counts."""
    selfs = self_times(spans)
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        seconds[s.name] += selfs[s.id]
        calls[s.name] += 1
        for k, v in s.counts.items():
            counts[s.name][k] += v
    return seconds, calls, counts
