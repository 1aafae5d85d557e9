"""Command-line interface.

Subcommands:
  run            process a curve file and emit a batch report
  search-points  rational point search on one curve, up to a height bound
  integrate      one Coleman integral vector, for debugging
  frobenius      the Frobenius matrix and zeta data of one curve

Exit codes: 0 full success, 2 partial per-curve failures, 1 configuration
errors.  The environment variable CK_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from .chabauty import precisions
from .cohomology import frobenius_action, jacobian_order_fp
from .coleman import coleman_integral
from .curve import (
    INFINITY,
    Point,
    is_prime,
    parse_curve_line,
    scale_to_monic,
    search_rational_points,
)
from .errors import CkError, ParseError
from .padic import PadicRing
from .pipeline import RunConfig, emit_report, ingest, run_batch

log = logging.getLogger("ck")


def _odd_prime(text: str) -> int:
    p = int(text)
    if p < 3 or not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not an odd prime")
    return p


def _driver_prime(text: str) -> int:
    p = int(text)
    if p < 7 or not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not a prime >= 7")
    return p


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not positive")
    return n


def _run_precision(text: str) -> int:
    n = int(text)
    try:
        precisions(7, n)  # the floor on n is the same for every prime
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ck",
        description="rational points on rank-0 genus-3 odd hyperelliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="process a curve file")
    run.add_argument("--input", required=True, help="curve file, one [c0,...,c7] per line")
    run.add_argument("--height-bound", type=_nonnegative, default=1000)
    run.add_argument("--format", choices=("json", "csv", "text"), default="text")
    run.add_argument("--prime", type=_driver_prime, default=None, help="starting prime, at least 7")
    run.add_argument(
        "--precision", type=_run_precision, default=None,
        help="p-adic precision N (default 2p+4); the t-adic order follows N",
    )
    run.add_argument("--jobs", type=_positive, default=1)
    run.add_argument("--timings", action="store_true", help="include timings (json loses determinism)")
    run.add_argument("--output", default=None, help="write the report to a file instead of stdout")

    sp = sub.add_parser("search-points", help="rational point search up to a height bound")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--height-bound", type=_nonnegative, default=1000)

    integ = sub.add_parser("integrate", help="one Coleman integral vector")
    integ.add_argument("--curve", required=True)
    integ.add_argument("--from", dest="start", required=True, help='point "x,y" or "inf"')
    integ.add_argument("--to", dest="end", required=True)
    integ.add_argument("--prime", type=_odd_prime, required=True)
    integ.add_argument("--precision", type=_run_precision, default=None)

    fr = sub.add_parser("frobenius", help="Frobenius matrix and zeta data")
    fr.add_argument("--curve", required=True)
    fr.add_argument("--prime", type=_odd_prime, required=True)
    fr.add_argument("--precision", type=_run_precision, default=None)
    return parser


def _glue_point_values(argv: list[str]) -> list[str]:
    """Write "--from X" and "--to X" as "--from=X" and "--to=X".

    argparse reads a separate value with a leading minus sign, such as the
    point -1/2,0, as an option; glued to its option it is a value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--from", "--to"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_point(text: str) -> Point:
    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f'point must be "x,y" or "inf", got {text!r}')
    return Point(Fraction(parts[0].strip()), Fraction(parts[1].strip()))


def _cmd_run(args) -> int:
    curves = ingest(args.input)
    config = RunConfig(
        height_bound=args.height_bound,
        prime=args.prime,
        precision=args.precision,
        jobs=args.jobs,
        with_timings=args.timings,
    )
    report = run_batch(curves, config)
    payload = emit_report(report, args.format)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 2 if report.failures else 0


def _cmd_search_points(args) -> int:
    curve, pmap = scale_to_monic(parse_curve_line(args.curve))
    points = search_rational_points(curve, args.height_bound)
    for q in points:
        print(pmap.backward(q))
    return 0


def _cmd_integrate(args) -> int:
    curve, pmap = scale_to_monic(parse_curve_line(args.curve))
    p = args.prime
    if not curve.has_good_reduction(p):
        raise CkError(f"bad reduction at {p}")
    n = args.precision if args.precision is not None else precisions(max(p, 7))[0]
    ring = PadicRing(p, n)
    start = _lift_rational_point(_parse_point(args.start), curve, pmap, ring)
    end = _lift_rational_point(_parse_point(args.end), curve, pmap, ring)
    fa = frobenius_action(curve, p, n)
    vec = coleman_integral(curve, fa, start, end)
    for i, v in enumerate(vec):
        print(f"int x^{i} dx/2y : {v}")
    print(f"precision achieved: {min(v.prec for v in vec)}")
    return 0


def _lift_rational_point(pt: Point, curve, pmap, ring) -> Point:
    if pt.at_infinity:
        return INFINITY
    moved = pmap.forward(pt)
    if not curve.contains(moved):
        raise CkError(f"point {pt} is not on the curve")
    return Point(ring(moved.x), ring(moved.y))


def _cmd_frobenius(args) -> int:
    curve, pmap = scale_to_monic(parse_curve_line(args.curve))
    p = args.prime
    n = args.precision if args.precision is not None else precisions(max(p, 7))[0]
    fa = frobenius_action(curve, p, n)
    doc = {
        "prime": p,
        "precision": n,
        "matrix": [[str(c) for c in row] for row in fa.matrix],
        "corrections_terms": [
            {str(w): len(row) for w, row in zip(corr.ws, corr.rows)} for corr in fa.corrections
        ],
        "zeta_char_poly": fa.char_poly,
        "jacobian_order_fp": jacobian_order_fp(fa),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    level = os.environ.get("CK_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # a name maps to its number
        print(f"error: CK_LOG={level} is not a log level", file=sys.stderr)
        return 1
    logging.basicConfig(level=level.upper())
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_point_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "run": _cmd_run,
        "search-points": _cmd_search_points,
        "integrate": _cmd_integrate,
        "frobenius": _cmd_frobenius,
    }
    try:
        return handlers[args.command](args)
    except (CkError, OSError, ValueError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
