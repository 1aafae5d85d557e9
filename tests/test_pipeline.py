"""Tests for ingestion, batch processing, report emission, and the CLI."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ckpoints.chabauty
import ckpoints.pipeline
from ckpoints import cli
from ckpoints.curve import PointMap
from ckpoints.errors import ParseError
from ckpoints.pipeline import (
    RunConfig,
    emit_report,
    ingest,
    parse_report_csv,
    process_curve,
    run_batch,
)

from conftest import EX1_COEFFS, EX2_COEFFS, EX3_RAW_COEFFS

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "examples.txt"
GOLDEN = Path(__file__).resolve().parent / "golden" / "examples_h1000.json"
GOLDEN_P11 = GOLDEN.with_name("examples_p11_h100.json")
GOLDEN_P13 = GOLDEN.with_name("examples_p13_h100.json")
GOLDEN_TEXT = GOLDEN.with_suffix(".txt")
GOLDEN_CSV = GOLDEN.with_suffix(".csv")
GOLDEN_POINTS = GOLDEN.with_name("search_points_h10000.txt")
GOLDEN_FROBENIUS = GOLDEN.with_name("frobenius_cli.txt")
GOLDEN_FROBENIUS_P13 = GOLDEN.with_name("frobenius_cli_p13.txt")
GOLDEN_FROBENIUS_P17 = GOLDEN.with_name("frobenius_cli_p17.txt")
GOLDEN_INTEGRATE = GOLDEN.with_name("integrate_cli.txt")


@pytest.fixture(scope="module")
def example_batch():
    curves = ingest(str(FIXTURE))
    return run_batch(curves, RunConfig(height_bound=1000))


def test_ingest_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert ingest(str(path)) == []


def test_ingest_examples():
    curves = ingest(str(FIXTURE))
    assert len(curves) == 3
    assert curves[0][1] == [Fraction(c) for c in EX1_COEFFS]
    assert curves[1][1] == [Fraction(c) for c in EX2_COEFFS]
    assert curves[2][1] == [Fraction(c) for c in EX3_RAW_COEFFS]
    # line numbers preserved (line 1 is a comment)
    assert [line for line, _ in curves] == [2, 3, 4]


def test_ingest_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[1,2,3]\nnot a curve\n")
    with pytest.raises(ParseError) as info:
        ingest(str(path))
    assert info.value.line_number == 2


def test_batch_three_examples(example_batch):
    report = example_batch
    assert len(report.records) == 3
    assert not report.failures
    r1, r2, r3 = report.records
    assert r1.rational_points_input_model == ["inf", "(32, 0)"]
    assert r2.rational_points_input_model == ["inf"]
    assert len(r2.higher_torsion_extras) == 2
    assert r2.higher_torsion_extras[0]["order"] == 18
    assert r3.rational_points_input_model == [
        "inf",
        "(-1, 0)",
        "(-1/2, 0)",
        "(0, -1)",
        "(0, 1)",
        "(1, 0)",
    ]
    assert r3.monic_lead == "8"
    assert r3.fp_count == 6 and r3.stoll_sharp
    assert not r1.stoll_sharp


def test_histogram(example_batch):
    assert example_batch.histogram == {2: 1, 1: 1, 6: 1}


def test_stoll_bound_invariant(example_batch):
    for rec in example_batch.records:
        assert len(rec.rational_points) <= rec.fp_count


def test_max_height(example_batch):
    import math

    assert abs(example_batch.max_height - math.log(32)) < 1e-9
    assert example_batch.max_height_points == ["(32, 0)"]


def test_empty_batch():
    report = run_batch([], RunConfig())
    assert report.records == [] and report.histogram == {}


def test_forced_bad_prime_escalates():
    # a curve built to have bad reduction at 7: disc(F) = 0 mod 7
    coeffs = [0, 7, 0, 0, 0, 0, 0, 1]  # y^2 = x^7 + 7x: F = x(x^6 + 7)
    report = run_batch([(1, [Fraction(c) for c in coeffs])], RunConfig(prime=7, height_bound=5))
    rec = report.records[0]
    assert rec.status == "ok"
    assert rec.prime == 11
    assert rec.escalations >= 1


def test_per_curve_failure_recorded():
    # a singular model fails cleanly and the batch continues
    bad = [(1, [Fraction(0)] * 7 + [Fraction(1)])]
    good = [(2, [Fraction(c) for c in EX3_RAW_COEFFS])]
    report = run_batch(bad + good, RunConfig(height_bound=10))
    assert len(report.failures) == 1
    assert report.failures[0]["index"] == 0
    assert report.records[1].status == "ok"


def test_emit_text_contains_disc_table(example_batch):
    text = emit_report(example_batch, "text").decode()
    assert "no common roots" in text
    assert "(4, 0)" in text
    assert "(32, 0)" in text
    assert "histogram" in text


def test_emit_json_deterministic(example_batch):
    a = emit_report(example_batch, "json")
    curves = ingest(str(FIXTURE))
    again = run_batch(curves, RunConfig(height_bound=1000))
    b = emit_report(again, "json")
    assert a == b


def test_emit_json_matches_golden(example_batch):
    # the report of the three fixtures at H = 1000, the ck run defaults, is
    # pinned byte for byte so refactors cannot drift a published digit
    assert emit_report(example_batch, "json") == GOLDEN.read_bytes()


def test_parallel_batch_identical(example_batch):
    curves = ingest(str(FIXTURE))
    parallel = run_batch(curves, RunConfig(height_bound=1000, jobs=2))
    assert emit_report(parallel, "json") == emit_report(example_batch, "json")


def test_json_csv_json_roundtrip(example_batch):
    a = json.loads(emit_report(example_batch, "json"))
    csv_bytes = emit_report(example_batch, "csv")
    rebuilt = parse_report_csv(csv_bytes)
    b = json.loads(emit_report(rebuilt, "json"))
    scalar_keys = [
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
    for ra, rb in zip(a["records"], b["records"]):
        for k in scalar_keys:
            assert ra[k] == rb[k], k
    assert a["histogram"] == b["histogram"]
    assert a["max_height"] == b["max_height"]


def test_rational_points_revalidate_on_input_model(example_batch):
    # every reported rational point satisfies the original (pre-rescale)
    # equation; process_curve checks this internally, re-check here
    for rec, coeffs in zip(example_batch.records, (EX1_COEFFS, EX2_COEFFS, EX3_RAW_COEFFS)):
        for text in rec.rational_points_input_model:
            if text == "inf":
                continue
            xs, ys = text.strip("()").split(",")
            x, y = Fraction(xs.strip()), Fraction(ys.strip())
            assert y * y == sum(Fraction(coeffs[j]) * x**j for j in range(8))


def test_off_model_back_mapped_point_fails_the_record(monkeypatch):
    real = ckpoints.pipeline.scale_to_monic

    def wrong_map(coeffs):
        curve, pmap = real(coeffs)
        return curve, PointMap(lead=pmap.lead * 2, genus=pmap.genus)

    monkeypatch.setattr(ckpoints.pipeline, "scale_to_monic", wrong_map)
    coeffs = [Fraction(c) for c in EX3_RAW_COEFFS]
    rec = process_curve((0, coeffs, RunConfig(height_bound=10)))
    assert rec.status.startswith("error: CkError: back-mapped point (")
    assert rec.status.endswith(") is not on the input model")


def test_internal_fault_names_its_type_in_the_record(monkeypatch):
    # an off-by-one point count trips the P(T) check inside run_chabauty
    real = ckpoints.chabauty.curve_count_fp
    monkeypatch.setattr(ckpoints.chabauty, "curve_count_fp", lambda fa: real(fa) + 1)
    rec = process_curve((0, [Fraction(c) for c in EX3_RAW_COEFFS], RunConfig(height_bound=10)))
    assert rec.status.startswith("error: InternalInvariant: #C(F_7) = ")
    assert rec.status.endswith(" from P(T) disagrees with the F_p points")


# -- CLI ------------------------------------------------------------------------


def _run_cli(*args, **env):
    return subprocess.run(
        [sys.executable, "-m", "ckpoints.cli", *args],
        capture_output=True,
        text=True,
        timeout=900,
        env={**os.environ, **env},
    )


def test_cli_bad_ck_log_is_a_usage_error():
    # in a subprocess: under pytest the root logger has handlers already, so
    # basicConfig would not even read the level
    argv = ("search-points", "--curve", "[1,4,6,4,-7,-16,0,8]", "--height-bound", "10")
    res = _run_cli(*argv, CK_LOG="bogus")
    assert (res.returncode, res.stdout, res.stderr) == (1, "", "error: CK_LOG=bogus is not a log level\n")
    res = _run_cli(*argv, CK_LOG="info")
    assert res.returncode == 0
    assert "Traceback" not in res.stderr


def test_cli_search_points():
    res = _run_cli(
        "search-points",
        "--curve",
        "[1,4,6,4,-7,-16,0,8]",
        "--height-bound",
        "40",
    )
    assert res.returncode == 0
    assert "(-1/2, 0)" in res.stdout


def test_cli_search_points_h10000_matches_golden(capsys):
    # the golden was written by the two-loop scan the sieve replaced
    out = []
    for line in FIXTURE.read_text().splitlines():
        if line.startswith("#"):
            continue
        assert cli.main(["search-points", "--curve", line, "--height-bound", "10000"]) == 0
        out.append(f"# {line}\n" + capsys.readouterr().out)
    assert "".join(out) == GOLDEN_POINTS.read_text()


def test_cli_config_error_exit_code():
    res = _run_cli("run", "--input", "/nonexistent/file.txt")
    assert res.returncode == 1


def test_cli_bad_arguments_exit_code():
    res = _run_cli("run", "--no-such-flag")
    assert res.returncode == 1


@pytest.mark.parametrize(
    "option, value",
    [
        ("--height-bound", "-5"),
        ("--jobs", "0"),
        ("--jobs", "-1"),
        ("--precision", "-3"),
        ("--precision", "2"),
        ("--precision", "6"),
    ],
)
def test_cli_run_rejects_bad_counts(tmp_path, capsys, option, value):
    out = tmp_path / "report.json"
    argv = ["run", "--input", str(FIXTURE), option, value, "--output", str(out)]
    assert cli.main(argv) == 1
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_cli_search_points_rejects_negative_height(capsys):
    argv = ["search-points", "--curve", "[1,4,6,4,-7,-16,0,8]", "--height-bound", "-1"]
    assert cli.main(argv) == 1
    assert "--height-bound" in capsys.readouterr().err
    assert cli.main(argv[:-1] + ["0"]) == 0
    assert capsys.readouterr().out == "inf\n"


def test_cli_run_precision_7_finds_the_default_points(tmp_path):
    def points(*extra):
        out = tmp_path / "report.json"
        argv = ["run", "--input", str(FIXTURE), "--height-bound", "10", "--format", "json"]
        assert cli.main(argv + ["--output", str(out), *extra]) == 0
        records = json.loads(out.read_text())["records"]
        return [(r["precision"], r["rational_points"]) for r in records]

    low, default = points("--precision", "7"), points()
    assert [n for n, _ in low] == [7, 7, 7]
    assert [pts for _, pts in low] == [pts for _, pts in default]


@pytest.mark.parametrize("prime", ["5", "9", "x"])
def test_cli_run_rejects_bad_prime(tmp_path, capsys, prime):
    out = tmp_path / "report.json"
    argv = ["run", "--input", str(FIXTURE), "--prime", prime, "--output", str(out)]
    assert cli.main(argv) == 1
    assert "--prime" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "frobenius"])
@pytest.mark.parametrize("prime", ["2", "9", "15", "x"])
def test_cli_integrate_and_frobenius_take_only_odd_primes(capsys, command, prime):
    argv = [command, "--curve", "[1,4,6,4,-7,-16,0,8]", "--prime", prime]
    if command == "integrate":
        argv += ["--from", "inf", "--to", "0,1"]
    assert cli.main(argv) == 1
    assert "--prime" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["integrate", "frobenius"])
@pytest.mark.parametrize("precision", ["-3", "0", "2"])
def test_cli_integrate_and_frobenius_reject_bad_precision(capsys, command, precision):
    argv = [command, "--curve", "[1,4,6,4,-7,-16,0,8]", "--prime", "7", "--precision", precision]
    if command == "integrate":
        argv += ["--from", "inf", "--to=0,1"]
    assert cli.main(argv) == 1
    assert "--precision" in capsys.readouterr().err


def test_cli_integrate_and_frobenius_run_at_precision_7(capsys):
    curve = ["--curve", "[1,4,6,4,-7,-16,0,8]", "--prime", "7", "--precision", "7"]
    assert cli.main(["frobenius", *curve]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 7
    assert cli.main(["integrate", *curve, "--from", "inf", "--to=0,1"]) == 0
    assert capsys.readouterr().out.endswith("precision achieved: 7\n")


def test_cli_integrate_takes_points_with_a_negative_x(capsys):
    argv = ["integrate", "--curve", "[1,4,6,4,-7,-16,0,8]", "--prime", "7"]
    assert cli.main(argv + ["--from", "-1,0", "--to", "-1/2,0"]) == 0
    assert capsys.readouterr().out.endswith("precision achieved: 18\n")


EX1_LINE = "[-103079215104,59055800320,-13656653824,1613758464,-101220352,3134464,-37024,1]"
EX3_LINE = "[1,4,6,4,-7,-16,0,8]"
INTEGRATE_PAIRS = [
    (EX1_LINE, "inf", "32,0"),
    (EX3_LINE, "0,1", "1,0"),
    (EX3_LINE, "0,1", "0,-1"),
    (EX3_LINE, "-1,0", "0,1"),
    (EX3_LINE, "-1/2,0", "inf"),
]


def test_cli_integrate_matches_golden(capsys):
    out = []
    for p in ("7", "11"):
        for curve, start, end in INTEGRATE_PAIRS:
            argv = ["integrate", "--curve", curve, "--prime", p, f"--from={start}", f"--to={end}"]
            assert cli.main(argv) == 0
            out.append(f"# --prime {p} --curve {curve} --from {start} --to {end}\n" + capsys.readouterr().out)
    assert "".join(out) == GOLDEN_INTEGRATE.read_text()


def _cli_frobenius_on_fixtures(capsys, primes):
    out = []
    for p in primes:
        for line in FIXTURE.read_text().splitlines():
            if line.startswith("#"):
                continue
            assert cli.main(["frobenius", "--curve", line, "--prime", p]) == 0
            out.append(f"# --prime {p} --curve {line}\n" + capsys.readouterr().out)
    return "".join(out)


def test_cli_frobenius_matches_golden(capsys):
    # written before the corrections went flat: it pins the key sets and
    # the row lengths of every correction, trimmed modulo p^Nw
    assert _cli_frobenius_on_fixtures(capsys, ("7", "11")) == GOLDEN_FROBENIUS.read_text()


def test_cli_frobenius_p13_matches_golden(capsys):
    assert _cli_frobenius_on_fixtures(capsys, ("13",)) == GOLDEN_FROBENIUS_P13.read_text()


def test_cli_frobenius_p17_matches_golden(capsys):
    # recorded before the pole steps and the series splits went to packed
    # columns: p = 17 puts the widest slots on the run path
    assert _cli_frobenius_on_fixtures(capsys, ("17",)) == GOLDEN_FROBENIUS_P17.read_text()


def test_cli_run_p11_matches_golden(tmp_path):
    out = tmp_path / "report.json"
    argv = ["run", "--input", str(FIXTURE), "--prime", "11", "--height-bound", "100"]
    assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_P11.read_bytes()


def test_cli_run_p13_matches_golden(tmp_path):
    # recorded before the disc phase moved to flat series
    out = tmp_path / "report.json"
    argv = ["run", "--input", str(FIXTURE), "--prime", "13", "--height-bound", "100"]
    assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_P13.read_bytes()


@pytest.mark.parametrize("fmt, golden", [("text", GOLDEN_TEXT), ("csv", GOLDEN_CSV)])
def test_cli_run_text_and_csv_match_goldens(tmp_path, fmt, golden):
    out = tmp_path / f"report.{fmt}"
    assert cli.main(["run", "--input", str(FIXTURE), "--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_cli_integrate_smoke(ex1):
    res = _run_cli(
        "integrate",
        "--curve",
        "[-103079215104,59055800320,-13656653824,1613758464,-101220352,3134464,-37024,1]",
        "--from",
        "inf",
        "--to",
        "32,0",
        "--prime",
        "7",
        "--precision",
        "10",
    )
    assert res.returncode == 0
    assert "int x^0 dx/2y : O(7^" in res.stdout


def test_cli_frobenius_smoke():
    res = _run_cli(
        "frobenius",
        "--curve",
        "[1,4,6,4,-7,-16,0,8]",
        "--prime",
        "7",
        "--precision",
        "8",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["zeta_char_poly"][0] == 1
    assert doc["jacobian_order_fp"] > 0


def test_cli_run_partial_failure_exit_code(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("[0,0,0,0,0,0,0,1]\n[1,4,6,4,-7,-16,0,8]\n")
    res = _run_cli(
        "run", "--input", str(path), "--height-bound", "10", "--format", "json"
    )
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert len(doc["failures"]) == 1
