"""Command-line behavior: flags, outputs, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from common_eig import (
    AnalysisConfig,
    Mode,
    common_eigenvalues,
    emit_json_report,
    parse_matrix,
)
from common_eig import cli
from common_eig.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


def test_cli_reference_pair_summary(matrix_files, capsys):
    path_a, path_b = matrix_files
    assert run_cli([path_a, path_b]) == 0
    out = capsys.readouterr().out
    assert "interval: [0, 4]" in out
    assert "roots A: 2, 3" in out
    assert "roots B: 1, 3, 4" in out
    assert "common: 3" in out
    assert "evaluations: A=41 B=41 total=82" in out


def test_cli_prints_unrefined_roots_as_cells(tmp_path, capsys):
    # A's 2.55 and B's 2.25 have no partner within match_tol, so each is
    # left as its grid cell and printed as its bracket, in both modes
    (tmp_path / "A.mat").write_text("3\n2.55 0 0\n0 3 0\n0 0 1\n")
    (tmp_path / "B.mat").write_text("3\n3 0 0\n0 2.25 0\n0 0 1\n")
    argv = [str(tmp_path / "A.mat"), str(tmp_path / "B.mat"), "--mode", "both"]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in ("roots A: 1, [2.5, 2.6], 3", "roots B: 1, [2.2, 2.3], 3", "common: 1, 3",
                 "evaluations: A=21 B=21 total=42"):
        assert lines.count(line) == 2


def test_cli_missing_argument_is_usage_error(matrix_files, capsys):
    path_a, _ = matrix_files
    assert run_cli([path_a]) == 1
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "--scan-table" in capsys.readouterr().out


def test_cli_conventional_json(matrix_files, tmp_path, capsys):
    path_a, path_b = matrix_files
    out_path = tmp_path / "out.json"
    code = run_cli(
        [path_a, path_b, "--mode", "conventional", "--json", str(out_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["mode"] == "conventional"
    assert payload["interval_a"] == {"lo": -4.0, "hi": 8.0, "empty": False}
    out = capsys.readouterr().out
    assert "interval A: [-4, 8]" in out
    assert "interval B: [0, 4]" in out


def test_cli_missing_file(tmp_path, matrix_files, capsys):
    _, path_b = matrix_files
    assert run_cli([str(tmp_path / "absent.mat"), path_b]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_malformed_matrix(tmp_path, matrix_files, capsys):
    _, path_b = matrix_files
    bad = tmp_path / "bad.mat"
    bad.write_text("2\n1 oops\n3 4\n")
    assert run_cli([str(bad), path_b]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def _summary_and_tables(path_a, path_b, prefix, capsys):
    assert run_cli([path_a, path_b, "--mode", "both", "--scan-table", prefix]) == 0
    out = capsys.readouterr().out
    summary = [line for line in out.splitlines() if not line.startswith("wall time:")]
    return summary, [Path(f"{prefix}_{name}.csv").read_bytes() for name in "AB"]


def test_cli_reads_files_with_byte_order_mark(matrix_files, tmp_path, capsys):
    # as some Windows editors save them: a UTF-8 BOM and CRLF line ends
    copies = []
    for path in map(Path, matrix_files):
        copy = tmp_path / f"bom_{path.name}"
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
        copies.append(str(copy))
    plain = _summary_and_tables(*matrix_files, str(tmp_path / "plain"), capsys)
    assert _summary_and_tables(*copies, str(tmp_path / "bom"), capsys) == plain


def test_cli_non_utf8_file_is_input_error(tmp_path, matrix_files, capsys):
    _, path_b = matrix_files
    latin = tmp_path / "latin1.mat"
    latin.write_bytes("# r\u00e9sum\u00e9\n1\n7\n".encode("latin-1"))
    assert run_cli([str(latin), path_b]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {latin}: ")
    assert "can't decode byte 0xe9" in err


def test_cli_path_with_nul_byte_is_input_error(matrix_files, capsys):
    # open() rejects such a path with ValueError, not OSError
    _, path_b = matrix_files
    assert run_cli(["a\x00b.mat", path_b]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cli_overflowing_matrix_is_numeric_error(tmp_path, matrix_files, capsys):
    _, path_b = matrix_files
    big = tmp_path / "big.mat"
    big.write_text("2\n1e308 1e308\n0 1e308\n", encoding="utf-8")
    assert run_cli([str(big), path_b]) == 2
    assert "overflows float64" in capsys.readouterr().err


def test_cli_grid_too_large_to_hold_is_numeric_error(tmp_path, capsys):
    # diag(1e308, -1e308) against [[1e308, 1], [0, 2]] share about [1, 1e308],
    # more grid points at step 0.1 than float64 counts: one line, exit 2,
    # and no evaluation, where the run used to fill memory with the grid.
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    a.write_text("2\n1e308 0\n0 -1e308\n", encoding="utf-8")
    b.write_text("2\n1e308 1\n0 2\n", encoding="utf-8")
    assert run_cli([str(a), str(b)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: step 0.1 puts about inf points on the scan grid, more than 1e+08\n",
    )


def test_cli_svg_past_float64_is_numeric_error(tmp_path, capsys):
    # diag(1e308, -1e308) against [[5]]: the answer and the JSON report
    # come first, then the disc diagram, which float64 cannot span.
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    a.write_text("2\n1e308 0\n0 -1e308\n", encoding="utf-8")
    b.write_text("1\n5\n", encoding="utf-8")
    out_json, out_svg = tmp_path / "out.json", tmp_path / "out.svg"
    assert run_cli([str(a), str(b), "--json", str(out_json), "--svg", str(out_svg)]) == 2
    out, err = capsys.readouterr()
    assert "common: (none)" in out
    assert err == "error: the disc diagram's span exceeds the float64 range\n"
    assert json.loads(out_json.read_text())["roots_b"][0]["value"] == 5.0
    assert not out_svg.exists()


def test_cli_invalid_flag_value(matrix_files, capsys):
    path_a, path_b = matrix_files
    assert run_cli([path_a, path_b, "--step", "-1"]) == 1
    assert run_cli([path_a, path_b, "--bench", "-3"]) == 1
    assert run_cli([path_a, path_b, "--mode", "sideways"]) == 1
    # non-finite steps and tolerances are input errors, not silent results
    for flag in ("--step", "--width-tol", "--match-tol", "--dedupe-tol"):
        for value in ("nan", "inf"):
            assert run_cli([path_a, path_b, flag, value]) == 1
    assert "match_tol must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["common_eig", "common_eig.cli"])
def test_python_m_writes_the_golden_tables(module, tmp_path):
    # python -m on the package (its __main__) and on the cli module, each
    # in a fresh interpreter, on the demo pair
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    data = ROOT / "demos" / "data"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         str(data / "A.mat"), str(data / "B.mat"), "--scan-table", str(tmp_path / "t")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "common: 3" in done.stdout.splitlines()
    for name in "AB":
        golden = ROOT / "tests" / "golden" / f"reference_scan_{name}.csv"
        assert (tmp_path / f"t_{name}.csv").read_bytes() == golden.read_bytes()


def test_main_exits_with_the_run_code(matrix_files, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["common-eig", *matrix_files, "--no-such-flag"])
    with pytest.raises(SystemExit) as exc_info:
        cli.main()
    assert exc_info.value.code == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_cli_writes_svg_and_scan_tables(matrix_files, tmp_path, capsys):
    path_a, path_b = matrix_files
    svg_path = tmp_path / "discs.svg"
    prefix = tmp_path / "scan"
    code = run_cli(
        [path_a, path_b, "--svg", str(svg_path), "--scan-table", str(prefix)]
    )
    assert code == 0
    capsys.readouterr()
    assert svg_path.read_text().count("<circle") == 6
    table_a = (tmp_path / "scan_A.csv").read_text()
    table_b = (tmp_path / "scan_B.csv").read_text()
    assert table_a.startswith("sr_no,lambda,det,remark\n1,0,-30.0000,\n")
    assert "root=4" in table_b


def test_cli_both_modes(matrix_files, capsys):
    path_a, path_b = matrix_files
    assert run_cli([path_a, path_b, "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "mode: proposed" in out
    assert "mode: conventional" in out


def test_cli_both_modes_outputs_use_intersected_run(matrix_files, tmp_path, capsys):
    path_a, path_b = matrix_files
    out_path = tmp_path / "report.json"
    run_cli([path_a, path_b, "--mode", "both", "--json", str(out_path)])
    capsys.readouterr()
    assert json.loads(out_path.read_text())["mode"] == "proposed"


def test_cli_bench_output(matrix_files, capsys):
    path_a, path_b = matrix_files
    assert run_cli([path_a, path_b, "--bench", "2"]) == 0
    out = capsys.readouterr().out
    assert "benchmark (2 repetitions):" in out
    assert "eval ratio:" in out


def test_cli_bench_reports_modes_that_disagree(tmp_path, capsys):
    # 1.08 is common; A's conventional grid from -2 puts 1.02 and 1.08 in
    # one cell, where they cancel, so only the proposed mode finds it
    path_a = tmp_path / "A.mat"
    path_b = tmp_path / "B.mat"
    path_a.write_text("3\n1.02 0.3 0.3\n0 1.08 0.3\n0 0 -2\n")
    path_b.write_text("2\n1.08 0.2\n0 2\n")
    assert run_cli([str(path_a), str(path_b), "--bench", "1"]) == 0
    out, err = capsys.readouterr()
    assert "common: 1.08" in out
    assert "  modes agree: no" in out
    assert err == ""


def test_cli_empty_intersection(tmp_path, capsys):
    one = tmp_path / "one.mat"
    ten = tmp_path / "ten.mat"
    one.write_text("1\n1\n")
    ten.write_text("1\n10\n")
    prefix = tmp_path / "scan"
    report = tmp_path / "report.json"
    code = run_cli([str(one), str(ten), "--scan-table", str(prefix), "--json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "interval: (empty)" in out
    assert "common: (none)" in out
    for name in ("A", "B"):
        assert (tmp_path / f"scan_{name}.csv").read_text() == "sr_no,lambda,det,remark\n"
    payload = json.loads(report.read_text())
    assert payload["common"] == []
    assert payload["eval_count_a"] == payload["eval_count_b"] == 0


def test_cli_scan_tables_list_the_evaluated_grid_points(tmp_path, capsys):
    # A = 3*I - J (J all ones) has Gerschgorin interval [-1, 5], its
    # tridiagonal form [-sqrt(3), 2 + sqrt(3)]; B has eigenvalues 3,
    # 4.5, 6, 7 and interval [3, 7.25].  A's window is the part of the
    # grid of [3, 5] that brackets [3, 2 + sqrt(3)], [3, 3.8].  Each table
    # lists the grid points of its window, the run's evaluations less its
    # bisection steps: 9 of the 21 points of [3, 5] for A.
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    a.write_text("4\n2 -1 -1 -1\n-1 2 -1 -1\n-1 -1 2 -1\n-1 -1 -1 2\n")
    b.write_text(
        "4\n5.125 -0.625 -1.375 -0.125\n-0.625 5.125 -0.125 -1.375\n"
        "-1.375 -0.125 5.125 -0.625\n-0.125 -1.375 -0.625 5.125\n"
    )
    prefix, out_json = tmp_path / "t", tmp_path / "r.json"
    assert run_cli([str(a), str(b), "--scan-table", str(prefix), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "window A: [3, 3.8]\nwindow B: [3, 5]\n" in out
    assert "common: 3\n" in out
    payload = json.loads(out_json.read_text())
    assert payload["window_a"] == {"lo": 3.0, "hi": 3.8000000000000003, "empty": False}
    for name in ("a", "b"):
        rows = (tmp_path / f"t_{name.upper()}.csv").read_text().count("\n") - 1
        steps = sum(r["iterations"] for r in payload[f"roots_{name}"])
        assert rows == payload[f"eval_count_{name}"] - steps
    assert payload["eval_count_a"] == 9


@pytest.mark.parametrize(
    "flags, config",
    [
        ([], AnalysisConfig()),
        (
            ["--mode", "conventional", "--step", "0.05", "--width-tol", "1e-9",
             "--match-tol", "1e-5", "--dedupe-tol", "1e-5"],
            AnalysisConfig(mode=Mode.CONVENTIONAL, step=0.05, width_tol=1e-9,
                           match_tol=1e-5, dedupe_tol=1e-5),
        ),
    ],
    ids=["defaults", "every-flag"],
)
def test_cli_flags_reach_the_run(matrix_files, tmp_path, capsys, monkeypatch, flags, config):
    # Every flag, and every default (AnalysisConfig's own), reaches the one
    # run, and the JSON report is that run's.  The reference pair's roots
    # sit on grid points, so the tolerances show only in the report's
    # config; the config the pipeline received is checked as well.
    seen = []

    def spy(a, b, cfg):
        seen.append(cfg)
        return common_eigenvalues(a, b, cfg)

    monkeypatch.setattr(cli, "common_eigenvalues", spy)
    path_a, path_b = matrix_files
    out_path = tmp_path / "out.json"
    assert run_cli([path_a, path_b, *flags, "--json", str(out_path)]) == 0
    capsys.readouterr()
    assert seen == [config]
    a, b = (parse_matrix(Path(p).read_text(encoding="utf-8")) for p in matrix_files)
    expected = json.loads(emit_json_report(common_eigenvalues(a, b, config)))
    written = json.loads(out_path.read_text())
    for payload in (expected, written):
        del payload["wall_time_seconds"]
    assert written == expected


def test_json_report_names_its_config(matrix_files, tmp_path, capsys):
    # The reference roots sit on grid points, so these tolerances move no
    # root or count: the reports differ in their config alone.
    path_a, path_b = matrix_files
    payloads = []
    for flags in ([], ["--width-tol", "1e-9", "--match-tol", "1e-5", "--dedupe-tol", "1e-5"]):
        out_path = tmp_path / "out.json"
        assert run_cli([path_a, path_b, *flags, "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        del payload["wall_time_seconds"]
        payloads.append(payload)
    capsys.readouterr()
    default, tuned = payloads
    assert default["config"] == {
        "mode": "proposed", "step": 0.1, "width_tol": 1e-10, "match_tol": 1e-6,
        "dedupe_tol": 1e-6,
    }
    assert tuned.pop("config") == {
        **default.pop("config"), "width_tol": 1e-9, "match_tol": 1e-5, "dedupe_tol": 1e-5,
    }
    assert tuned == default


def test_unreadable_output_path_is_io_error(matrix_files, tmp_path, capsys):
    path_a, path_b = matrix_files
    assert run_cli([path_a, path_b, "--json", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "upper",
    [0.0, 1e159],
    ids=["symmetric", "triangular"],
)
def test_cli_json_is_standard_when_residuals_overflow(tmp_path, capsys, upper):
    # At 1e160 scale |f| overflows float64 near every root: the report must
    # still be standard JSON (no Infinity token) and nothing may warn.
    path = tmp_path / "big.mat"
    path.write_text(
        f"3\n1.05e160 {upper} 0\n0 1.5731e160 {upper}\n0 0 2.95e160\n"
    )
    out_path = tmp_path / "out.json"
    args = [str(path), str(path), "--step", "1e159", "--width-tol", "1e150",
            "--match-tol", "1e151", "--dedupe-tol", "1e151", "--json", str(out_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(out_path.read_text(), parse_constant=reject)
    assert None in [r["residual"] for r in payload["roots_a"]]
    assert len(payload["common"]) == 3
    assert capsys.readouterr().err == ""
