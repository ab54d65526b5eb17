"""The tracer: wrappers come off completely, and calls are credited right."""

import contextlib
import importlib
import io

import pytest

import layers
from spans import TARGETS, Tracer

A_TEXT = "3\n3 1 4\n0 2 6\n0 0 5\n"
B_TEXT = "3\n3 -1 0\n-1 2 -1\n0 -1 3\n"


def _current():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}


def test_wrappers_installed_then_restored():
    before = _current()
    with Tracer():
        during = _current()
        assert all(during[k] is not before[k] for k in before)
    after = _current()
    assert all(after[k] is before[k] for k in before)


def test_restored_after_an_exception():
    before = _current()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(v is before[k] for k, v in _current().items())


def test_install_failure_restores_what_was_installed():
    before = _current()
    targets = TARGETS[:3] + (("common_eig.pipeline", "no_such_name", "x", None),)
    with pytest.raises(AttributeError):
        with Tracer(targets):
            pass
    assert all(v is before[k] for k, v in _current().items())


def test_tracer_cannot_be_entered_twice():
    before = _current()
    tracer = Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.__enter__()
    assert all(v is before[k] for k, v in _current().items())


def test_pipeline_counts_match_the_report():
    from common_eig import common_eigenvalues, parse_matrix

    a, b = parse_matrix(A_TEXT), parse_matrix(B_TEXT)
    with Tracer() as tracer:
        tracer.pair = 0
        report = tracer.call("pipeline.common_eigenvalues", common_eigenvalues, a, b)
    credit = layers.credit_evals(tracer.spans)[0]
    assert credit["rootfind.scan"] + credit["rootfind.bisect"] == 82
    assert report.eval_count_a + report.eval_count_b == 82
    assert credit[None] == 0
    assert layers.counter_mismatches(tracer.spans) == []
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parents["rootfind.scan"] == "rootfind.find_real_roots"
    assert parents["rootfind.find_real_roots"] == "pipeline.common_eigenvalues"


def test_counter_check_catches_a_wrong_report():
    from dataclasses import replace

    from common_eig import common_eigenvalues, parse_matrix

    a, b = parse_matrix(A_TEXT), parse_matrix(B_TEXT)
    with Tracer() as tracer:
        tracer.pair = 0
        tracer.call("pipeline.common_eigenvalues", common_eigenvalues, a, b)
    root = next(s for s in tracer.spans if s.name == "pipeline.common_eigenvalues")
    root.info = replace(root.info, eval_count_a=root.info.eval_count_a + 1)
    assert len(layers.counter_mismatches(tracer.spans)) == 1


def test_cli_rescan_is_credited_separately(tmp_path):
    from common_eig.cli import run_cli

    (tmp_path / "A.mat").write_text(A_TEXT)
    (tmp_path / "B.mat").write_text(B_TEXT)
    argv = [str(tmp_path / "A.mat"), str(tmp_path / "B.mat"), "--scan-table", str(tmp_path / "t")]
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.pair = 5
        assert tracer.call("cli.run_cli", run_cli, argv) == 0
    credit = layers.credit_evals(tracer.spans)[5]
    # the reference pair scans 41 grid points per matrix; the CSV re-scan repeats them
    assert credit["cli.scan"] == 82
    assert credit["rootfind.scan"] + credit["rootfind.bisect"] == 82
    assert layers.counter_mismatches(tracer.spans) == []
    assert {s.name for s in tracer.spans} >= {"matrix.parse_matrix", "reporting.emit_scan_table"}


def test_spans_written_as_json_lines(tmp_path):
    import json

    from common_eig import common_eigenvalues, parse_matrix

    a, b = parse_matrix(A_TEXT), parse_matrix(B_TEXT)
    with Tracer() as tracer:
        tracer.call("pipeline.common_eigenvalues", common_eigenvalues, a, b)
    tracer.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "pair", "info"}
    assert all(r["start"] <= r["end"] for r in rows)
