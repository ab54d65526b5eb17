"""Emitters: SVG structure/determinism, CSV layout, JSON schema."""

import json
import re

import pytest

from common_eig import (
    EMPTY_INTERVAL,
    Axis,
    Disc,
    RealInterval,
    char_fn,
    common_eigenvalues,
    discs_of,
    emit_json_report,
    emit_scan_table,
    find_real_roots,
    render_svg,
    scan,
)

def _row_discs(*matrices):
    return [discs_of(m, Axis.ROW) for m in matrices]


COORD = re.compile(r'(?:cx|cy|r|x|y|x1|x2|y1|y2|width|height)="(-?\d+\.\d+)"')


# -------------------------------------------------------------------- SVG

def test_svg_reference_structure(mat_a, mat_b):
    svg = render_svg(*_row_discs(mat_a, mat_b), RealInterval(0, 4))
    assert svg.count("<circle") == 6
    assert svg.count('class="disc-a"') == 3
    assert svg.count('class="disc-b"') == 3
    assert '<rect class="band" x="0.000000"' in svg
    assert 'width="4.000000"' in svg
    # painting order: axis, discs A, discs B, band, labels
    order = [
        svg.index('class="axis"'),
        svg.index('class="disc-a"'),
        svg.index('class="disc-b"'),
        svg.index('class="band"'),
        svg.index('class="label"'),
    ]
    assert order == sorted(order)


def test_svg_coordinates_have_six_decimals(mat_a, mat_b):
    svg = render_svg(*_row_discs(mat_a, mat_b), RealInterval(0, 4))
    coords = COORD.findall(svg)
    assert coords
    assert all(len(c.split(".")[1]) == 6 for c in coords)


def test_svg_byte_identical_across_runs(mat_a, mat_b):
    args = (*_row_discs(mat_a, mat_b), RealInterval(0, 4))
    assert render_svg(*args) == render_svg(*args)


def test_svg_empty_inputs_axes_only():
    svg = render_svg([], [], EMPTY_INTERVAL)
    assert "<circle" not in svg
    assert "<rect" not in svg
    assert 'class="axis"' in svg
    assert "viewBox" in svg


def test_svg_wide_view_keeps_few_ticks():
    svg = render_svg([Disc(0.0, 1e4, 0, Axis.ROW)], [], EMPTY_INTERVAL)
    ticks = re.findall(r'<line class="tick" x1="(-?\d+)\.0+"', svg)
    assert 2 <= len(ticks) <= 21
    assert svg.count('class="label"') == len(ticks)
    steps = {int(b) - int(a) for a, b in zip(ticks, ticks[1:])}
    assert len(steps) == 1


def test_svg_zero_radius_disc():
    svg = render_svg([Disc(5.0, 0.0, 0, Axis.ROW)], [], EMPTY_INTERVAL)
    assert 'r="0.000000"' in svg


def test_svg_degenerate_band():
    svg = render_svg([Disc(0.0, 2.0, 0, Axis.ROW)], [], RealInterval(1, 1))
    assert 'class="band"' in svg
    assert 'width="0.000000"' in svg


# -------------------------------------------------------------------- CSV

def test_scan_table_reference_a(mat_a):
    f = lambda x: char_fn(mat_a, x)
    interval = RealInterval(0, 4)
    records = scan(f, interval)
    roots = find_real_roots(f, interval)
    csv = emit_scan_table(records, roots)
    lines = csv.split("\n")
    assert lines[0] == "sr_no,lambda,det,remark"
    assert lines[1] == "1,0,-30.0000,"
    assert lines[21] == "21,2,0.0000,root=2"
    assert lines[31] == "31,3,0.0000,root=3"
    assert len(lines) == len(records) + 2  # header + rows + trailing newline
    assert csv.endswith("\n")
    assert "\r" not in csv


def test_scan_table_sign_change_remark():
    records = scan(lambda x: x - 0.55, RealInterval(0, 1))
    csv = emit_scan_table(records, [])
    assert "6,0.5,-0.0500,sign change" in csv


def test_scan_table_small_values_use_scientific():
    records = scan(lambda x: 5e-4, RealInterval(0, 0.1), step=0.1)
    csv = emit_scan_table(records, [])
    assert "5.0000e-04" in csv


def test_scan_table_lambda_formatting():
    records = scan(lambda x: 1.0, RealInterval(0, 0.25), step=0.125)
    csv = emit_scan_table(records, [])
    lines = csv.strip().split("\n")
    # 0.125 keeps four decimals, 0 and 0.25 drop trailing zeros
    assert lines[1].startswith("1,0,")
    assert lines[2].startswith("2,0.125,")
    assert lines[3].startswith("3,0.25,")


def test_scan_table_empty_records():
    assert emit_scan_table([], []) == "sr_no,lambda,det,remark\n"


def test_scan_table_row_count_invariant(mat_b):
    records = scan(lambda x: char_fn(mat_b, x), RealInterval(0, 4))
    csv = emit_scan_table(records, [])
    assert csv.count("\n") == len(records) + 1


# ------------------------------------------------------------------- JSON

def test_json_reference_report(mat_a, mat_b):
    report = common_eigenvalues(mat_a, mat_b)
    payload = json.loads(emit_json_report(report))
    assert list(payload) == [
        "mode",
        "interval_a",
        "interval_b",
        "search_interval_a",
        "search_interval_b",
        "roots_a",
        "roots_b",
        "common",
        "eval_count_a",
        "eval_count_b",
        "wall_time_seconds",
    ]
    assert payload["mode"] == "proposed"
    assert payload["search_interval_a"] == {"lo": 0.0, "hi": 4.0, "empty": False}
    assert payload["common"] == [3.0]
    assert payload["eval_count_a"] == 41
    # full-precision round trip
    assert payload["wall_time_seconds"] == report.wall_time
    assert [r["value"] for r in payload["roots_b"]] == [1.0, 3.0, 4.0]
    assert payload["roots_b"][-1]["origin"] == "endpoint_zero"
    assert payload["roots_a"][0]["iterations"] == 0


def test_json_empty_intersection_report():
    from common_eig import DenseMatrix

    report = common_eigenvalues(DenseMatrix([[1.0]]), DenseMatrix([[10.0]]))
    payload = json.loads(emit_json_report(report))
    assert payload["search_interval_a"] == {"lo": None, "hi": None, "empty": True}
    assert payload["common"] == []
    assert payload["eval_count_a"] == 0
    assert payload["eval_count_b"] == 0


def test_json_round_trips_root_fields(mat_b):
    report = common_eigenvalues(mat_b, mat_b)
    payload = json.loads(emit_json_report(report))
    for parsed, root in zip(payload["roots_a"], report.roots_a):
        assert parsed["value"] == root.value
        assert parsed["residual"] == root.residual
        assert parsed["iterations"] == root.iterations
