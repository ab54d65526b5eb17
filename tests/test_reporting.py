"""Emitters: SVG structure/determinism, CSV layout, JSON schema."""

import json
import re

import numpy as np
import pytest

from common_eig import (
    EMPTY_INTERVAL,
    DenseMatrix,
    Disc,
    RealInterval,
    char_fn,
    common_eigenvalues,
    discs_of,
    emit_json_report,
    emit_scan_table,
    matrix_bounds,
    render_svg,
    scan,
)

def _row_discs(*matrices):
    return [discs_of(m) for m in matrices]


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
    svg = render_svg([Disc(0.0, 1e4)], [], EMPTY_INTERVAL)
    ticks = re.findall(r'<line class="tick" x1="(-?\d+)\.0+"', svg)
    assert 2 <= len(ticks) <= 21
    assert svg.count('class="label"') == len(ticks)
    steps = {int(b) - int(a) for a, b in zip(ticks, ticks[1:])}
    assert len(steps) == 1


def test_svg_zero_radius_disc():
    svg = render_svg([Disc(5.0, 0.0)], [], EMPTY_INTERVAL)
    assert 'r="0.000000"' in svg


def test_svg_span_past_float64_raises():
    # A ValueError before any SVG is built, not an OverflowError from the
    # ticks or an "inf" coordinate: the view's width, its left edge, its
    # height, or the band's width past the float64 range.
    for discs_a, discs_b, band in (
        ([Disc(1e308, 0.0), Disc(-1e308, 0.0)], [Disc(5.0, 0.0)], RealInterval(5, 5)),
        ([Disc(-1.79e308, 0.0)], [Disc(-1e308, 0.0)], EMPTY_INTERVAL),
        ([Disc(0.0, 1e308)], [], EMPTY_INTERVAL),
        ([Disc(0.0, 1.0)], [], RealInterval(-1e308, 1e308)),
    ):
        with pytest.raises(ValueError, match="span exceeds the float64 range"):
            render_svg(discs_a, discs_b, band)
    # a view as wide as float64 holds still renders, with few ticks
    svg = render_svg([Disc(0.0, 7e307)], [], EMPTY_INTERVAL)
    assert 2 <= svg.count('class="tick"') <= 21


def test_svg_degenerate_band():
    svg = render_svg([Disc(0.0, 2.0)], [], RealInterval(1, 1))
    assert 'class="band"' in svg
    assert 'width="0.000000"' in svg


# -------------------------------------------------------------------- CSV

def test_scan_table_reference_a(mat_a):
    f = lambda x: char_fn(mat_a, x)
    interval = RealInterval(0, 4)
    records = scan(f, interval)
    csv = emit_scan_table(records)
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
    csv = emit_scan_table(records)
    assert "6,0.5,-0.0500,sign change" in csv


def test_scan_table_small_values_use_scientific():
    records = scan(lambda x: 5e-4, RealInterval(0, 0.1), step=0.1)
    csv = emit_scan_table(records)
    assert "5.0000e-04" in csv


def test_scan_table_lambda_formatting():
    records = scan(lambda x: 1.0, RealInterval(0, 0.25), step=0.125)
    csv = emit_scan_table(records)
    lines = csv.strip().split("\n")
    # ten significant digits, without trailing zeros
    assert lines[1].startswith("1,0,")
    assert lines[2].startswith("2,0.125,")
    assert lines[3].startswith("3,0.25,")


@pytest.mark.parametrize("scale", [1e-4, 1e-8])
def test_scan_table_lambda_keeps_every_grid_point_off_desk_scale(mat_a, scale):
    # A scaled matrix scanned with a scaled step: ten significant digits
    # give every grid point its own lambda, where four fixed decimals
    # would merge them.
    m = DenseMatrix(scale * mat_a.entries)
    records = scan(lambda x: char_fn(m, x), matrix_bounds(m), step=0.1 * scale)
    rows = emit_scan_table(records).splitlines()[1:]
    assert len(rows) == len(records) > 20
    assert len({row.split(",")[1] for row in rows}) == len(rows)


def test_scan_table_empty_records():
    assert emit_scan_table([]) == "sr_no,lambda,det,remark\n"


def test_scan_table_row_count_invariant(mat_b):
    records = scan(lambda x: char_fn(mat_b, x), RealInterval(0, 4))
    csv = emit_scan_table(records)
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
        "window_a",
        "window_b",
        "roots_a",
        "roots_b",
        "common",
        "eval_count_a",
        "eval_count_b",
        "config",
        "wall_time_seconds",
    ]
    assert payload["mode"] == "proposed"
    assert payload["search_interval_a"] == {"lo": 0.0, "hi": 4.0, "empty": False}
    # A's G and B's T have Gerschgorin intervals that cover [0, 4]
    assert payload["window_a"] == payload["window_b"] == payload["search_interval_a"]
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
        assert parsed["bracket_lo"] == parsed["bracket_hi"] == root.value


def test_json_gives_a_cell_root_its_bracket():
    # A's 2.55 has no partner in B within match_tol, so it stays a cell
    report = common_eigenvalues(
        DenseMatrix(np.diag([2.55, 3.0, 1.0])), DenseMatrix(np.diag([3.0, 2.25, 1.0]))
    )
    payload = json.loads(emit_json_report(report))
    assert list(payload["roots_a"][1]) == [
        "value", "residual", "bracket_lo", "bracket_hi", "iterations", "origin",
    ]
    for parsed, root in zip(payload["roots_a"] + payload["roots_b"], report.roots_a + report.roots_b):
        assert (parsed["bracket_lo"], parsed["bracket_hi"]) == (root.bracket_lo, root.bracket_hi)
        assert parsed["origin"] == root.origin.value
    cell = payload["roots_a"][1]
    assert (cell["origin"], cell["iterations"]) == ("cell", 0)
    assert cell["bracket_lo"] < 2.55 < cell["bracket_hi"]
    assert cell["value"] in (cell["bracket_lo"], cell["bracket_hi"])
