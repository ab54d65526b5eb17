"""Deterministic emitters: SVG disc diagram, CSV scan table, JSON report.

Every emitter returns a character stream with fixed formatting so that
identical inputs yield byte-identical output — the golden-file tests
depend on this.  Coordinates in the SVG carry exactly six decimals; the
CSV uses LF endings and needs no quoting (no field can contain a comma).
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .gerschgorin import Disc, RealInterval
from .pipeline import CommonEigenReport
from .rootfind import RootEstimate, ScanEvent, ScanRecord

__all__ = ["render_svg", "emit_scan_table", "emit_json_report"]

_SVG_STYLE = (
    ".axis{stroke:#444444;fill:none}"
    ".tick{stroke:#444444;fill:none}"
    ".disc-a{stroke:#1f77b4;fill:#1f77b4;fill-opacity:0.08}"
    ".disc-b{stroke:#d62728;fill:#d62728;fill-opacity:0.08}"
    ".band{fill:#2ca02c;fill-opacity:0.25;stroke:none}"
    ".label{fill:#222222;stroke:none;text-anchor:middle;font-family:monospace}"
)


# Tick steps are 1, 2, 5, 10, 20, 50, ...: the smallest that keeps at most
# this many ticks.  Views spanning up to this many integers keep step 1.
_MAX_TICKS = 20


def _ticks(lo: float, hi: float) -> list[int]:
    """Integer tick positions in [lo, hi] on the smallest 1-2-5 step that fits."""
    scale = 1
    while True:
        for step in (scale, 2 * scale, 5 * scale):
            first, last = math.ceil(lo / step), math.floor(hi / step)
            if last - first < _MAX_TICKS:
                return [i * step for i in range(first, last + 1)]
        scale *= 10


def _f(x: float) -> str:
    # fixed six decimals everywhere a coordinate appears
    return f"{x:.6f}"


def render_svg(
    discs_a: Sequence[Disc],
    discs_b: Sequence[Disc],
    intersection: RealInterval,
) -> str:
    """Draw both families of discs on the real axis as an SVG document.

    Discs are full circles centered on the axis; the intersection interval,
    when non-empty, appears as a shaded vertical band.  Painting order is
    axes, A discs, B discs, band, tick labels, so the band shades whatever
    it overlaps.  The viewBox hugs the union of disc extents with a 10%
    margin and falls back to [-1, 1] x [-1, 1] when there are no discs.
    Ticks sit on integers 1, 2, 5, 10, 20, ... apart, at most 20 of them.
    Raises ValueError where the view or the band is wider than float64
    holds, as for discs at -1e308 and 1e308.
    """
    discs = list(discs_a) + list(discs_b)
    if discs:
        x_lo = min(d.center - d.radius for d in discs)
        x_hi = max(d.center + d.radius for d in discs)
        y_amp = max(d.radius for d in discs)
    else:
        x_lo, x_hi, y_amp = -1.0, 1.0, 1.0

    x_span = x_hi - x_lo
    if x_span == 0.0:
        x_lo -= 1.0
        x_hi += 1.0
        x_span = 2.0
    if y_amp == 0.0:
        y_amp = 1.0

    margin_x = 0.1 * x_span
    margin_y = 0.1 * (2.0 * y_amp)
    vb_x = x_lo - margin_x
    vb_y = -y_amp - margin_y
    vb_w = x_span + 2.0 * margin_x
    vb_h = 2.0 * y_amp + 2.0 * margin_y
    band_w = 0.0 if intersection.empty else intersection.hi - intersection.lo
    if not all(map(math.isfinite, (vb_x, vb_w, vb_x + vb_w, vb_h, band_w))):
        raise ValueError("the disc diagram's span exceeds the float64 range")

    stroke = 0.004 * vb_w
    tick_len = 0.02 * vb_h
    font_size = 0.05 * vb_h
    label_y = 2.5 * tick_len + font_size

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(vb_x)} {_f(vb_y)} {_f(vb_w)} {_f(vb_h)}">',
        f"<style>{_SVG_STYLE}</style>",
    ]

    # real axis plus integer tick marks
    lines.append('<g stroke-width="%s">' % _f(stroke))
    lines.append(
        f'<line class="axis" x1="{_f(vb_x)}" y1="{_f(0.0)}" '
        f'x2="{_f(vb_x + vb_w)}" y2="{_f(0.0)}"/>'
    )
    ticks = _ticks(vb_x, vb_x + vb_w)
    for t in ticks:
        lines.append(
            f'<line class="tick" x1="{_f(float(t))}" y1="{_f(-tick_len)}" '
            f'x2="{_f(float(t))}" y2="{_f(tick_len)}"/>'
        )

    for cls, family in (("disc-a", discs_a), ("disc-b", discs_b)):
        for d in family:
            lines.append(
                f'<circle class="{cls}" cx="{_f(d.center)}" cy="{_f(0.0)}" '
                f'r="{_f(d.radius)}"/>'
            )

    if not intersection.empty:
        lines.append(
            f'<rect class="band" x="{_f(intersection.lo)}" y="{_f(vb_y)}" '
            f'width="{_f(band_w)}" height="{_f(vb_h)}"/>'
        )

    for t in ticks:
        lines.append(
            f'<text class="label" x="{_f(float(t))}" y="{_f(label_y)}" '
            f'font-size="{_f(font_size)}">{t}</text>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _fmt_lambda(lam: float) -> str:
    s = f"{lam:.10g}"
    return "0" if s == "-0" else s


def _fmt_det(value: float) -> str:
    if value == 0.0:
        return "0.0000"
    if abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.4f}"


def emit_scan_table(records: Sequence[ScanRecord]) -> str:
    """Lay out scan records as a CSV table, one row per grid point.

    λ is written to ten significant digits, and -0 as 0.  A zero-hit row's
    remark names its own λ as the root (``find_real_roots`` reports a zero
    hit at its grid point); sign-change rows are flagged; all other
    remarks are empty.
    """
    lines = ["sr_no,lambda,det,remark"]
    for sr_no, rec in enumerate(records, start=1):
        lam = _fmt_lambda(rec.lam)
        if rec.event is ScanEvent.ZERO_HIT:
            remark = f"root={lam}"
        elif rec.event is ScanEvent.SIGN_CHANGE_AHEAD:
            remark = "sign change"
        else:
            remark = ""
        lines.append(f"{sr_no},{lam},{_fmt_det(rec.value)},{remark}")
    return "\n".join(lines) + "\n"


def _interval_obj(interval: RealInterval) -> dict:
    return {"lo": interval.lo, "hi": interval.hi, "empty": interval.empty}


def _root_obj(root: RootEstimate) -> dict:
    return {
        "value": root.value,
        # |f| overflows float64 at large scale; JSON has no inf, so null.
        "residual": root.residual if math.isfinite(root.residual) else None,
        "iterations": root.iterations,
        "origin": root.origin.value,
    }


def emit_json_report(report: CommonEigenReport) -> str:
    """Serialize a pipeline report as JSON with a fixed key order.

    Floats pass through ``json.dumps`` untouched, so parsing the output
    recovers every numeric field exactly.  The one exception is a residual
    ``|f|`` that overflowed float64: JSON has no infinity, so it is written
    as ``null``.  Any other non-finite float raises ``ValueError``.  The
    ``config`` object holds the ``AnalysisConfig`` the run used.
    """
    cfg = report.config
    payload = {
        "mode": cfg.mode.value,
        "interval_a": _interval_obj(report.interval_a),
        "interval_b": _interval_obj(report.interval_b),
        "search_interval_a": _interval_obj(report.search_interval_a),
        "search_interval_b": _interval_obj(report.search_interval_b),
        "window_a": _interval_obj(report.window_a),
        "window_b": _interval_obj(report.window_b),
        "roots_a": [_root_obj(r) for r in report.roots_a],
        "roots_b": [_root_obj(r) for r in report.roots_b],
        "common": list(report.common),
        "eval_count_a": report.eval_count_a,
        "eval_count_b": report.eval_count_b,
        "config": {
            "mode": cfg.mode.value,
            "step": cfg.step,
            "width_tol": cfg.width_tol,
            "match_tol": cfg.match_tol,
            "dedupe_tol": cfg.dedupe_tol,
        },
        "wall_time_seconds": report.wall_time,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
