"""Per-layer metrics from the spans of one traced pass.

Every ``char_fn`` span is credited to the nearest enclosing ``scan``,
``bisect`` or CLI re-scan span.  Seconds and counts are given per pair
traced, so runs of different length compare directly.  A metric whose
layer a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

__all__ = [
    "STAGES",
    "LAYER_METRICS",
    "credit_evals",
    "reports_by_pair",
    "counter_mismatches",
    "layer_metrics",
]

STAGES = ("rootfind.scan", "rootfind.bisect", "cli.scan")

# name -> unit; the order in which they are printed
LAYER_METRICS = {
    "matrix.char_fn.calls": "count/pair",
    "matrix.char_fn.self_s": "s/pair",
    "matrix.char_fn.us_per_call": "us",
    "matrix.char_fn.gflop_per_s": "GFLOP/s",
    "matrix.parse_matrix.s": "s/pair",
    "gerschgorin.matrix_bounds.s": "s/pair",
    "gerschgorin.overlap_fraction": "ratio",
    "gerschgorin.width_over_span": "ratio",
    "rootfind.scan.evals": "count/pair",
    "rootfind.scan.s": "s/pair",
    "rootfind.bisect.evals": "count/pair",
    "rootfind.bisect.s": "s/pair",
    "rootfind.bisect.iters_per_root": "count",
    "rootfind.flagged_cells": "count/pair",
    "rootfind.zero_hits": "count/pair",
    "rootfind.roots_per_flag": "ratio",
    "rootfind.self_s": "s/pair",
    "pipeline.evals_per_pair": "count/pair",
    "pipeline.eval_ratio": "ratio",
    "pipeline.proposed_costlier_pairs": "count",
    "pipeline.match_roots.s": "s/pair",
    "reporting.emit_json_report.s": "s/pair",
    "reporting.emit_scan_table.s": "s/pair",
    "reporting.render_svg.s": "s/pair",
    "reporting.bytes_written": "B/pair",
    "cli.rescan_evals": "count/pair",
    "cli.rescan_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.pairs": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _stage_of(spans, span):
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in STAGES:
            return spans[parent].name
        parent = spans[parent].parent
    return None


def credit_evals(spans) -> dict[int, dict[str, int]]:
    """Per pair, ``char_fn`` calls counted under each enclosing stage.

    Calls outside every stage are counted under ``None``.
    """
    credit = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.name == "matrix.char_fn":
            credit[span.pair][_stage_of(spans, span)] += 1
    return credit


def reports_by_pair(spans) -> dict[int, object]:
    """The pipeline report of each traced pair."""
    return {
        s.pair: s.info
        for s in spans
        if s.name == "pipeline.common_eigenvalues" and s.info is not None
    }


def counter_mismatches(spans) -> list[str]:
    """Pairs where the outside count disagrees with the report's count.

    ``char_fn`` calls inside ``scan`` plus ``bisect`` must equal
    ``eval_count_a + eval_count_b``; CLI re-scan calls are excluded.
    """
    credit = credit_evals(spans)
    out = []
    for pair, report in sorted(reports_by_pair(spans).items()):
        seen = credit[pair]["rootfind.scan"] + credit[pair]["rootfind.bisect"]
        claimed = report.eval_count_a + report.eval_count_b
        if seen != claimed:
            out.append(f"pair {pair}: counted {seen} char_fn calls, report says {claimed}")
    return out


def _overlap(report):
    band = report.search_interval_a
    if band.empty:
        return 0.0
    return _ratio(band.width, 0.5 * (report.interval_a.width + report.interval_b.width))


def _width_over_span(report, pair):
    band = report.search_interval_a
    if band.empty:
        return None
    inside = [x for x in pair.reals_a + pair.reals_b if band.contains(x)]
    if len(inside) < 2 or max(inside) == min(inside):
        return None
    return band.width / (max(inside) - min(inside))


def layer_metrics(spans, pairs, conventional_evals, overhead_share) -> dict[str, float]:
    """Every metric of LAYER_METRICS for one traced pass.

    ``pairs`` maps pair id to Pair; ``conventional_evals`` maps pair id to
    the evaluation count of a conventional-mode run on the same pair.
    """
    n_pairs = len(pairs)
    total = defaultdict(float)
    calls = defaultdict(int)
    facts = defaultdict(list)
    staged = defaultdict(int)
    staged_time = defaultdict(float)
    flops = 0.0
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.info is not None:
            facts[s.name].append(s.info)
        if s.name == "matrix.char_fn":
            stage = _stage_of(spans, s)
            staged[stage] += 1
            staged_time[stage] += s.end - s.start
            if s.info is not None:  # None when the call raised
                flops += 2.0 / 3.0 * s.info**3

    scans = facts["rootfind.scan"]
    zero_hits = sum(z for _, _, z in scans)
    flagged = sum(c + z for _, c, z in scans)
    roots_kept = sum(facts["rootfind.find_real_roots"])

    reports = reports_by_pair(spans)
    proposed = {p: r.eval_count_a + r.eval_count_b for p, r in reports.items()}
    spans_ratio = [
        w for w in (_width_over_span(r, pairs[p]) for p, r in reports.items()) if w is not None
    ]
    report_evals = sum(proposed.values())
    rescan = staged["cli.scan"]
    char_self = total["matrix.char_fn"]

    def per_pair(x):
        return _ratio(x, n_pairs)

    return {
        "matrix.char_fn.calls": per_pair(calls["matrix.char_fn"]),
        "matrix.char_fn.self_s": per_pair(char_self),
        "matrix.char_fn.us_per_call": 1e6 * _ratio(char_self, calls["matrix.char_fn"]),
        "matrix.char_fn.gflop_per_s": _ratio(flops, char_self) / 1e9,
        "matrix.parse_matrix.s": per_pair(total["matrix.parse_matrix"]),
        "gerschgorin.matrix_bounds.s": per_pair(total["gerschgorin.matrix_bounds"]),
        "gerschgorin.overlap_fraction": (
            statistics.fmean(_overlap(r) for r in reports.values()) if reports else 0.0
        ),
        "gerschgorin.width_over_span": statistics.fmean(spans_ratio) if spans_ratio else 0.0,
        "rootfind.scan.evals": per_pair(staged["rootfind.scan"]),
        "rootfind.scan.s": per_pair(total["rootfind.scan"]),
        "rootfind.bisect.evals": per_pair(staged["rootfind.bisect"]),
        "rootfind.bisect.s": per_pair(total["rootfind.bisect"]),
        "rootfind.bisect.iters_per_root": (
            statistics.fmean(facts["rootfind.bisect"]) if facts["rootfind.bisect"] else 0.0
        ),
        "rootfind.flagged_cells": per_pair(flagged),
        "rootfind.zero_hits": per_pair(zero_hits),
        "rootfind.roots_per_flag": _ratio(roots_kept, flagged),
        "rootfind.self_s": per_pair(
            total["rootfind.find_real_roots"]
            - staged_time["rootfind.scan"]
            - staged_time["rootfind.bisect"]
        ),
        "pipeline.evals_per_pair": _ratio(report_evals, len(reports)),
        "pipeline.eval_ratio": _ratio(
            sum(conventional_evals[p] for p in proposed), report_evals
        ),
        "pipeline.proposed_costlier_pairs": float(
            sum(1 for p, e in proposed.items() if e > conventional_evals[p])
        ),
        "pipeline.match_roots.s": per_pair(total["pipeline.match_roots"]),
        "reporting.emit_json_report.s": per_pair(total["reporting.emit_json_report"]),
        "reporting.emit_scan_table.s": per_pair(total["reporting.emit_scan_table"]),
        "reporting.render_svg.s": per_pair(total["reporting.render_svg"]),
        "reporting.bytes_written": per_pair(
            sum(
                sum(facts[name])
                for name in (
                    "reporting.emit_json_report",
                    "reporting.emit_scan_table",
                    "reporting.render_svg",
                )
            )
        ),
        "cli.rescan_evals": per_pair(rescan),
        "cli.rescan_share": _ratio(rescan, report_evals + rescan),
        "trace.overhead_share": overhead_share,
        "trace.pairs": float(n_pairs),
    }
