"""Command-line front end.

Loads two matrix files, runs the pipeline in the requested mode(s), prints
a plain-text summary, and optionally writes the JSON report, per-matrix
CSV scan tables, and the SVG disc diagram.  A scan table re-scans the
report's window, so it lists exactly the grid points the run evaluated.
The tuning flags map straight onto one AnalysisConfig and take their
defaults from it, so a value that AnalysisConfig rejects with ValueError
is a usage error here too.  Exit codes: 0 on success (an empty common set
is a success), 1 on input or usage errors, 2 on internal numeric failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import Sequence

from .gerschgorin import discs_of, intersect
from .matrix import DenseMatrix, char_fn, parse_matrix
from .pipeline import (
    AnalysisConfig,
    BenchmarkSummary,
    CommonEigenReport,
    Mode,
    common_eigenvalues,
    run_benchmark,
)
from .reporting import emit_json_report, emit_scan_table, render_svg
from .rootfind import RootOrigin, scan

__all__ = ["run_cli", "main"]

# The AnalysisConfig fields each set by the flag of the same name, with
# that flag's help text; their defaults are AnalysisConfig's own.
_TUNING_FLAGS = (
    ("step", "scan grid spacing"),
    ("width_tol", "bisection bracket width target"),
    ("match_tol", "max distance for pairing roots across matrices"),
    ("dedupe_tol", "accepted and recorded in the JSON config; has no effect"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use, then reused: parse_args leaves the parser as it
    # was, and building it costs several times one parse.
    parser = argparse.ArgumentParser(
        prog="common-eig",
        description=(
            "Locate real eigenvalues shared by two square matrices by "
            "intersecting their Gerschgorin inclusion intervals and "
            "searching the characteristic functions there."
        ),
    )
    parser.add_argument("path_a", metavar="A", help="first matrix file")
    parser.add_argument("path_b", metavar="B", help="second matrix file")
    parser.add_argument(
        "--mode",
        choices=[m.value for m in Mode] + ["both"],
        default=Mode.PROPOSED.value,
        help="search the intersected interval, each full interval, or both "
        "(default: %(default)s)",
    )
    defaults = AnalysisConfig()
    for field, meaning in _TUNING_FLAGS:
        parser.add_argument(
            "--" + field.replace("_", "-"),
            type=float,
            default=getattr(defaults, field),
            help=f"{meaning} (default: %(default)s)",
        )
    parser.add_argument("--svg", metavar="PATH", help="write the disc diagram here")
    parser.add_argument(
        "--scan-table",
        metavar="PREFIX",
        help="write scan tables to PREFIX_A.csv and PREFIX_B.csv",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--bench",
        metavar="N",
        type=int,
        default=0,
        help="also time both modes over N repetitions (0 = off)",
    )
    return parser


def _load(path: str) -> DenseMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _fmt_values(texts) -> str:
    return ", ".join(texts) or "(none)"


def _fmt_root(root) -> str:
    """A root's value, or for a cell left unrefined its bracket [lo, hi]."""
    if root.origin is RootOrigin.CELL:
        return f"[{root.bracket_lo:.10g}, {root.bracket_hi:.10g}]"
    return f"{root.value:.10g}"


def _print_summary(report: CommonEigenReport) -> None:
    print(f"mode: {report.config.mode.value}")
    print(f"bounds A: {report.interval_a}")
    print(f"bounds B: {report.interval_b}")
    if report.config.mode is Mode.PROPOSED:
        print(f"interval: {report.search_interval_a}")
    else:
        print(f"interval A: {report.search_interval_a}")
        print(f"interval B: {report.search_interval_b}")
    print(f"window A: {report.window_a}")
    print(f"window B: {report.window_b}")
    print(f"roots A: {_fmt_values(map(_fmt_root, report.roots_a))}")
    print(f"roots B: {_fmt_values(map(_fmt_root, report.roots_b))}")
    print(f"common: {_fmt_values(f'{v:.10g}' for v in report.common)}")
    total = report.eval_count_a + report.eval_count_b
    print(f"evaluations: A={report.eval_count_a} B={report.eval_count_b} total={total}")
    print(f"wall time: {report.wall_time:.6f}s")


def _print_benchmark(summary: BenchmarkSummary) -> None:
    print(f"benchmark ({summary.repetitions} repetitions):")
    print(
        f"  proposed: {summary.proposed_evals} evaluations, "
        f"median {summary.proposed_median_time:.6f}s"
    )
    print(
        f"  conventional: {summary.conventional_evals} evaluations, "
        f"median {summary.conventional_median_time:.6f}s"
    )
    print(f"  eval ratio: {summary.eval_ratio:.4g}")
    print(f"  speedup: {summary.speedup:.4g}")
    print(f"  modes agree: {'yes' if summary.modes_agree else 'no'}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Run one invocation end to end; return the process exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  The flags map onto one
    AnalysisConfig; ``--mode both`` runs proposed, then conventional.
    """
    try:
        args = _build_parser().parse_args(argv)
        if args.mode == "both":
            modes = (Mode.PROPOSED, Mode.CONVENTIONAL)
        else:
            modes = (Mode(args.mode),)
        config = AnalysisConfig(
            mode=modes[0], **{field: getattr(args, field) for field, _ in _TUNING_FLAGS}
        )
        if args.bench < 0:
            raise ValueError("--bench must be non-negative")
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the
        # latter into the input-error code
        return 0 if exc.code in (0, None) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    matrices = []
    for path in (args.path_a, args.path_b):
        try:
            matrices.append(_load(path))
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
    matrix_a, matrix_b = matrices

    try:
        reports = [
            common_eigenvalues(matrix_a, matrix_b, replace(config, mode=mode))
            for mode in modes
        ]
        for i, report in enumerate(reports):
            if i:
                print()
            _print_summary(report)

        # file outputs describe the intersected-interval run when both ran
        report = reports[0]
        if args.json is not None:
            _write_text(args.json, emit_json_report(report))
        if args.svg is not None:
            band = intersect(report.interval_a, report.interval_b)
            svg = render_svg(discs_of(matrix_a), discs_of(matrix_b), band)
            _write_text(args.svg, svg)
        if args.scan_table is not None:
            for name, matrix, window in (
                ("A", matrix_a, report.window_a),
                ("B", matrix_b, report.window_b),
            ):
                records = scan(functools.partial(char_fn, matrix), window, config.step)
                _write_text(f"{args.scan_table}_{name}.csv", emit_scan_table(records))
        if args.bench > 0:
            _print_benchmark(run_benchmark(matrix_a, matrix_b, config, args.bench))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
