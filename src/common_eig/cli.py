"""Command-line front end.

Loads two matrix files, runs the pipeline in the requested mode(s), prints
a plain-text summary, and optionally writes the JSON report, per-matrix
CSV scan tables, and the SVG disc diagram.  Exit codes: 0 on success
(an empty common set is a success), 1 on input or usage errors, 2 on
internal numeric failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import CommonEigError, MatrixFormatError
from .gerschgorin import Axis, discs_of, intersect
from .matrix import DenseMatrix, char_fn, parse_matrix
from .pipeline import (
    DEFAULT_MATCH_TOL,
    AnalysisConfig,
    BenchmarkSummary,
    CommonEigenReport,
    Mode,
    common_eigenvalues,
    run_benchmark,
)
from .reporting import emit_json_report, emit_scan_table, render_svg
from .rootfind import (
    DEFAULT_DEDUPE_TOL,
    DEFAULT_STEP,
    DEFAULT_WIDTH_TOL,
    RootEstimate,
    scan,
)

__all__ = ["CliInvocation", "parse_invocation", "run_cli", "main"]


@dataclass(frozen=True)
class CliInvocation:
    """Everything one invocation asked for, flags already validated.

    ``modes`` are the library modes to run, in order: ``--mode both`` is
    proposed then conventional.  ``config.mode`` is the first of them.
    """

    path_a: str
    path_b: str
    config: AnalysisConfig
    modes: tuple[Mode, ...]
    svg_path: str | None = None
    scan_table_prefix: str | None = None
    json_path: str | None = None
    bench: int = 0


def _build_parser() -> argparse.ArgumentParser:
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
    parser.add_argument(
        "--step",
        type=float,
        default=DEFAULT_STEP,
        help="scan grid spacing (default: %(default)s)",
    )
    parser.add_argument(
        "--width-tol",
        type=float,
        default=DEFAULT_WIDTH_TOL,
        help="bisection bracket width target (default: %(default)s)",
    )
    parser.add_argument(
        "--match-tol",
        type=float,
        default=DEFAULT_MATCH_TOL,
        help="max distance for pairing roots across matrices "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--dedupe-tol",
        type=float,
        default=DEFAULT_DEDUPE_TOL,
        help="min gap between distinct roots of one matrix "
        "(default: %(default)s)",
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


def parse_invocation(argv: Sequence[str]) -> CliInvocation:
    """Map raw arguments onto a validated CliInvocation.

    Raises SystemExit for argparse-level problems and ValueError for
    out-of-range numeric flags.
    """
    ns = _build_parser().parse_args(list(argv))
    if ns.mode == "both":
        modes = (Mode.PROPOSED, Mode.CONVENTIONAL)
    else:
        modes = (Mode(ns.mode),)
    config = AnalysisConfig(
        mode=modes[0],
        step=ns.step,
        width_tol=ns.width_tol,
        match_tol=ns.match_tol,
        dedupe_tol=ns.dedupe_tol,
    )
    if ns.bench < 0:
        raise ValueError("--bench must be non-negative")
    return CliInvocation(
        path_a=ns.path_a,
        path_b=ns.path_b,
        config=config,
        modes=modes,
        svg_path=ns.svg,
        scan_table_prefix=ns.scan_table,
        json_path=ns.json,
        bench=ns.bench,
    )


def _load(path: str) -> DenseMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _fmt_values(values) -> str:
    return ", ".join(f"{v:.10g}" for v in values) or "(none)"


def _print_summary(report: CommonEigenReport) -> None:
    print(f"mode: {report.mode.value}")
    print(f"bounds A: {report.interval_a}")
    print(f"bounds B: {report.interval_b}")
    if report.mode is Mode.PROPOSED:
        print(f"interval: {report.search_interval_a}")
    else:
        print(f"interval A: {report.search_interval_a}")
        print(f"interval B: {report.search_interval_b}")
    print(f"roots A: {_fmt_values(r.value for r in report.roots_a)}")
    print(f"roots B: {_fmt_values(r.value for r in report.roots_b)}")
    print(f"common: {_fmt_values(report.common)}")
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


def _scan_table_text(
    matrix: DenseMatrix,
    interval,
    roots: Sequence[RootEstimate],
    step: float,
) -> str:
    if interval.empty:
        return emit_scan_table([], roots)
    records = scan(lambda lam: char_fn(matrix, lam), interval, step)
    return emit_scan_table(records, roots)


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Run one invocation end to end; return the process exit code."""
    try:
        invocation = parse_invocation(
            argv if argv is not None else sys.argv[1:]
        )
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the
        # latter into the input-error code
        return 0 if exc.code in (0, None) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    matrices = []
    for path in (invocation.path_a, invocation.path_b):
        try:
            matrices.append(_load(path))
        except (OSError, MatrixFormatError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
    matrix_a, matrix_b = matrices

    config = invocation.config
    try:
        reports = [
            common_eigenvalues(matrix_a, matrix_b, replace(config, mode=mode))
            for mode in invocation.modes
        ]
        for i, report in enumerate(reports):
            if i:
                print()
            _print_summary(report)

        # file outputs describe the intersected-interval run when both ran
        report = reports[0]
        if invocation.json_path is not None:
            _write_text(invocation.json_path, emit_json_report(report))
        if invocation.svg_path is not None:
            band = intersect(report.interval_a, report.interval_b)
            svg = render_svg(discs_of(matrix_a, Axis.ROW), discs_of(matrix_b, Axis.ROW), band)
            _write_text(invocation.svg_path, svg)
        if invocation.scan_table_prefix is not None:
            for name, matrix, interval, roots in (
                ("A", matrix_a, report.search_interval_a, report.roots_a),
                ("B", matrix_b, report.search_interval_b, report.roots_b),
            ):
                _write_text(
                    f"{invocation.scan_table_prefix}_{name}.csv",
                    _scan_table_text(matrix, interval, roots, config.step),
                )
        if invocation.bench > 0:
            _print_benchmark(
                run_benchmark(matrix_a, matrix_b, config, invocation.bench)
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CommonEigError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
