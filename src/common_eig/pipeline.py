"""End-to-end detection of eigenvalues common to two matrices.

Two search modes share the same machinery.  The proposed mode scans only
the intersection of the two matrices' Gerschgorin inclusion intervals (any
real common eigenvalue must lie there); the conventional mode scans each
matrix's full interval.  Both then locate each matrix's real roots and pair
them up across matrices.  Characteristic-function evaluations are counted
per matrix and the wall time recorded, so the two modes can be compared on
actual work.

The proposed mode narrows each matrix's scan further, to its window: the
part of the search interval's grid that brackets the Gerschgorin interval
of the form ``char_fn`` reduces it to, intersected with the Bendixson
interval for nonsymmetric matrices, outside which the characteristic
function has no zero and no sign change.  Every grid lies on one lattice,
so the window's grid is a slice of the search interval's, and the roots
are those of the whole grid, bit for bit, for fewer evaluations.  The
conventional mode stays the paper's baseline, scanning each whole
interval on the same lattice.

In both modes the pairing then narrows the refinement, the paper's
pruning taken down from intervals to grid cells: both matrices are
scanned before either is refined, and only the sign-change cells that can
hold a common value are bisected.  Every other cell is reported unrefined,
as a CELL root that brackets its root with the cell, and the common values
are those of bisecting every cell, bit for bit (``_search`` gives the
argument).  Each evaluation count is read from the run's own records: the
grid points scanned plus the bisection steps of the roots returned.
"""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Sequence

from .gerschgorin import RealInterval, intersect, matrix_bounds
from .matrix import DenseMatrix, _form_interval, char_fn
from .rootfind import (
    DEFAULT_STEP,
    DEFAULT_WIDTH_TOL,
    GridScan,
    RootEstimate,
    RootOrigin,
    ScanEvent,
    _check_finite,
    _check_grid,
    _grid_span,
    find_real_roots,
)

__all__ = [
    "DEFAULT_MATCH_TOL",
    "Mode",
    "AnalysisConfig",
    "CommonEigenReport",
    "BenchmarkSummary",
    "common_eigenvalues",
    "match_roots",
    "run_benchmark",
]

DEFAULT_MATCH_TOL = 1e-6


class Mode(Enum):
    PROPOSED = "proposed"
    CONVENTIONAL = "conventional"


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for one analysis run; defaults match the desk procedure."""

    mode: Mode = Mode.PROPOSED
    step: float = DEFAULT_STEP
    width_tol: float = DEFAULT_WIDTH_TOL
    match_tol: float = DEFAULT_MATCH_TOL
    # Validated and recorded in the JSON config, but it has no effect: every
    # root found is returned.  It stays only while the benchmark harness
    # still sets it.
    dedupe_tol: float = 1e-6

    def __post_init__(self):
        _check_finite("step", self.step, positive=True)
        for name in ("width_tol", "match_tol", "dedupe_tol"):
            _check_finite(name, getattr(self, name))
        if self.match_tol < self.width_tol:
            raise ValueError("match_tol must be at least width_tol")


@dataclass(frozen=True)
class CommonEigenReport:
    """Everything one pipeline run produced, including instrumentation,
    and the configuration it ran with."""

    config: AnalysisConfig
    interval_a: RealInterval
    interval_b: RealInterval
    search_interval_a: RealInterval
    search_interval_b: RealInterval
    # The interval each scan covered: in the proposed mode the part of the
    # search interval's grid that brackets the matrix's form interval (its
    # reduced form's Gerschgorin interval, intersected with its Bendixson
    # interval if it is nonsymmetric), in the conventional mode the search
    # interval itself.
    window_a: RealInterval
    window_b: RealInterval
    roots_a: tuple[RootEstimate, ...]
    roots_b: tuple[RootEstimate, ...]
    common: tuple[float, ...]
    eval_count_a: int
    eval_count_b: int
    wall_time: float


@dataclass(frozen=True)
class BenchmarkSummary:
    """Side-by-side comparison of the two modes on one matrix pair.

    ``modes_agree`` is true exactly when both modes report the same number
    of common values and each value of either lies within ``match_tol`` of
    a value of the other.  It can be false on correct runs: every interior
    point of a proposed grid is a conventional grid point, but its two end
    cells can differ from the conventional cells around them, so two roots
    that cancel in one mode's cell can fall in different cells of the
    other's.
    """

    repetitions: int
    proposed: CommonEigenReport
    conventional: CommonEigenReport
    proposed_median_time: float
    conventional_median_time: float
    proposed_evals: int
    conventional_evals: int
    eval_ratio: float
    speedup: float
    modes_agree: bool


def match_roots(
    roots_a: Sequence[RootEstimate],
    roots_b: Sequence[RootEstimate],
    match_tol: float,
) -> tuple[float, ...]:
    """Pair roots across two ascending lists; return pair midpoints, sorted.

    Greedy two-pointer walk: the first pair within match_tol is taken and
    both members consumed, so each root participates in at most one pair.
    Pairs are taken with rising indices in both lists, and a rounded
    midpoint is monotone in each member, so the midpoints come out sorted.
    Raises ValueError for a match_tol that is not finite and non-negative.
    """
    _check_finite("match_tol", match_tol)
    out = []
    i = j = 0
    while i < len(roots_a) and j < len(roots_b):
        ra = roots_a[i].value
        rb = roots_b[j].value
        if abs(ra - rb) <= match_tol:
            out.append(0.5 * (ra + rb))
            i += 1
            j += 1
        elif ra < rb:
            i += 1
        else:
            j += 1
    return tuple(out)


def common_eigenvalues(
    matrix_a: DenseMatrix,
    matrix_b: DenseMatrix,
    config: AnalysisConfig | None = None,
) -> CommonEigenReport:
    """Run the full pipeline on a pair of matrices.

    Bounds each matrix on the real axis, picks the search interval(s) for
    the configured mode, finds each matrix's real roots there, and matches
    them across matrices.  In the proposed mode each scan covers only the
    matrix's window (see the module docstring); the roots are the same as
    without it.  An empty
    intersection has no grid, so it costs no reduction and no evaluations
    and gives an empty common set, and that is a success, not an error.
    The two matrices may have different orders.
    """
    cfg = config if config is not None else AnalysisConfig()

    start = time.perf_counter()
    interval_a = matrix_bounds(matrix_a)
    interval_b = matrix_bounds(matrix_b)
    if cfg.mode is Mode.PROPOSED:
        search_a = search_b = intersect(interval_a, interval_b)
    else:
        search_a, search_b = interval_a, interval_b

    (window_a, roots_a, count_a), (window_b, roots_b, count_b) = _search(
        matrix_a, matrix_b, search_a, search_b, cfg
    )
    common = match_roots(roots_a, roots_b, cfg.match_tol)
    elapsed = time.perf_counter() - start

    return CommonEigenReport(
        config=cfg,
        interval_a=interval_a,
        interval_b=interval_b,
        search_interval_a=search_a,
        search_interval_b=search_b,
        window_a=window_a,
        window_b=window_b,
        roots_a=roots_a,
        roots_b=roots_b,
        common=common,
        eval_count_a=count_a,
        eval_count_b=count_b,
        wall_time=elapsed,
    )


def _grid(matrix: DenseMatrix, search: RealInterval, cfg: AnalysisConfig) -> GridScan:
    """One matrix's characteristic function on its window's grid.

    In the proposed mode the window is the part of the search interval's
    grid that brackets the matrix's form interval.  The grid is checked
    before the matrix is reduced, so a grid the scan refuses raises first,
    as it did when the scan's first evaluation reduced the matrix.
    """
    window = search
    if cfg.mode is Mode.PROPOSED and not search.empty:
        _check_grid(search, cfg.step)
        window = _grid_span(search, cfg.step, *_form_interval(matrix))
    return GridScan(partial(char_fn, matrix), window, cfg.step)


def _search(matrix_a, matrix_b, search_a, search_b, cfg: AnalysisConfig):
    """Each matrix's window, roots and evaluation count, A's first.

    Both windows are scanned before either is refined: B's scan is read
    by A's cell test, inside A's ``find_real_roots``, right after A's own.
    Then only two kinds of sign-change cell are bisected: a cell of A
    within match_tol of a flag of B (a sign-change cell or a zero hit of
    B's scan), and a cell of B within match_tol of a refined root of A (a
    bisected root or a zero hit).  Every other cell is returned unrefined,
    as a CELL root.  The common values cannot change, bit for bit.  A root
    lies in its cell, so an unrefined root of A is more than match_tol from
    every root of B, wherever in the cell it lies, and on the same side of
    each: rounding is monotone, so ``fl(b - a) >= fl(lo_b - hi_a) >
    match_tol`` for any a and b in cells that far apart.  An unrefined root
    of B is as far from every refined root of A by its own test, and from
    every unrefined one by A's.  So each comparison of ``match_roots``'
    greedy walk that meets an unrefined root pairs nothing and steps the
    same way as with that root bisected, the walk makes the same moves, and
    every pair it takes is of two refined roots, from the same ``bisect``
    calls as if every cell were bisected.  Each count is the grid points
    scanned plus the bisection steps of the roots returned.
    """
    grid_a, grid_b = _grid(matrix_a, search_a, cfg), _grid(matrix_b, search_b, cfg)

    def near_b():
        return _near(_flags(grid_b.records), cfg.match_tol)

    roots_a = find_real_roots(grid_a, cfg.width_tol, near_b)
    refined_a = [(r.value, r.value) for r in roots_a if r.origin is not RootOrigin.CELL]
    roots_b = find_real_roots(grid_b, cfg.width_tol, partial(_near, refined_a, cfg.match_tol))
    return [
        (grid.interval, tuple(roots), len(grid.records) + sum(r.iterations for r in roots))
        for grid, roots in ((grid_a, roots_a), (grid_b, roots_b))
    ]


def _flags(records):
    """A scan's flags as (lo, hi) marks: each sign-change cell, and each
    zero hit as (lam, lam)."""
    return [
        (rec.lam, rec.lam if rec.event is ScanEvent.ZERO_HIT else records[i + 1].lam)
        for i, rec in enumerate(records)
        if rec.event is not ScanEvent.NONE
    ]


def _near(marks, tol):
    """The cell test that [lo, hi] lies within tol of one of ``marks``,
    (lo, hi) pairs whose ends both ascend.  Distances are the rounded
    differences that ``match_roots`` compares with tol."""
    ends = [hi for _, hi in marks]

    def near(lo, hi):
        # Past the marks that end more than tol below lo, the first starts
        # lowest, so it alone can lie within tol of hi.
        i = bisect_left(ends, True, key=lambda end: lo - end <= tol)
        return i < len(marks) and marks[i][0] - hi <= tol

    return near


def _ratio(num: float, den: float) -> float:
    """num / den, reading 0/0 as 1.0 and x/0 as inf."""
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def _subset_within(smaller: Sequence[float], larger: Sequence[float], tol: float) -> bool:
    return all(any(abs(s - l) <= tol for l in larger) for s in smaller)


def run_benchmark(
    matrix_a: DenseMatrix,
    matrix_b: DenseMatrix,
    config: AnalysisConfig | None = None,
    repetitions: int = 10,
) -> BenchmarkSummary:
    """Time both modes on the same pair and compare their work.

    Runs each mode ``repetitions`` times (the configured mode is ignored;
    both always run) and reports median wall times, total evaluation
    counts, their ratio, and the time speedup, all conventional over
    proposed, and whether the two modes report the same common values
    (``modes_agree``; see BenchmarkSummary).  A disagreement is reported,
    not raised.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    cfg = config if config is not None else AnalysisConfig()

    reports = {}
    medians = {}
    for mode in (Mode.PROPOSED, Mode.CONVENTIONAL):
        runs = [
            common_eigenvalues(matrix_a, matrix_b, replace(cfg, mode=mode))
            for _ in range(repetitions)
        ]
        reports[mode] = runs[-1]
        medians[mode] = statistics.median(r.wall_time for r in runs)

    proposed = reports[Mode.PROPOSED]
    conventional = reports[Mode.CONVENTIONAL]
    modes_agree = (
        len(proposed.common) == len(conventional.common)
        and _subset_within(proposed.common, conventional.common, cfg.match_tol)
        and _subset_within(conventional.common, proposed.common, cfg.match_tol)
    )

    prop_evals = proposed.eval_count_a + proposed.eval_count_b
    conv_evals = conventional.eval_count_a + conventional.eval_count_b
    return BenchmarkSummary(
        repetitions=repetitions,
        proposed=proposed,
        conventional=conventional,
        proposed_median_time=medians[Mode.PROPOSED],
        conventional_median_time=medians[Mode.CONVENTIONAL],
        proposed_evals=prop_evals,
        conventional_evals=conv_evals,
        eval_ratio=_ratio(conv_evals, prop_evals),
        speedup=_ratio(medians[Mode.CONVENTIONAL], medians[Mode.PROPOSED]),
        modes_agree=modes_agree,
    )
