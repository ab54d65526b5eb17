"""End-to-end detection of eigenvalues common to two matrices.

Two search modes share the same machinery.  The proposed mode scans only
the intersection of the two matrices' Gerschgorin inclusion intervals (any
real common eigenvalue must lie there); the conventional mode scans each
matrix's full interval.  Both then locate each matrix's real roots and pair
them up across matrices.  Characteristic-function evaluations are counted
per matrix and the wall time recorded, so the two modes can be compared on
actual work.

The proposed mode narrows each matrix's scan further, to its window: the
part of the search interval's grid that brackets its form interval, the
Gerschgorin interval of the tridiagonal form ``char_fn`` reduces a
symmetric matrix to and the Bendixson interval of any other, outside
which the characteristic function has no zero and no sign change.  Every
grid lies on one lattice, so the window's grid is a slice of the search
interval's, and the roots are those of the whole grid, bit for bit, for
fewer evaluations.  The conventional mode stays the paper's baseline,
scanning each whole interval on the same lattice.

In both modes the pairing then narrows the refinement, the paper's
pruning taken down from intervals to grid cells and on to each bisection
step: both matrices are scanned before either is refined, and each
bisection stops once its bracket can no longer hold a common value,
before its first step in a cell that cannot.  B's bisections also start
where a partner is likely, at the refined roots of A inside their cells.
Every bisection stopped is reported as a CELL root that brackets its root
with the bracket reached, the cell itself where no step was taken, and
the common values are those of bisecting every cell to width_tol, B's
seeded by the same rule, bit for bit (``_search`` gives the argument).
Each evaluation count is read from the run's own records: the grid
points scanned plus the bisection steps of the roots returned.
"""

from __future__ import annotations

import math
import statistics
import time
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
    # tridiagonal form's Gerschgorin interval if it is symmetric, else its
    # Bendixson interval), in the conventional mode the search interval
    # itself.
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
    A midpoint is ``0.5 * (ra + rb)``, or ``0.5*ra + 0.5*rb`` where that
    sum overflows.  Either is the exact midpoint rounded once: the sum is
    exact wherever its halving would round, and both halvings are exact
    wherever it overflows.  The second alone would read 5e-324 paired with
    itself as 0.
    Raises ValueError for a match_tol that is not finite and non-negative.
    """
    _check_finite("match_tol", match_tol)
    out = []
    i = j = 0
    while i < len(roots_a) and j < len(roots_b):
        ra = roots_a[i].value
        rb = roots_b[j].value
        if abs(ra - rb) <= match_tol:
            mid = 0.5 * (ra + rb)
            out.append(0.5 * ra + 0.5 * rb if math.isinf(mid) else mid)
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
    A root of A is refined only while its bracket lies within match_tol
    of a flag of B (a sign-change cell or a zero hit of B's scan), and a
    root of B only while its bracket lies within match_tol of a refined
    root of A (one bisected to width_tol, or a zero hit).  A bisection is
    stopped before the step at which its bracket has left every such
    mark's reach, so before its first step in a cell that starts out of
    reach, and is returned as a CELL root, whose bracket holds the root
    and whose value, the last point evaluated or, where no step was
    taken, a cell end, lies in that bracket.  A cell of B is seeded by
    the refined roots of A strictly inside it: each gives its value and,
    unless A's f is exactly 0 there, the other end of its final bracket,
    which for a root A shares with B brackets B's root too.

    The common values are those of bisecting every cell of A to
    width_tol, and every cell of B with the seeds of the roots of A so
    found strictly inside it, bit for bit.  The seeds are the same: a root
    of A strictly inside a sign-change cell of B has a bracket that meets
    that flag at every step, so it is refined to the same bits, and a
    stopped root of A, whose bracket lies beyond match_tol of every flag
    of B, holds no point of such a cell, nor does the bisected root
    inside that bracket.  Then brackets only shrink,
    and every root of B lies in its flag, so a CELL root of A is more than
    match_tol from every root of B, and on the same side of each, as its
    value would be had it been bisected to width_tol: rounding is
    monotone, so ``fl(b - a) >= fl(lo_b - hi_a) > match_tol`` for any a
    and b in brackets that far apart.  A CELL root of B is as far from
    every refined root of A by its own test, and from every CELL root of A
    by A's.  So each comparison of ``match_roots``' greedy walk that meets
    a CELL root pairs nothing and steps the same way as with that root
    bisected, the walk makes the same moves, and every pair it takes is of
    two roots that no test stopped.  The near test changes no step point,
    so those come from the same steps, seeds and ITP points, as if every
    cell were bisected.
    Each count is the grid points scanned plus the bisection steps of the
    roots returned, stopped or not.  Each search calls its ``refine`` once,
    so each cell test walks its marks afresh.
    """
    grid_a, grid_b = _grid(matrix_a, search_a, cfg), _grid(matrix_b, search_b, cfg)

    def near_b():
        return _near(_flags(grid_b.records), cfg.match_tol)

    roots_a = find_real_roots(grid_a, cfg.width_tol, near_b)
    refined_a = [
        (r.value, r.value, _seeds(r)) for r in roots_a if r.origin is not RootOrigin.CELL
    ]
    roots_b = find_real_roots(grid_b, cfg.width_tol, partial(_near, refined_a, cfg.match_tol))
    return [
        (grid.interval, tuple(roots), len(grid.records) + sum(r.iterations for r in roots))
        for grid, roots in ((grid_a, roots_a), (grid_b, roots_b))
    ]


def _flags(records):
    """A scan's flags as (lo, hi, seeds) marks with no seeds: each
    sign-change cell, and each zero hit as (lam, lam)."""
    return [
        (rec.lam, rec.lam if rec.event is ScanEvent.ZERO_HIT else records[i + 1].lam, ())
        for i, rec in enumerate(records)
        if rec.event is not ScanEvent.NONE
    ]


def _seeds(root):
    """Where a root's partner is likely: the root's value and, unless f is
    exactly 0 there, the other end of its final bracket."""
    if root.residual == 0.0:
        return (root.value,)
    return root.value, root.bracket_lo if root.value == root.bracket_hi else root.bracket_hi


def _near(marks, tol):
    """The cell test over ``marks``, (lo, hi, seeds) triples with
    lo <= hi whose ends both ascend, for cells asked about in ascending
    order.

    For a cell [lo, hi] it returns ``bisect``'s near test and seeds.  The
    near test is whether a bracket lies within tol of one of the marks
    that the cell does, so it is false from the start where the cell lies
    near none; a bracket inside the cell can lie near no other mark.  The
    seeds are those of the marks that start strictly inside the cell.
    Distances are the rounded differences that ``match_roots`` compares
    with tol.  The cells and the marks ascend, so the marks near a cell
    are found by a merge walk of the two: ``first`` and ``stop`` only
    move forward.
    """
    first = stop = 0

    def cell_test(lo, hi):
        nonlocal first, stop
        # Past the marks that end more than tol below lo, those that start
        # within tol of hi, as the starts ascend too.  A mark that ends that
        # far below lo starts within tol of hi, so stop never lags first.
        while first < len(marks) and lo - marks[first][1] > tol:
            first += 1
        while stop < len(marks) and marks[stop][0] - hi <= tol:
            stop += 1
        close = marks[first:stop]

        def near(lo, hi):
            for start, end, _ in close:
                if start - hi <= tol and lo - end <= tol:
                    return True
            return False

        return near, [x for start, _, seeds in close if lo < start < hi for x in seeds]

    return cell_test


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
