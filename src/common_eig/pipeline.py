"""End-to-end detection of eigenvalues common to two matrices.

Two search modes share the same machinery.  The proposed mode scans only
the intersection of the two matrices' Gerschgorin inclusion intervals (any
real common eigenvalue must lie there); the conventional mode scans each
matrix's full interval.  Both then locate each matrix's real roots and pair
them up across matrices.  Characteristic-function evaluations are counted
per matrix and the wall time recorded, so the two modes can be compared on
actual work.
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
from .matrix import DenseMatrix, char_fn
from .rootfind import (
    DEFAULT_STEP,
    DEFAULT_WIDTH_TOL,
    RootEstimate,
    _check_finite,
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
    a value of the other.  It can be false on correct runs: each mode's
    grid starts at its own interval's lower end, so two roots that cancel
    in one mode's cell can fall in different cells of the other's.
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


class _CountedFn:
    """Wrap a scalar function, counting invocations."""

    __slots__ = ("_fn", "count")

    def __init__(self, fn):
        self._fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self._fn(x)


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
    them across matrices.  An empty intersection has no grid, so it costs
    no evaluations and gives an empty common set, and that is a success,
    not an error.  The two matrices may have different orders.
    """
    cfg = config if config is not None else AnalysisConfig()

    start = time.perf_counter()
    interval_a = matrix_bounds(matrix_a)
    interval_b = matrix_bounds(matrix_b)
    if cfg.mode is Mode.PROPOSED:
        search_a = search_b = intersect(interval_a, interval_b)
    else:
        search_a, search_b = interval_a, interval_b

    counted_a = _CountedFn(partial(char_fn, matrix_a))
    counted_b = _CountedFn(partial(char_fn, matrix_b))
    roots_a, roots_b = (
        tuple(find_real_roots(f, search, cfg.step, cfg.width_tol))
        for f, search in ((counted_a, search_a), (counted_b, search_b))
    )
    common = match_roots(roots_a, roots_b, cfg.match_tol)
    elapsed = time.perf_counter() - start

    return CommonEigenReport(
        config=cfg,
        interval_a=interval_a,
        interval_b=interval_b,
        search_interval_a=search_a,
        search_interval_b=search_b,
        roots_a=roots_a,
        roots_b=roots_b,
        common=common,
        eval_count_a=counted_a.count,
        eval_count_b=counted_b.count,
        wall_time=elapsed,
    )


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
