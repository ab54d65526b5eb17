"""Gerschgorin discs and real-axis inclusion intervals.

Every eigenvalue of a real square matrix lies in the union of the discs
centered at the diagonal entries with radii equal to the off-diagonal
absolute row (or column) sums.  Projected onto the real axis, the union
yields an interval [D, E] that contains every real eigenvalue; intersecting
the intervals of two matrices bounds where a common eigenvalue can live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyDiscListError
from .matrix import DenseMatrix

__all__ = [
    "Axis",
    "Disc",
    "RealInterval",
    "EMPTY_INTERVAL",
    "discs_of",
    "interval_of",
    "matrix_bounds",
    "intersect",
]


class Axis(Enum):
    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True)
class Disc:
    """One Gerschgorin circle: center at a diagonal entry, radius the
    off-diagonal modulus sum, tagged with its index and axis."""

    center: float
    radius: float
    index: int
    axis: Axis

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError("disc center must be finite")
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError("disc radius must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class RealInterval:
    """Closed real interval [lo, hi], or the empty interval.

    When ``empty`` is true, ``lo`` and ``hi`` carry no meaning (they are
    canonicalized to NaN and must not be read).
    """

    lo: float
    hi: float
    empty: bool = False

    def __post_init__(self):
        if self.empty:
            object.__setattr__(self, "lo", math.nan)
            object.__setattr__(self, "hi", math.nan)
            return
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"interval lo exceeds hi: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if not isinstance(other, RealInterval):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty and other.empty
        return self.lo == other.lo and self.hi == other.hi

    def contains(self, x: float) -> bool:
        return (not self.empty) and self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        if self.empty:
            raise ValueError("empty interval has no width")
        return self.hi - self.lo

    def __str__(self):
        if self.empty:
            return "(empty)"
        return f"[{self.lo:g}, {self.hi:g}]"


EMPTY_INTERVAL = RealInterval(math.nan, math.nan, empty=True)


def discs_of(matrix: DenseMatrix, axis: Axis) -> list[Disc]:
    """Discs from off-diagonal absolute row or column sums, in matrix index order."""
    diag = matrix.entries.diagonal()
    radii = abs(matrix.entries).sum(axis=1 if axis is Axis.ROW else 0) - abs(diag)
    return [Disc(float(c), float(r), k, axis) for k, (c, r) in enumerate(zip(diag, radii))]


def interval_of(discs: list[Disc]) -> RealInterval:
    """Real-axis span of a disc union: [min(c - r), max(c + r)]."""
    if not discs:
        raise EmptyDiscListError("cannot take the interval of zero discs")
    lo = min(d.center - d.radius for d in discs)
    hi = max(d.center + d.radius for d in discs)
    return RealInterval(lo, hi)


def intersect(first: RealInterval, second: RealInterval) -> RealInterval:
    """Intersection of two closed intervals; may be empty.

    Intervals touching at a single point yield the degenerate interval
    [x, x], not empty: a value exactly at the shared endpoint must not be
    lost.
    """
    if first.empty or second.empty:
        return EMPTY_INTERVAL
    lo = max(first.lo, second.lo)
    hi = min(first.hi, second.hi)
    if lo > hi:
        return EMPTY_INTERVAL
    return RealInterval(lo, hi)


def matrix_bounds(matrix: DenseMatrix) -> RealInterval:
    """Inclusion interval for the real eigenvalues of one matrix.

    Intersection of the row-disc and column-disc intervals; never empty,
    since both intervals contain every diagonal entry.  This is an inclusion
    region only: it bounds the real eigenvalues but generally contains much
    more.
    """
    return intersect(*(interval_of(discs_of(matrix, axis)) for axis in Axis))
