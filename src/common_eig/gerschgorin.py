"""Gerschgorin discs and real-axis inclusion intervals.

Every eigenvalue of a real square matrix lies in the union of the discs
centered at the diagonal entries with radii equal to the off-diagonal
absolute row sums, and also in the union of the column discs, which are
the row discs of the transpose: ``discs_of(DenseMatrix(m.entries.T))``.
Projected onto the real axis, each union yields an interval that contains
every real eigenvalue.  ``matrix_bounds`` is the one interval rule: the
row span intersected with the column span.  Intersecting the bounds of two
matrices then bounds where a common eigenvalue can live; where they do not
meet, the intersection is ``EMPTY_INTERVAL``, the interval with no endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrix import DenseMatrix, _abs_sums

__all__ = [
    "Disc",
    "RealInterval",
    "EMPTY_INTERVAL",
    "discs_of",
    "matrix_bounds",
    "intersect",
]


@dataclass(frozen=True)
class Disc:
    """One Gerschgorin circle: center at a diagonal entry, radius the
    off-diagonal modulus sum."""

    center: float
    radius: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError("disc center must be finite")
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError("disc radius must be finite and non-negative")


@dataclass(frozen=True)
class RealInterval:
    """Closed real interval [lo, hi], or the empty interval.

    The empty interval is ``RealInterval(None, None)``, ``EMPTY_INTERVAL``:
    it has no endpoints, so equality and hashing are the generated ones
    over ``(lo, hi)``, and every empty interval equals every other.
    """

    lo: float | None
    hi: float | None

    def __post_init__(self):
        if self.lo is None and self.hi is None:
            return
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"interval lo exceeds hi: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def empty(self) -> bool:
        return self.lo is None

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
        return f"[{self.lo:.10g}, {self.hi:.10g}]"


EMPTY_INTERVAL = RealInterval(None, None)


def discs_of(matrix: DenseMatrix) -> list[Disc]:
    """Row discs from off-diagonal absolute row sums, in matrix index order.

    The column discs are ``discs_of(DenseMatrix(matrix.entries.T))``.  Their
    radii need not equal the column sums ``matrix_bounds`` takes to the bit:
    numpy picks the summation order from the memory layout, and from order
    8 on it sums a row-major copy of the transpose in another order.
    """
    diag = matrix.entries.diagonal()
    (rows,) = _abs_sums(matrix.entries, 1)
    radii = rows - abs(diag)
    return [Disc(float(c), float(r)) for c, r in zip(diag, radii)]


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


def _gerschgorin_span(diag, row_sums, col_sums):
    """``(lo, hi)``, the Gerschgorin interval of a matrix from its diagonal
    and its absolute row and column sums: the span [min(c - r), max(c + r)]
    of its row discs intersected with that of its column discs."""
    off = abs(diag)
    radii = row_sums - off, col_sums - off
    lo = max(min((diag - r).tolist()) for r in radii)
    hi = min(max((diag + r).tolist()) for r in radii)
    return lo, hi


def matrix_bounds(matrix: DenseMatrix) -> RealInterval:
    """Inclusion interval for the real eigenvalues of one matrix.

    Intersection of the row-disc and column-disc intervals; never empty,
    since both intervals contain every diagonal entry.  This is an inclusion
    region only: it bounds the real eigenvalues but generally contains much
    more.  Each span is [min(c - r), max(c + r)] over the discs of that
    axis, computed from the absolute row and column sums without building
    ``Disc`` objects.
    """
    a = matrix.entries
    return RealInterval(*_gerschgorin_span(a.diagonal(), *_abs_sums(a, 1, 0)))
