"""Real-root location by grid scanning plus bisection.

The strategy mirrors a desk calculation: walk a fixed grid across the
interval recording f at every point, accept grid points where f is exactly
0.0 directly as roots, and refine every strict sign change between adjacent
grid points with bisection.  "Exactly zero" is f's own decision: ``char_fn``
returns 0.0 when lambda*I - M is singular to working precision, by a rule
relative to the matrix's scale, and no absolute threshold is added here.
Roots of even multiplicity (no sign change, no grid hit) are invisible to
this method, and two roots closer together than the step can cancel inside
one cell; the mitigation for both is a smaller step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .gerschgorin import RealInterval

__all__ = [
    "ScanEvent",
    "RootOrigin",
    "ScanRecord",
    "RootEstimate",
    "scan",
    "bisect",
    "find_real_roots",
    "DEFAULT_STEP",
    "DEFAULT_WIDTH_TOL",
    "DEFAULT_DEDUPE_TOL",
]

DEFAULT_STEP = 0.1
DEFAULT_WIDTH_TOL = 1e-10
DEFAULT_DEDUPE_TOL = 1e-6


class ScanEvent(Enum):
    NONE = "none"
    ZERO_HIT = "zero_hit"
    SIGN_CHANGE_AHEAD = "sign_change_ahead"


class RootOrigin(Enum):
    BISECTION = "bisection"
    GRID_ZERO = "grid_zero"
    ENDPOINT_ZERO = "endpoint_zero"


@dataclass(frozen=True)
class ScanRecord:
    """One grid point of a scan: the abscissa, f there, and what it triggered."""

    lam: float
    value: float
    event: ScanEvent = ScanEvent.NONE


@dataclass(frozen=True)
class RootEstimate:
    """One located real root.

    ``bracket_lo == bracket_hi == value`` for grid and endpoint zeros; for
    bisection results the bracket is the final sign-change interval, with
    ``value`` one of its endpoints.
    """

    value: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    origin: RootOrigin


def _opposite_signs(a: float, b: float) -> bool:
    # Sign-based, not a*b < 0: products of tiny values underflow to zero.
    return (a < 0.0 < b) or (b < 0.0 < a)


def scan(
    f: Callable[[float], float],
    interval: RealInterval,
    step: float = DEFAULT_STEP,
) -> list[ScanRecord]:
    """Evaluate f on the grid lo, lo+step, ... with hi appended exactly.

    Each record carries at most one event, zero hits taking precedence:
    ZERO_HIT where f is exactly 0.0, SIGN_CHANGE_AHEAD where f flips sign
    strictly between a grid point and its successor and neither cell
    endpoint is itself a zero hit.  Raises ValueError for an empty
    interval or a step that is not finite and positive.
    """
    if interval.empty:
        raise ValueError("cannot scan an empty interval")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")

    grid = []
    i = 0
    while True:
        x = interval.lo + i * step
        if x >= interval.hi:
            break
        grid.append(x)
        i += 1
    grid.append(interval.hi)

    values = [float(f(x)) for x in grid]
    events = [ScanEvent.ZERO_HIT if v == 0.0 else ScanEvent.NONE for v in values]
    for j in range(len(grid) - 1):
        if (
            events[j] is ScanEvent.NONE
            and events[j + 1] is not ScanEvent.ZERO_HIT
            and _opposite_signs(values[j], values[j + 1])
        ):
            events[j] = ScanEvent.SIGN_CHANGE_AHEAD
    return [ScanRecord(x, v, e) for x, v, e in zip(grid, values, events)]


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    width_tol: float = DEFAULT_WIDTH_TOL,
) -> RootEstimate:
    """Refine a strict sign-change bracket [lo, hi] to a root.

    ``flo`` and ``fhi`` are f(lo) and f(hi), which the caller already has
    (a scan holds them), so f is never evaluated at the bracket ends.
    Halves the bracket keeping the sign change, stopping as soon as f is
    exactly 0.0 at the midpoint, the surviving bracket is no wider than
    width_tol, or no float64 lies strictly inside it (so width_tol = 0
    bisects down to adjacent floats, in at most 2099 halvings over the
    whole float64 range, brackets out to ±max included: the midpoint is
    taken as 0.5·lo + 0.5·hi, which cannot overflow).  The estimate is the
    last midpoint, or, where the bracket could not be halved at all, the
    end with the smaller |f|.  Costs exactly ``iterations`` evaluations of
    f.  Raises ValueError for a negative width_tol, an empty or reversed
    bracket, or bracket values that do not change sign.
    """
    if width_tol < 0.0:
        raise ValueError("width_tol must be non-negative")
    if not lo < hi:
        raise ValueError(f"bracket is empty or reversed: [{lo}, {hi}]")
    if not _opposite_signs(flo, fhi):
        raise ValueError(f"f({lo}) = {flo} and f({hi}) = {fhi} do not change sign")

    est, fest = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    iterations = 0
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        est, fest = mid, float(f(mid))
        iterations += 1
        if fest == 0.0:
            break
        if _opposite_signs(flo, fest):
            hi = mid
        else:
            lo, flo = mid, fest
        if hi - lo <= width_tol:
            break
    return RootEstimate(
        value=est,
        residual=abs(fest),
        bracket_lo=lo,
        bracket_hi=hi,
        iterations=iterations,
        origin=RootOrigin.BISECTION,
    )


def find_real_roots(
    f: Callable[[float], float],
    interval: RealInterval,
    step: float = DEFAULT_STEP,
    width_tol: float = DEFAULT_WIDTH_TOL,
    dedupe_tol: float = DEFAULT_DEDUPE_TOL,
) -> list[RootEstimate]:
    """All real roots of f over a closed interval, sorted ascending.

    Grid zero hits are taken directly (grid zeros at the interval's own
    endpoints are tagged ENDPOINT_ZERO); every sign-change cell is refined
    by bisection from the two scan values that bracket it, so the total cost
    is one evaluation per grid point plus one per bisection iteration.
    Clusters of near-identical results are merged, keeping the
    smallest-residual representative, so consecutive returned roots are
    always more than dedupe_tol apart.  Raises ValueError as scan does,
    and for a negative dedupe_tol.
    """
    if dedupe_tol < 0.0:
        raise ValueError("dedupe_tol must be non-negative")
    records = scan(f, interval, step)
    last = len(records) - 1

    roots = []
    for idx, rec in enumerate(records):
        if rec.event is ScanEvent.ZERO_HIT:
            origin = (
                RootOrigin.ENDPOINT_ZERO
                if idx in (0, last)
                else RootOrigin.GRID_ZERO
            )
            roots.append(
                RootEstimate(
                    value=rec.lam,
                    residual=abs(rec.value),
                    bracket_lo=rec.lam,
                    bracket_hi=rec.lam,
                    iterations=0,
                    origin=origin,
                )
            )
        elif rec.event is ScanEvent.SIGN_CHANGE_AHEAD:
            nxt = records[idx + 1]
            roots.append(bisect(f, rec.lam, nxt.lam, rec.value, nxt.value, width_tol))

    roots.sort(key=lambda r: r.value)
    merged = []
    i = 0
    while i < len(roots):
        j = i
        while j + 1 < len(roots) and roots[j + 1].value - roots[j].value <= dedupe_tol:
            j += 1
        merged.append(min(roots[i : j + 1], key=lambda r: (r.residual, r.value)))
        i = j + 1
    return merged
