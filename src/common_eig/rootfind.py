"""Real-root location by grid scanning plus bisection.

The strategy mirrors a desk calculation: walk a fixed grid across the
interval recording f at every point, accept grid points where f is exactly
0.0 directly as roots, and refine the strict sign changes between adjacent
grid points with bisection.  Which sign-change cells are refined, and how
far, is the caller's choice, made by a cell test once the scan is read:
every cell goes to bisection, with a test that can stop it before any
step or on the way, and seeds, points where a root is likely, for its
first steps.  A root stopped is still returned, as a CELL estimate that
brackets it with the part of its cell that bisection kept, the whole
cell where no step was taken.  Bisection keeps halving's bracket and
stop rules but steps to ITP points (regula falsi pulled toward the
midpoint), which converge superlinearly on the smooth cells of
``det(λI − M)`` and cost at most two steps more than halving anywhere
else, seeded or not.  "Exactly zero" is f's own
decision: ``char_fn`` returns 0.0 when lambda*I - M is singular to
working precision, by a rule relative to the matrix's scale, and no
absolute threshold is added here.
Every zero hit and every sign-change cell is a distinct root, and every
root found is returned, however close to its neighbours.
Roots of even multiplicity (no sign change, no grid hit) are invisible to
this method, and two roots closer together than the step can cancel inside
one cell; the mitigation for both is a smaller step.
Every grid's interior points lie on one lattice, the multiples k·step, so
a grid point depends only on its value, never on where the interval
begins: a sub-interval whose ends are grid points has, as its own grid,
exactly that slice of the whole grid (``_grid_span`` finds one).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .gerschgorin import EMPTY_INTERVAL, RealInterval

__all__ = [
    "ScanEvent",
    "RootOrigin",
    "ScanRecord",
    "RootEstimate",
    "GridScan",
    "scan",
    "bisect",
    "find_real_roots",
    "DEFAULT_STEP",
    "DEFAULT_WIDTH_TOL",
]

DEFAULT_STEP = 0.1
DEFAULT_WIDTH_TOL = 1e-10

# scan refuses a grid of more points than this.  The records it returns
# hold 128 bytes per point (tracemalloc over grids of 1e5 and 1e6 points on
# CPython 3.11: a 64-byte ScanRecord, two 24-byte floats and a list slot),
# so a grid at the limit would take some 13 GB.
_MAX_GRID_POINTS = 10**8

# The ITP step's pull toward the midpoint is _ITP_KAPPA·w²/(hi - lo) for a
# bracket w wide (κ1·(hi - lo) = 0.2 and κ2 = 2 in the ITP paper's terms).
_ITP_KAPPA = 0.2
# The bracket may lag plain halving by _ITP_N0 steps (n0 in the ITP paper).
_ITP_N0 = 2

# bisect's near test of a bracket (lo, hi): refine it further only where true.
_Near = Callable[[float, float], bool]
# find_real_roots' test of a cell (lo, hi): bisect's near and seeds for it.
_CellTest = Callable[[float, float], tuple[_Near | None, Sequence[float]]]


class ScanEvent(Enum):
    NONE = "none"
    ZERO_HIT = "zero_hit"
    SIGN_CHANGE_AHEAD = "sign_change_ahead"


class RootOrigin(Enum):
    BISECTION = "bisection"
    GRID_ZERO = "grid_zero"
    ENDPOINT_ZERO = "endpoint_zero"
    CELL = "cell"


class ScanRecord(NamedTuple):
    """One grid point of a scan: the abscissa, f there, and what it
    triggered.  A tuple, so it compares equal to ``(lam, value, event)``."""

    lam: float
    value: float
    event: ScanEvent = ScanEvent.NONE


class RootEstimate(NamedTuple):
    """One located real root.  A tuple, so it compares equal to
    ``(value, residual, bracket_lo, bracket_hi, iterations, origin)``.

    ``bracket_lo == bracket_hi == value`` for grid and endpoint zeros; for
    bisection results the bracket is the final sign-change interval, with
    ``value`` one of its ends, or the step point inside it where f was
    exactly 0.0.  A CELL estimate is a sign-change cell refined only until
    it could not pair: what ``bisect`` returns when its ``near`` test stops
    it, with its bracket as far as it got, and as its value and residual
    the last point evaluated, an end of that bracket, and |f| there.  One
    stopped before any step is the cell itself, with the end where |f| is
    smaller as its value.  ``iterations`` counts bisection steps, one
    evaluation of f each, so a CELL estimate has 0 or more.
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


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """The rule for every step and tolerance: raise ValueError unless value
    is finite and non-negative, or finite and positive where so asked."""
    if not 0.0 <= value < math.inf or (positive and value == 0.0):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")


def _check_grid(interval: RealInterval, step: float) -> None:
    """Raise ValueError where step puts more than 1e8 points on the scan
    grid of a non-empty interval, or, unless the interval is a point, where
    step is at most twice the float spacing at its larger end in magnitude:
    there neighbouring lattice points could round to one float."""
    points = (interval.hi - interval.lo) / step
    if not points <= _MAX_GRID_POINTS:
        raise ValueError(
            f"step {step} puts about {points:.3g} points on the scan grid, "
            f"more than {_MAX_GRID_POINTS:.0e}"
        )
    spacing = math.ulp(max(-interval.lo, interval.hi))
    if interval.lo < interval.hi and step <= 2.0 * spacing:
        raise ValueError(
            f"step {step} is not above twice the float spacing {spacing:.3g} "
            f"on [{interval.lo!r}, {interval.hi!r}]"
        )


def _grid_span(interval: RealInterval, step: float, lo: float, hi: float) -> RealInterval:
    """The part of a non-empty interval's scan grid that brackets [lo, hi]:
    from its last grid point at or below max(lo, interval.lo) to its first
    at or above min(hi, interval.hi), or EMPTY_INTERVAL where [lo, hi]
    misses the interval.  Either of lo and hi may be infinite.  The span's
    own scan grid is exactly that slice of the interval's, so where f has
    no zero and no sign change outside [lo, hi] it has the same roots.
    The step must be one that ``_check_grid`` admits for the interval."""
    lo, hi = max(interval.lo, lo), min(interval.hi, hi)
    if not lo <= hi:
        return EMPTY_INTERVAL
    # The lattice point nearest lo, moved one down if it lies above lo; but
    # no lattice point at or beyond an end's own index is a grid point.
    if interval.lo < lo < interval.hi:
        k = round(lo / step)
        k = min(k - (k * step > lo), round(interval.hi / step) - 1)
        lo = k * step if k > round(interval.lo / step) else interval.lo
    if interval.lo < hi < interval.hi:
        k = round(hi / step)
        k = max(k + (k * step < hi), round(interval.lo / step) + 1)
        hi = k * step if k < round(interval.hi / step) else interval.hi
    return RealInterval(lo, hi)


def scan(
    f: Callable[[float], float],
    interval: RealInterval,
    step: float = DEFAULT_STEP,
) -> list[ScanRecord]:
    """Evaluate f on the grid of [lo, hi]: lo, every k*step with
    round(lo/step) < k < round(hi/step), and hi, in ascending order.

    Each end stands in for its nearest lattice point, so no cell is
    narrower than half a step unless the interval is, and every grid's
    interior lies on the same lattice.  f is called once per grid point,
    in the grid's order, as the walk reaches the point, so an f that
    raises ends the scan there.  Each record carries at most one event:
    ZERO_HIT where f is exactly 0.0, SIGN_CHANGE_AHEAD where f is strictly
    negative at the grid point and strictly positive at its successor, or
    the other way round (so a cell with a zero hit or a nan at either end
    is never flagged).  An empty interval has no grid: the result is []
    and f is not called; a point interval's grid is its one point.
    Raises ValueError, before any call of f, for a step that is not finite
    and positive, one that puts more than 1e8 points on the grid, or one
    at most twice the float spacing at the interval's ends.
    """
    _check_finite("step", step, positive=True)
    if interval.empty:
        return []
    _check_grid(interval, step)

    # Each point is made as the walk reaches it, and its record as soon as
    # the next value decides its event.  lo + 0.0 reads lo = -0.0 as 0.0.
    # A point interval needs no lattice index, whose quotient could overflow.
    lo, hi = interval.lo, interval.hi
    k, last = (round(lo / step), round(hi / step)) if lo < hi else (0, 0)
    none, zero_hit, ahead = ScanEvent.NONE, ScanEvent.ZERO_HIT, ScanEvent.SIGN_CHANGE_AHEAD
    records = []
    append = records.append
    x = lo + 0.0
    v = float(f(x))
    while x < hi:
        k += 1
        nxt = k * step if k < last else hi
        fnxt = float(f(nxt))
        if v < 0.0 < fnxt or fnxt < 0.0 < v:
            append(ScanRecord(x, v, ahead))
        else:
            append(ScanRecord(x, v, zero_hit if v == 0.0 else none))
        x, v = nxt, fnxt
    append(ScanRecord(x, v, zero_hit if v == 0.0 else none))
    return records


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    width_tol: float = DEFAULT_WIDTH_TOL,
    near: _Near | None = None,
    seeds: Sequence[float] = (),
) -> RootEstimate:
    """Refine a strict sign-change bracket [lo, hi] to a root.

    ``flo`` and ``fhi`` are f(lo) and f(hi), which the caller already has
    (a scan holds them), so f is never evaluated at the bracket ends.
    Each step evaluates f at one point strictly inside the bracket and
    keeps the part that still changes sign, stopping as soon as f is
    exactly 0.0 there, the bracket is no wider than width_tol, or no
    float64 lies strictly inside it.  ``near``, if given, is asked before
    each step whether the current bracket is still worth refining, as
    ``near(lo, hi)``; where it is false bisect stops there and returns a
    CELL estimate instead (see RootEstimate).  Those rules are tested
    first, so a bracket that reaches width_tol is a BISECTION root
    whatever near says, and ``near`` changes no step point: a root it
    never stops is the one bisect gives without it, bit for bit.

    The point is the ITP one (interpolate, truncate, project; Oliveira &
    Takahashi, ACM TOMS 47(1), 2020): regula falsi, pulled toward the
    midpoint, and kept near enough to it that after k steps the bracket is
    no wider than plain halving leaves it after k - 2.  On the smooth,
    simple root that a scan cell of ``det(λI − M)`` usually holds, it
    converges superlinearly, in about a quarter of the halvings, and the
    two steps of slack let it keep converging where f curves hard in the
    cell.  On any bracket it costs at most two steps beyond halving,
    rounding included, as long as width_tol is above the float spacing:
    the schedule counts down to width_tol from the halvings that can reach
    it, and each point is tested with the stop rule's own subtractions.
    The step is the midpoint 0.5·lo + 0.5·hi, which cannot overflow, where
    width_tol is 0 or under twice the float spacing at the bracket's larger
    end, where an end value or 4·(hi - lo) is not finite, and where
    rounding puts the point on an end or off the schedule.  So
    width_tol = 0 halves exactly, down to adjacent floats, in at most 2099
    halvings over the whole float64 range, brackets out to ±max included.

    ``seeds``, if given, are points where a root is likely, such as the
    root another function has nearby.  Each of the first two steps goes to
    the first of them, in their order, that lies strictly inside the
    bracket as it then stands and on the schedule, which the two steps of
    slack leave room for almost anywhere inside it.  So a seed costs no
    more than the ITP point it replaces in the bound above, one outside
    the bracket, on an end or already taken is never evaluated, and where
    every step is the midpoint no seed is taken.  Without seeds the steps
    are the ITP ones, bit for bit.

    The estimate is the last point evaluated: an exact zero of f, or else
    an end of the final bracket; where no step was taken at all, it is the
    end with the smaller |f|.  Costs exactly
    ``iterations`` evaluations of f.  Raises ValueError for a width_tol
    that is not finite and non-negative, an empty or reversed bracket,
    bracket values that do not change sign, or an f that returns nan
    inside the bracket (the message names the point).
    """
    _check_finite("width_tol", width_tol)
    if not lo < hi:
        raise ValueError(f"bracket is empty or reversed: [{lo}, {hi}]")
    if not _opposite_signs(flo, fhi):
        raise ValueError(f"f({lo}) = {flo} and f({hi}) = {fhi} do not change sign")

    # near is asked before each step, here before the first, so a cell it
    # stops at once costs no schedule.
    est, fest = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    mid = 0.5 * lo + 0.5 * hi
    if near is not None and lo < mid < hi and not near(lo, hi):
        return RootEstimate(est, abs(fest), lo, hi, 0, RootOrigin.CELL)

    # The schedule: step k (from 0) may leave a bracket no wider than
    # ldexp(anchor, top - k), so after top + 1 steps it is within width_tol.
    # ulp is the float spacing at the bracket's larger end, the coarsest
    # inside it.  Halving's rounded midpoints move its bracket by less than
    # an ulp in all, so halving may finish in the fewest halvings that
    # reach width_tol + ulp; top + 1 is n0 more than that.  The anchor is a
    # whole number of ulps, at least one below width_tol: a bracket on the
    # schedule then splits at its midpoint into halves on the next bound,
    # and the ulp absorbs the rounding of midpoints beside a power of two.
    # Each point is tested with the subtractions the stop rule makes.  The
    # first bound is below 4·(hi - lo), so it overflows only where that does.
    width = hi - lo
    itp = 0.0 < width_tol and 4.0 * width < math.inf
    if itp:
        ulp = math.ulp(max(-lo, hi))
        anchor = width_tol - math.fmod(width_tol, ulp) - ulp
        itp = anchor > 0.0
        halving_tol = width_tol + ulp
        halvings = math.frexp(width / halving_tol)[1]
        if math.ldexp(halving_tol, halvings - 1) >= width:
            halvings -= 1
        top = halvings + _ITP_N0 - 1
    kappa = _ITP_KAPPA / width

    isfinite, isnan, copysign, ldexp = math.isfinite, math.isnan, math.copysign, math.ldexp
    iterations = 0
    origin = RootOrigin.BISECTION
    while lo < mid < hi:
        # In the first _ITP_N0 steps, the first seed that lies strictly
        # inside the bracket and leaves no sub-bracket wider than bound.
        # Else the ITP point: regula falsi between the bracket ends, pulled
        # toward the midpoint by kappa·w², then clamped to within
        # bound − w/2 of the midpoint, so that neither sub-bracket is wider
        # than bound.  The midpoint where an end value is not finite or
        # rounding puts the point on an end or leaves a sub-bracket wider
        # than bound.
        est, seed = mid, None
        if itp:
            bound = ldexp(anchor, top - iterations)
            if seeds and iterations < _ITP_N0:
                seed = next(
                    (x for x in seeds if lo < x < hi and x - lo <= bound and hi - x <= bound),
                    None,
                )
        if seed is not None:
            est = seed
        elif itp and isfinite(flo) and isfinite(fhi):
            width = hi - lo
            # flo and fhi differ in sign, so 1 - fhi/flo > 1: no overflow to nan
            falsi = lo + width / (1.0 - fhi / flo)
            gap = mid - falsi
            pull = kappa * width * width
            x = falsi + copysign(pull, gap) if pull <= abs(gap) else mid
            reach = bound - 0.5 * width
            if abs(x - mid) > reach:
                x = mid - copysign(reach, gap)
            if lo < x < hi and x - lo <= bound and hi - x <= bound:
                est = x
        fest = float(f(est))
        iterations += 1
        if isnan(fest):
            raise ValueError(f"f({est!r}) is nan inside the bracket [{lo!r}, {hi!r}]")
        if fest == 0.0:
            break
        if flo < 0.0 < fest or fest < 0.0 < flo:
            hi, fhi = est, fest
        else:
            lo, flo = est, fest
        if hi - lo <= width_tol:
            break
        mid = 0.5 * lo + 0.5 * hi
        if near is not None and lo < mid < hi and not near(lo, hi):
            origin = RootOrigin.CELL
            break
    return RootEstimate(est, abs(fest), lo, hi, iterations, origin)


class GridScan:
    """``scan(f, interval, step)``, made when ``records`` is first read and
    then kept.

    ``find_real_roots`` takes a GridScan rather than records, so a scan runs
    inside the search that first reads it: perfbench credits a scan's
    evaluations and time to the ``find_real_roots`` call around it.  A
    pipeline that pairs two functions reads the second scan from the first
    search's cell test (see ``find_real_roots``' refine) and the second
    search reads it again, at no further evaluation.
    """

    __slots__ = ("f", "interval", "step", "_records")

    def __init__(
        self,
        f: Callable[[float], float],
        interval: RealInterval,
        step: float = DEFAULT_STEP,
    ):
        self.f, self.interval, self.step = f, interval, step
        self._records = None

    @property
    def records(self) -> list[ScanRecord]:
        if self._records is None:
            self._records = scan(self.f, self.interval, self.step)
        return self._records


def find_real_roots(
    grid: GridScan,
    width_tol: float = DEFAULT_WIDTH_TOL,
    refine: Callable[[], _CellTest] | None = None,
) -> list[RootEstimate]:
    """Every real root that ``grid``'s scan of f finds, in ascending order.

    Grid zero hits are taken directly (zero hits on the scan's first or
    last grid point are tagged ENDPOINT_ZERO).  ``refine``, if given, is
    called once, after the scan is read and before any bisection, and
    returns the cell test, which is asked about each sign-change cell
    [lo, hi] once, in ascending order, as ``test(lo, hi)``.  It returns
    the pair ``(near, seeds)`` with which ``bisect`` (ITP steps) refines
    the cell from the two scan values that bracket it: ``near`` may stop
    it, before any step or on the way, as a CELL estimate (see
    RootEstimate), and ``seeds`` may be its first step points.  Where
    refine is None every cell is bisected to width_tol.  So the cost is
    one evaluation of f per grid point and per bisection step,
    ``len(grid.records)`` plus the roots' iterations, whether a root was
    refined to width_tol, stopped on the way or stopped before any step.
    A cell holding an odd number of roots yields one of them.  Every zero
    hit and every sign-change cell is a distinct root and is returned,
    however close to its neighbours; each lies in its own grid point or
    cell, so they come out in the grid's order, which is ascending.  An
    empty interval yields [] without calling f.  Raises ValueError, before
    any call of f or of refine, for a width_tol that is not finite and
    non-negative, and as ``scan`` does.
    """
    _check_finite("width_tol", width_tol)
    f, records = grid.f, grid.records
    cell_test = refine() if refine is not None else None
    last = len(records) - 1

    roots = []
    for idx, rec in enumerate(records):
        if rec.event is ScanEvent.ZERO_HIT:
            origin = (
                RootOrigin.ENDPOINT_ZERO
                if idx in (0, last)
                else RootOrigin.GRID_ZERO
            )
            roots.append(RootEstimate(
                value=rec.lam,
                residual=abs(rec.value),
                bracket_lo=rec.lam,
                bracket_hi=rec.lam,
                iterations=0,
                origin=origin,
            ))
        elif rec.event is ScanEvent.SIGN_CHANGE_AHEAD:
            nxt = records[idx + 1]
            test = cell_test(rec.lam, nxt.lam) if cell_test is not None else ()
            roots.append(bisect(f, rec.lam, nxt.lam, rec.value, nxt.value, width_tol, *test))
    return roots
