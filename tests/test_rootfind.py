"""Grid scanning, bisection, and root collection over an interval."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from common_eig import (
    EMPTY_INTERVAL,
    DenseMatrix,
    GridScan,
    RealInterval,
    RootOrigin,
    ScanEvent,
    bisect,
    char_fn,
    find_real_roots,
    match_roots,
    scan,
)
import common_eig.rootfind as rootfind
from common_eig.rootfind import _grid_span, _opposite_signs
from oracles import itp_bisect, lattice_scan, plain_bisect


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


# ------------------------------------------------------------------- scan

def test_scan_reference_grid(mat_a):
    records = scan(lambda x: char_fn(mat_a, x), RealInterval(0, 4))
    assert len(records) == 41
    assert records[0].lam == 0.0
    assert records[0].value == -30.0
    assert records[0].event is ScanEvent.NONE
    assert records[-1].lam == 4.0
    # k*step lies within one ulp of the nominal tenths
    assert records[29].lam == pytest.approx(2.9, abs=1e-14)
    assert records[29].value == pytest.approx(0.189, abs=1e-12)


def test_scan_no_events_on_rootless_function():
    records = scan(lambda x: x, RealInterval(1, 2), step=0.5)
    assert [(r.lam, r.value, r.event) for r in records] == [
        (1.0, 1.0, ScanEvent.NONE),
        (1.5, 1.5, ScanEvent.NONE),
        (2.0, 2.0, ScanEvent.NONE),
    ]


def test_scan_zero_hits_mark_reference_roots(mat_b):
    records = scan(lambda x: char_fn(mat_b, x), RealInterval(0, 4))
    events = {r.lam: r.event for r in records}
    assert events[1.0] is ScanEvent.ZERO_HIT
    assert events[3.0] is ScanEvent.ZERO_HIT
    assert events[4.0] is ScanEvent.ZERO_HIT
    assert all(e is not ScanEvent.SIGN_CHANGE_AHEAD for e in events.values())


def test_scan_sign_change_marked_on_left_cell_end():
    records = scan(lambda x: x - 0.55, RealInterval(0, 1))
    flagged = [r for r in records if r.event is ScanEvent.SIGN_CHANGE_AHEAD]
    assert len(flagged) == 1
    assert flagged[0].lam == 0.5


def test_scan_zero_hit_suppresses_adjacent_sign_changes():
    # f crosses zero exactly at the middle grid point: the zero hit wins,
    # neither neighboring cell reports a sign change
    values = {0.0: -1.0, 1.0: 0.0, 2.0: 1.0}
    records = scan(lambda x: values[x], RealInterval(0, 2), step=1.0)
    assert [r.event for r in records] == [
        ScanEvent.NONE,
        ScanEvent.ZERO_HIT,
        ScanEvent.NONE,
    ]


def test_scan_appends_endpoint_exactly():
    # 0.35 stands in for its nearest lattice point 0.3: 0, 0.1, 0.2, 0.35
    records = scan(lambda x: 1.0, RealInterval(0, 0.35))
    assert records[-1].lam == 0.35
    assert len(records) == 4


def test_scan_degenerate_interval_single_point():
    records = scan(lambda x: x, RealInterval(1, 1), step=0.5)
    assert len(records) == 1
    assert records[0].lam == 1.0


def test_scan_input_validation():
    counted = Counted(lambda x: x)
    assert scan(counted, EMPTY_INTERVAL) == []
    assert counted.calls == 0
    with pytest.raises(ValueError, match="step must be finite and positive"):
        # the step is checked before the interval
        scan(lambda x: x, EMPTY_INTERVAL, step=0.0)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        scan(lambda x: x, RealInterval(0, 1), step=0.0)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        # the first grid point would be lo + 0 * inf = nan
        scan(lambda x: x, RealInterval(0, 1), step=math.inf)


def test_scan_refuses_a_grid_too_large_to_hold(monkeypatch):
    # Refused before any evaluation: (hi - lo) / step overflows to inf on
    # [1, 1e308], and hi - lo itself does on [-1e308, 1e308].
    for interval, count in (
        (RealInterval(1.0, 1e308), "inf"),
        (RealInterval(-1e308, 1e308), "inf"),
        (RealInterval(0.0, 1.5e7), "1.5e+08"),
    ):
        counted = Counted(lambda x: x)
        with pytest.raises(ValueError, match=re.escape(f"step 0.1 puts about {count} points")):
            scan(counted, interval)
        assert counted.calls == 0
    # the limit itself is allowed, a grid one step longer is not
    monkeypatch.setattr(rootfind, "_MAX_GRID_POINTS", 4)
    assert len(scan(lambda x: x, RealInterval(0.0, 2.0), step=0.5)) == 5
    with pytest.raises(ValueError, match=re.escape("more than 4e+00")):
        scan(lambda x: x, RealInterval(0.0, 2.5), step=0.5)


def test_scan_evaluates_each_point_as_the_walk_reaches_it():
    # f is called once per grid point, in the grid's order, and the grid is
    # never held whole: an f that raises on its first call over a grid of
    # 1e6 points has been called once, and the scan took under 1 MB.
    calls = []

    def refuse(x):
        calls.append(x)
        raise ArithmeticError("no value")

    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError, match="no value"):
            scan(refuse, RealInterval(0.0, 1e5), step=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [0.0]
    assert peak < 1_000_000
    seen = []
    records = scan(lambda x: seen.append(x) or math.sin(3.0 * x), RealInterval(-1.0, 2.0), 0.25)
    assert seen == [r.lam for r in records]
    assert len(records) == 13


def _planted(roots, exponent, holes=(), stop=None):
    """10**exponent * prod(x - r), with a log of its calls: nan on the calls
    numbered in holes, and ArithmeticError on the call numbered stop."""
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) - 1 == stop:
            raise ArithmeticError("no value")
        if len(calls) - 1 in holes:
            return math.nan
        p = 10.0**exponent
        for r in roots:
            p *= x - r
        return p

    return f, calls


def _run(call, *args):
    """call(*args), or the type and text of what it raised."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.floats(-1.0, 1.0), max_size=6),
    exponent=st.integers(-200, 200),
    lo=st.one_of(st.just(-0.0), st.floats(-1.5, 1.5), st.integers(-96, 96).map(lambda k: k / 64)),
    step=st.one_of(st.floats(1e-3, 0.5), st.integers(1, 32).map(lambda k: k / 64)),
    span=st.floats(0.0, 3.0),
    end=st.sampled_from(["free", "on_grid", "degenerate"]),
    holes=st.sets(st.integers(0, 60), max_size=3),
    stop=st.one_of(st.none(), st.integers(0, 60)),
)
@example(roots=[0.5], exponent=200, lo=-0.0, step=0.25, span=1.0, end="on_grid", holes=set(), stop=None)
@example(roots=[0.5], exponent=-200, lo=-0.0, step=0.1, span=0.0, end="degenerate", holes=set(), stop=None)
@example(roots=[0.0], exponent=0, lo=-0.0, step=0.1, span=1.0, end="free", holes={1}, stop=None)
def test_scan_matches_the_walked_grid_bitwise(roots, exponent, lo, step, span, end, holes, stop):
    # The walk gives the records of the lattice grid listed whole, to the
    # bit, and calls f at the same points in the same order: at a first
    # point of lo = -0.0 (read as 0.0), a degenerate interval, an hi on the
    # lattice, products that underflow to exact zeros at 10**-200, a nan at
    # either end of a cell, and an f that raises.
    if end == "on_grid":
        hi = max(lo, round((lo + span) / step) * step)
    else:
        hi = lo if end == "degenerate" else lo + span
    interval = RealInterval(lo, hi)
    f, calls = _planted(roots, exponent, holes, stop)
    ours = _run(scan, f, interval, step)
    ref_f, ref_calls = _planted(roots, exponent, holes, stop)
    ref = _run(lattice_scan, ref_f, interval, step)
    assert [x.hex() for x in calls] == [x.hex() for x in ref_calls]
    if isinstance(ref, list):
        assert [(r.lam.hex(), r.value.hex(), r.event) for r in ours] == [
            (r.lam.hex(), r.value.hex(), r.event) for r in ref
        ]
    else:
        assert ours == ref


@settings(max_examples=500, deadline=None)
@given(
    lo=st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300) | st.floats(-4.0, 4.0),
    cells=st.floats(0.0, 200.0),
    ulps=st.floats(2.0, 8.0, exclude_min=True),
)
@example(lo=1.0, cells=225.0, ulps=2.0000001)
@example(lo=-0.5, cells=100.0, ulps=2.0000001)
@example(lo=0.0, cells=50.0, ulps=3.0)
def test_every_grid_is_strictly_ascending_with_its_ends_exact(lo, cells, ulps):
    # At every step the scan admits, down to just above twice the float
    # spacing, the grid rises strictly from lo to hi, both exact, and each
    # interior point is the lattice point k*step of its own index; at
    # twice the spacing the step is refused.
    hi = lo + cells * ulps * math.ulp(abs(lo))
    assume(lo < hi < math.inf)
    spacing = math.ulp(max(-lo, hi))
    step = ulps * spacing
    assume(step > 2.0 * spacing)  # not so where the spacing is subnormal
    lams = [r.lam for r in scan(lambda x: 1.0, RealInterval(lo, hi), step)]
    assert lams[0] == lo and lams[-1] == hi
    assert all(x < y for x, y in zip(lams, lams[1:]))
    assert all(round(x / step) * step == x for x in lams[1:-1])
    with pytest.raises(ValueError, match="twice the float spacing"):
        scan(lambda x: 1.0, RealInterval(lo, hi), 2.0 * spacing)


def test_a_step_at_or_below_twice_the_float_spacing_is_refused():
    # Lattice points closer than the float spacing would round to repeated
    # grid points, each a zero hit of a root on one: 23 copies of one root.
    counted = Counted(lambda x: x - (1.0 + 5e-14))
    for interval, step in (
        (RealInterval(1.0, 1.0 + 1e-13), 1e-17),
        (RealInterval(1.0, 1.0 + 1e-13), 2.0 * math.ulp(1.0 + 1e-13)),
        (RealInterval(-3.0, -3.0 + 1e-13), 2.0 * math.ulp(3.0)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"step {step!r} is not above twice")):
            find_real_roots(GridScan(counted, interval, step))
    assert counted.calls == 0
    # a step just above it is admitted, and a point interval keeps its one
    # point at any step, however large its quotient by the step
    assert len(scan(counted, RealInterval(1.0, 1.0 + 1e-13), 3.0 * math.ulp(1.0))) > 100
    assert scan(lambda x: x, RealInterval(1e300, 1e300), 1e-300) == [(1e300, 1e300, ScanEvent.NONE)]


@pytest.mark.parametrize(
    "lo, hi, step",
    [(0.0, 0.3000000000000001, 0.1), (0.0, 0.35, 0.1), (-0.04, 0.36, 0.1), (0.05, 0.06, 0.1),
     (1.0, 1.0 + 1e-13, 5e-16)],
)
def test_no_cell_is_narrower_than_half_a_step_unless_the_interval_is(lo, hi, step):
    # Each end stands in for its nearest lattice point: on [0, 0.3 + 1 ulp]
    # a walk from lo by lo + i*step would leave a last cell one ulp wide.
    lams = [r.lam for r in scan(lambda x: 1.0, RealInterval(lo, hi), step)]
    cells = [b - a for a, b in zip(lams, lams[1:])]
    assert min(cells) >= min(0.5 * step, hi - lo) * (1.0 - 1e-9)
    assert max(cells) <= 1.5 * step * (1.0 + 1e-9)


def _window_slice(records, interval, window):
    """The records of the whole grid that bracket window ∩ interval, for a
    window (lo, hi): from the last at or below its lower end through the
    first after that at or above its upper end; [] where the window misses
    the interval."""
    lo, hi = max(window[0], interval.lo), min(window[1], interval.hi)
    if not lo <= hi:
        return []
    first = max(i for i, r in enumerate(records) if r.lam <= lo)
    last = next(i for i in range(first, len(records)) if records[i].lam >= hi)
    return records[first : last + 1]


@settings(max_examples=300, deadline=None)
@given(
    exponent=st.integers(-200, 200),
    lo=st.one_of(st.just(-0.0), st.floats(-1.5, 1.5), st.integers(-96, 96).map(lambda k: k / 64)),
    step=st.one_of(st.floats(1e-3, 0.5), st.integers(1, 32).map(lambda k: k / 64)),
    span=st.floats(0.0, 3.0),
    place=st.sampled_from(["free", "on_grid", "below_lo", "beyond_hi", "outside", "point",
                           "point_on_grid", "unbounded"]),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=5),
    inside=st.booleans(),
)
@example(exponent=0, lo=0.0, step=0.25, span=2.0, place="on_grid", ends=(0.25, 0.75),
         fractions=[0.5], inside=True)
@example(exponent=0, lo=0.0, step=0.25, span=2.0, place="point_on_grid", ends=(0.5, 0.5),
         fractions=[0.0], inside=True)
def test_windowed_scan_is_a_slice_of_the_whole_grid(
    exponent, lo, step, span, place, ends, fractions, inside
):
    # The scan of a window's grid span calls f at the points of the whole
    # grid that bracket the window, in order, and gives their records to
    # the bit.  Where every root of f lies in the window, so that f has no
    # zero and no sign change outside it, the last record's event is the
    # whole grid's too; elsewhere it is decided as though that point ended
    # the grid.
    interval = RealInterval(lo, lo + span)
    lams = [r.lam for r in lattice_scan(lambda x: x, interval, step)]
    a, b = sorted(ends)
    if place == "on_grid":
        window = lams[int(a * (len(lams) - 1))], lams[int(b * (len(lams) - 1))]
    elif place == "below_lo":
        window = lo - 1.0 - a, lo + b * span
    elif place == "beyond_hi":
        window = lo + a * span, interval.hi + 1.0 + b
    elif place == "outside":
        window = interval.hi + a, interval.hi + 1.0 + b
    elif place == "point":
        window = lo + a * span, lo + a * span
    elif place == "point_on_grid":
        window = lams[int(a * (len(lams) - 1))], lams[int(a * (len(lams) - 1))]
    elif place == "unbounded":
        window = -math.inf if a < 0.5 else lo + a * span, math.inf if b > 0.5 else lo + b * span
    else:
        window = lo + a * span, lo + b * span
    if inside:
        w_lo, w_hi = max(window[0], lo), min(window[1], interval.hi)
        roots = [w_lo + t * (w_hi - w_lo) for t in fractions]
    else:
        roots = [lo - 1.0 + t * (span + 2.0) for t in fractions]
    f, calls = _planted(roots, exponent)
    ours = scan(f, _grid_span(interval, step, *window), step)
    expected = _window_slice(lattice_scan(_planted(roots, exponent)[0], interval, step),
                             interval, window)
    assert [x.hex() for x in calls] == [r.lam.hex() for r in expected]
    got = [(r.lam.hex(), r.value.hex(), r.event) for r in ours]
    want = [(r.lam.hex(), r.value.hex(), r.event) for r in expected]
    if not inside and got:
        got[-1], want[-1] = got[-1][:2], want[-1][:2]
    assert got == want


def test_windowed_scan_edge_cases():
    # A window that misses the interval spans nothing, and its scan calls
    # f nowhere.  A window the whole interval wide, or unbounded on either
    # side, spans the interval to that side.
    counted = Counted(lambda x: x - 0.3)
    interval = RealInterval(0.0, 1.0)
    assert _grid_span(interval, 0.1, 1.5, 2.0) == EMPTY_INTERVAL
    assert _grid_span(interval, 0.1, -2.0, -0.5) == EMPTY_INTERVAL
    assert scan(counted, EMPTY_INTERVAL, 0.1) == []
    assert counted.calls == 0
    assert _grid_span(interval, 0.1, 0.0, 1.0) == interval
    assert _grid_span(interval, 0.1, -math.inf, math.inf) == interval
    assert _grid_span(interval, 0.1, -math.inf, 0.48) == RealInterval(0.0, 0.5)
    assert _grid_span(interval, 0.1, 0.32, math.inf) == RealInterval(0.30000000000000004, 1.0)
    # [0.32, 0.48] on the grid 0, 0.1, ..., 1: from 0.3 through 0.5
    span = _grid_span(interval, 0.1, 0.32, 0.48)
    assert [r.lam for r in scan(counted, span, 0.1)] == [0.30000000000000004, 0.4, 0.5]
    # an end stands in for its nearest lattice point, which is then no grid
    # point: 1.04 for 1.0, so the last grid point at or below 1.02 is 0.9,
    # and -0.04 for 0.0, so the first at or above -0.02 is 0.1
    assert _grid_span(RealInterval(0.03, 1.04), 0.1, 1.02, math.inf) == RealInterval(0.9, 1.04)
    assert _grid_span(RealInterval(-0.04, 0.97), 0.1, -math.inf, -0.02) == RealInterval(
        -0.04, 0.1
    )
    assert _grid_span(RealInterval(0.03, 0.97), 0.1, 0.97, 0.97) == RealInterval(0.97, 0.97)
    # a point interval is its own span, at any step
    assert _grid_span(RealInterval(1e300, 1e300), 1e-300, -math.inf, 2e300) == RealInterval(
        1e300, 1e300
    )


def test_find_roots_in_a_window_match_the_whole_grid():
    # Roots, brackets, iterations and origins, endpoint zeros included, are
    # those of the whole grid when f has no zero and no sign change outside
    # the window; only the evaluations differ.
    f = lambda x: (x - 0.0) * (x - 0.35) * (x - 0.62)  # noqa: E731
    interval = RealInterval(0.0, 2.0)
    for window in (RealInterval(-1.0, 0.7), RealInterval(0.0, 0.62), RealInterval(-0.5, 3.0)):
        whole, windowed = Counted(f), Counted(f)
        expected = find_real_roots(GridScan(whole, interval, 0.1))
        span = _grid_span(interval, 0.1, window.lo, window.hi)
        assert find_real_roots(GridScan(windowed, span, 0.1)) == expected
        assert [r.origin for r in expected] == [
            RootOrigin.ENDPOINT_ZERO, RootOrigin.BISECTION, RootOrigin.BISECTION,
        ]
        # a window short of hi skips the grid points past it
        assert (windowed.calls < whole.calls) == (window.hi < interval.hi)
    # a window past both ends keeps the zeros on the grid's ends endpoint zeros
    g = lambda x: x * (x - 2.0)  # noqa: E731
    span = _grid_span(interval, 0.1, -1.0, 3.0)
    assert [r.origin for r in find_real_roots(GridScan(g, span, 0.1))] == [
        RootOrigin.ENDPOINT_ZERO, RootOrigin.ENDPOINT_ZERO,
    ]


def test_scan_record_is_a_tuple_of_its_fields():
    assert scan(lambda x: x, RealInterval(0.0, 0.0)) == [(0.0, 0.0, ScanEvent.ZERO_HIT)]
    assert rootfind.ScanRecord(1.0, 2.0) == (1.0, 2.0, ScanEvent.NONE)


# ----------------------------------------------------------------- bisect

def test_bisect_odd_function_hits_zero_exactly():
    est = bisect(lambda x: x, -1.0, 1.0, -1.0, 1.0)
    assert est.value == 0.0
    assert est.residual == 0.0
    assert est.iterations == 1
    assert est.origin is RootOrigin.BISECTION


def test_bisect_reference_brackets(mat_a, mat_b):
    fa = lambda x: char_fn(mat_a, x)  # noqa: E731
    fb = lambda x: char_fn(mat_b, x)  # noqa: E731
    est_a = bisect(fa, 2.9, 3.1, fa(2.9), fa(3.1))
    assert abs(est_a.value - 3.0) <= 1e-9
    est_b = bisect(fb, 0.9, 1.1, fb(0.9), fb(1.1))
    assert abs(est_b.value - 1.0) <= 1e-9


def test_bisect_width_termination_and_iteration_bound():
    target = 1.0 / 3.0
    est = bisect(lambda x: x - target, 0.0, 1.0, -target, 1.0 - target, width_tol=1e-10)
    assert abs(est.value - target) <= 1e-10
    assert est.bracket_hi - est.bracket_lo <= 1e-10
    assert est.bracket_lo <= est.value <= est.bracket_hi
    assert est.iterations <= math.ceil(math.log2(1.0 / 1e-10)) + 1


def test_bisect_costs_iterations_evaluations():
    # the bracket-end values come from the caller: one evaluation per halving
    target = 1.0 / 3.0
    counted = Counted(lambda x: x - target)
    est = bisect(counted, 0.0, 1.0, -target, 1.0 - target)
    assert est.iterations > 0
    assert counted.calls == est.iterations


def test_bisect_rejects_bad_brackets():
    with pytest.raises(ValueError, match="empty or reversed"):
        bisect(lambda x: x, 1.0, -1.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="do not change sign"):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="do not change sign"):
        # a zero at a bracket end is the scan's zero hit, not a bracket
        bisect(lambda x: x, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bisect(lambda x: x, -1.0, 1.0, -1.0, 1.0, width_tol=-1.0)


def test_bisect_ends_by_itself_across_the_float_range():
    # With no width tolerance, bisection runs until no double lies strictly
    # inside the bracket.  A root at 1e-300 inside [-1, 1] takes 1050 halvings;
    # the longest run over all doubles, a root at the smallest subnormal
    # inside [-max, max], takes 2099, and both end on the root itself.
    top = sys.float_info.max
    for root, lo, hi, iterations in ((1e-300, -1.0, 1.0, 1050), (5e-324, -top, top, 2099)):
        f = lambda x: x - root
        est = bisect(f, lo, hi, f(lo), f(hi), width_tol=0.0)
        assert (est.value, est.residual, est.iterations) == (root, 0.0, iterations)


@pytest.mark.parametrize(
    "lo, hi, root",
    [
        (-sys.float_info.max, sys.float_info.max, 0.75 * sys.float_info.max),
        (0.25 * sys.float_info.max, sys.float_info.max, 0.75 * sys.float_info.max),
        (-sys.float_info.max, -0.25 * sys.float_info.max, -0.6 * sys.float_info.max),
    ],
    ids=["whole-range", "upper-quarter", "lower-quarter"],
)
def test_bisect_near_the_largest_floats_reaches_adjacent_floats(lo, hi, root):
    # lo + hi overflows to inf here; the midpoint must not, or bisection
    # stops at once and reports a bracket ~1e308 wide as a root.
    f = lambda x: 1.0 if x > root else -1.0  # noqa: E731
    est = bisect(f, lo, hi, f(lo), f(hi), width_tol=0.0)
    assert math.nextafter(est.bracket_lo, math.inf) == est.bracket_hi
    assert est.bracket_lo <= root <= est.bracket_hi
    assert est.iterations <= 2099


def test_bisect_with_zero_width_tol_stops_at_adjacent_floats():
    # Below the float spacing the midpoint of lo and hi is one of them, so
    # the bracket stops shrinking; bisection ends there, without evaluating
    # f at a bracket end.
    target = math.asin(0.3)
    counted = Counted(lambda x: math.sin(x) - 0.3)
    roots = find_real_roots(GridScan(counted, RealInterval(0.0, 3.0), 0.1), 0.0)
    assert [r.value for r in roots] == pytest.approx([target, math.pi - target], abs=1e-12)
    for r in roots:
        assert r.origin is RootOrigin.BISECTION
        assert r.residual == 0.0 or math.nextafter(r.bracket_lo, math.inf) == r.bracket_hi
        assert r.bracket_lo <= r.value <= r.bracket_hi
    assert counted.calls == len(scan(counted.fn, RealInterval(0.0, 3.0))) + sum(
        r.iterations for r in roots
    )
    # A bracket with no float inside costs nothing and reports the end
    # where |f| is smaller.
    est = bisect(lambda x: x - 1e-300, 0.0, 5e-324, -1.0, 0.5)
    assert (est.value, est.residual, est.iterations) == (5e-324, 0.5, 0)


def _bits(est):
    floats = (est.value, est.residual, est.bracket_lo, est.bracket_hi)
    return tuple(x.hex() for x in floats), est.iterations


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9),
    exponent=st.integers(-200, 200),
    ends=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    width_tol=st.one_of(st.just(0.0), st.floats(1e-14, 1e-3)),
)
# Three brackets on which a schedule that leaves no room for rounding
# costs 3 steps over halving.  On the first two, halving's rounded
# midpoints finish a step before exact halving would (47 steps, not 48).
# The first fails a schedule anchored at width_tol itself; the second one
# counted from width_tol alone, or one lagging halving by two steps in
# exact widths.  On the third, width_tol is a power of two and so is the
# root 0.25, so every midpoint beside it rounds, and it fails an anchor
# less than an ulp below width_tol.
@example(
    roots=[0.0, 0.0, 0.0, 1.0], exponent=0, ends=(0.015625, 1.4296875),
    width_tol=1.0000000000000002e-14,
)
@example(
    roots=[0.0, 0.0, 0.0, 0.25, -0.75], exponent=0, ends=(-1.046875, 0.3671875),
    width_tol=1e-14,
)
@example(
    roots=[0.25, -0.4207262213757077, -0.8115234375, 0.1484375, 0.24609375],
    exponent=0, ends=(-1.2587890625, 1.5), width_tol=2.0**-40,
)
def test_bisect_against_plain_halving(roots, exponent, ends, width_tol):
    # f = 10**exponent * prod(x - r): each factor, so f, has the exact sign
    # of the true product, so a final bracket whose ends differ in sign
    # holds one of the roots.  An exact 0.0 may also be an underflow.
    def f(x):
        p = 10.0**exponent
        for r in roots:
            p *= x - r
        return p

    lo, hi = sorted(ends)
    flo, fhi = f(lo), f(hi)
    assume(lo < hi and _opposite_signs(flo, fhi))
    est = bisect(f, lo, hi, flo, fhi, width_tol)
    if est.residual == 0.0:
        assert f(est.value) == 0.0
    else:
        assert est.value in (est.bracket_lo, est.bracket_hi)
        assert any(est.bracket_lo <= r <= est.bracket_hi for r in roots)
        assert (
            est.bracket_hi - est.bracket_lo <= width_tol
            or math.nextafter(est.bracket_lo, math.inf) == est.bracket_hi
        )

    ref = plain_bisect(f, lo, hi, flo, fhi, width_tol)
    if width_tol == 0.0:
        assert _bits(est) == _bits(ref)
    if ref.residual == 0.0:
        # Halving landed on an exact zero at one of its dyadic points, which
        # the ITP points need not visit: compare with the halvings it takes
        # where f is never zero.
        ref = plain_bisect(lambda x: f(x) or 1.0, lo, hi, flo, fhi, width_tol)
    assert est.iterations <= ref.iterations + 2

    # Infinite values carry no slope, and every step is the midpoint.
    def f_inf(x):
        value = f(x)
        return math.copysign(math.inf, value) if value else 0.0

    ilo, ihi = f_inf(lo), f_inf(hi)
    est = bisect(f_inf, lo, hi, ilo, ihi, width_tol)
    assert _bits(est) == _bits(plain_bisect(f_inf, lo, hi, ilo, ihi, width_tol))


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9),
    exponent=st.integers(-200, 200),
    ends=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    width_tol=st.one_of(st.just(0.0), st.floats(1e-14, 1e-3)),
    infinite=st.sampled_from(["nowhere", "left", "right", "everywhere"]),
)
@example(roots=[0.3, -0.2], exponent=200, ends=(-1.0, 1.0), width_tol=1e-10, infinite="nowhere")
@example(roots=[0.3, -0.2], exponent=-200, ends=(-1.0, 1.0), width_tol=1e-10, infinite="nowhere")
@example(roots=[0.3], exponent=-200, ends=(-1.0, 1.0), width_tol=0.0, infinite="nowhere")
@example(roots=[0.3], exponent=0, ends=(-1.0, 1.0), width_tol=1e-10, infinite="right")
def test_bisect_matches_the_helper_itp_steps_bitwise(roots, exponent, ends, width_tol, infinite):
    # The inline ITP steps give the estimate of the steps a helper made, to
    # the bit, and call f at the same points in the same order: with
    # width_tol 0 (every step the midpoint) and positive, at scales 10**200
    # and 10**-200 (exact zeros where the product underflows), and where f
    # is infinite left or right of 0 or everywhere, so that one bracket end
    # or both carry no slope and the step falls back to the midpoint.
    beyond = {
        "nowhere": lambda x: False,
        "left": lambda x: x < 0.0,
        "right": lambda x: x > 0.0,
        "everywhere": lambda x: True,
    }[infinite]

    def planted():
        f, calls = _planted(roots, exponent)
        return (lambda x: math.copysign(math.inf, p) if (p := f(x)) and beyond(x) else p), calls

    lo, hi = sorted(ends)
    f, _ = planted()
    flo, fhi = f(lo), f(hi)
    assume(lo < hi and _opposite_signs(flo, fhi))
    f, calls = planted()
    est = bisect(f, lo, hi, flo, fhi, width_tol)
    ref_f, ref_calls = planted()
    ref = itp_bisect(ref_f, lo, hi, flo, fhi, width_tol)
    assert [x.hex() for x in calls] == [x.hex() for x in ref_calls]
    assert _bits(est) == _bits(ref)
    assert est.origin is ref.origin is RootOrigin.BISECTION


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    ends=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    mark=st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 0.5)),
    tol=st.floats(0.0, 0.1),
    width_tol=st.one_of(st.just(0.0), st.floats(1e-14, 1e-3)),
)
@example(roots=[0.3], ends=(0.0, 1.0), mark=(0.5, 0.5), tol=1e-6, width_tol=1e-10)
def test_bisect_with_a_near_test_stops_the_same_steps_early(roots, ends, mark, tol, width_tol):
    # near is the pipeline's test against one mark [m, m + w]: bisect calls
    # f at the points it calls without near, in order, up to where near is
    # first false of the bracket; there it stops, as a CELL estimate, and
    # otherwise it gives the estimate it gives without near, to the bit.
    m_lo, m_hi = mark[0], mark[0] + mark[1]
    asked = []

    def near(lo, hi):
        asked.append((lo, hi))
        return m_lo - hi <= tol and lo - m_hi <= tol

    lo, hi = sorted(ends)
    f, _ = _planted(roots, 0)
    flo, fhi = f(lo), f(hi)
    assume(lo < hi and _opposite_signs(flo, fhi))
    f, calls = _planted(roots, 0)
    est = bisect(f, lo, hi, flo, fhi, width_tol, near)
    full_f, full_calls = _planted(roots, 0)
    full = bisect(full_f, lo, hi, flo, fhi, width_tol)
    assert calls == full_calls[:len(calls)] and len(calls) == est.iterations
    assert len(asked) == est.iterations + (est.origin is RootOrigin.CELL)
    assert all(m_lo - b <= tol and a - m_hi <= tol for a, b in asked[:est.iterations])
    if est.origin is RootOrigin.BISECTION:
        assert _bits(est) == _bits(full)
        return
    assert est.origin is RootOrigin.CELL and est.iterations < full.iterations
    assert asked[-1] == (est.bracket_lo, est.bracket_hi)
    assert not (m_lo - est.bracket_hi <= tol and est.bracket_lo - m_hi <= tol)
    assert est.bracket_lo <= full.bracket_lo <= full.bracket_hi <= est.bracket_hi
    if est.iterations:
        assert est.value == calls[-1] in (est.bracket_lo, est.bracket_hi)
    else:
        assert (est.bracket_lo, est.bracket_hi) == (lo, hi)
        assert est.value == (lo if abs(flo) <= abs(fhi) else hi)
    assert est.residual == abs(f(est.value))


_seed = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from(["lo", "hi", "above lo", "below hi", "root", "again"]),
)


@settings(max_examples=400, deadline=None)
@given(
    roots=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9),
    exponent=st.integers(-200, 200),
    ends=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    width_tol=st.one_of(st.just(0.0), st.floats(1e-14, 1e-3)),
    drawn=st.lists(_seed, max_size=5),
)
# Seeds on both ends, then one on the root, which ends it in one step; a
# seed outside the bracket, then two inside, the second one twice; seeds a
# float inside each end, which leave the bracket almost as wide as it was.
@example(roots=[0.3], exponent=0, ends=(-1.0, 1.0), width_tol=1e-10, drawn=["lo", "hi", "root"])
@example(roots=[0.3], exponent=0, ends=(-1.0, 1.0), width_tol=1e-10,
         drawn=[1.75, 0.25, 0.3125, "again"])
@example(roots=[0.3], exponent=0, ends=(-1.0, 1.0), width_tol=1e-14,
         drawn=["above lo", "below hi"])
def test_bisect_takes_its_seeds_as_its_first_steps(roots, exponent, ends, width_tol, drawn):
    # Seeds drawn inside the bracket and outside it, on and beside its
    # ends, on a root of f, and repeated.  bisect never evaluates a point
    # outside the bracket as it then stands; its first step is the first
    # seed inside the bracket, if one is; it stops by the rules it has
    # without seeds; it takes at most two steps more than plain halving
    # without seeds; and it calls f where the helper's steps with the same
    # seeds do, to the bit.  With width_tol 0 every step is the midpoint,
    # so no seed is taken.
    lo, hi = sorted(ends)
    f, _ = _planted(roots, exponent)
    flo, fhi = f(lo), f(hi)
    assume(lo < hi and _opposite_signs(flo, fhi))
    seeds = []
    for d in drawn:
        named = {
            "lo": lo, "hi": hi, "root": roots[0], "again": seeds[-1] if seeds else lo,
            "above lo": math.nextafter(lo, hi), "below hi": math.nextafter(hi, lo),
        }
        seeds.append(named.get(d, d))
    f, calls = _planted(roots, exponent)
    est = bisect(f, lo, hi, flo, fhi, width_tol, seeds=seeds)
    assert len(calls) == est.iterations

    f, _ = _planted(roots, exponent)
    a, b, fa = lo, hi, flo
    for k, x in enumerate(calls):
        assert a < x < b
        inside = [s for s in seeds if a < s < b]
        if k == 0 and width_tol > 0.0 and inside:
            assert x == inside[0]
        fx = f(x)
        if fx == 0.0:
            assert k == len(calls) - 1
        elif _opposite_signs(fa, fx):
            b = x
        else:
            a, fa = x, fx
    assert (est.bracket_lo, est.bracket_hi) == (a, b)
    if est.residual == 0.0:
        assert est.value == calls[-1] and f(est.value) == 0.0
    else:
        assert est.value in (a, b)
        assert b - a <= width_tol or math.nextafter(a, math.inf) == b
        assert any(a <= r <= b for r in roots)

    f, _ = _planted(roots, exponent)
    unseeded = bisect(f, lo, hi, flo, fhi, width_tol)
    if width_tol == 0.0:
        assert _bits(est) == _bits(unseeded)
    ref = plain_bisect(lambda x: f(x) or 1.0, lo, hi, flo, fhi, width_tol)
    assert est.iterations <= ref.iterations + 2

    ref_f, ref_calls = _planted(roots, exponent)
    ref = itp_bisect(ref_f, lo, hi, flo, fhi, width_tol, seeds)
    assert [x.hex() for x in calls] == [x.hex() for x in ref_calls]
    assert _bits(est) == _bits(ref)


def test_bisect_near_the_largest_floats_with_a_positive_width_tol():
    # The schedule's first bounds reach four times the bracket's width:
    # where that overflows, every step is the midpoint, and below it ITP
    # steps run as anywhere else.
    top = sys.float_info.max
    f = lambda x: x - 0.2 * top  # noqa: E731
    for lo, hi in ((-0.3 * top, 0.3 * top), (0.1 * top, 0.3 * top)):
        est = bisect(f, lo, hi, f(lo), f(hi), 1e300)
        assert est.bracket_lo <= 0.2 * top <= est.bracket_hi
        assert est.bracket_hi - est.bracket_lo <= 1e300
    lo, hi = -0.3 * top, 0.3 * top
    assert _bits(bisect(f, lo, hi, f(lo), f(hi), 1e300)) == _bits(
        plain_bisect(f, lo, hi, f(lo), f(hi), 1e300)
    )


def test_bisect_names_a_nan_and_where_it_appeared():
    # A nan fails every sign test, so it cannot replace a bracket end.
    vals = iter([math.nan, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"f\(0\.5\) is nan"):
        bisect(lambda x: next(vals), 0.0, 1.0, -1.0, 1.0)


def test_bisect_keeps_its_speed_on_a_strongly_curved_cell():
    # Regula falsi creeps in from one side where f curves hard: a pole just
    # past the cell, or a high power.  With a single step of slack the
    # schedule soon forces the midpoint at every step (34 and 14 steps
    # here); with two, the pulled steps still close in on the root.
    for f, lo, hi, most in (
        (lambda x: 1.0 / (1.55 - x) - 10.0, 1.0, 1.5, 24),
        (lambda x: x**9 - 0.5, 0.5, 1.5, 10),
    ):
        est = bisect(f, lo, hi, f(lo), f(hi))
        assert plain_bisect(f, lo, hi, f(lo), f(hi), 1e-10).iterations >= 33
        assert est.iterations <= most
        assert est.bracket_hi - est.bracket_lo <= 1e-10 or est.residual == 0.0


def test_bisect_on_a_smooth_cell_takes_a_fraction_of_the_halvings():
    # x**2 - 2 on the scan cell [1.4, 1.5]: 30 halvings to 1e-10, and the
    # ITP steps reach a bracket no wider, around sqrt(2), in at most 8.
    f = lambda x: x * x - 2.0  # noqa: E731
    est = bisect(f, 1.4, 1.5, f(1.4), f(1.5))
    assert plain_bisect(f, 1.4, 1.5, f(1.4), f(1.5), 1e-10).iterations == 30
    assert est.iterations <= 8
    assert est.bracket_lo <= math.sqrt(2.0) <= est.bracket_hi
    assert est.bracket_hi - est.bracket_lo <= 1e-10


# --------------------------------------------------------- find_real_roots

def test_find_roots_reference_a(mat_a):
    roots = find_real_roots(GridScan(lambda x: char_fn(mat_a, x), RealInterval(0, 4)))
    assert [r.value for r in roots] == [2.0, 3.0]
    assert all(r.origin is RootOrigin.GRID_ZERO for r in roots)
    assert all(r.iterations == 0 for r in roots)


def test_find_roots_reference_b(mat_b):
    roots = find_real_roots(GridScan(lambda x: char_fn(mat_b, x), RealInterval(0, 4)))
    assert [r.value for r in roots] == [1.0, 3.0, 4.0]
    assert roots[-1].origin is RootOrigin.ENDPOINT_ZERO
    assert roots[0].origin is RootOrigin.GRID_ZERO


def test_find_roots_via_bisection():
    roots = find_real_roots(GridScan(lambda x: (x - 0.55) * (x - 2.05), RealInterval(0, 3)))
    assert len(roots) == 2
    assert abs(roots[0].value - 0.55) <= 1e-9
    assert abs(roots[1].value - 2.05) <= 1e-9
    assert all(r.origin is RootOrigin.BISECTION for r in roots)


def test_find_roots_costs_one_evaluation_per_grid_point_and_iteration():
    # bisection starts from the scan's values at the cell ends
    def f(x):
        return (x - 0.55) * (x - 2.05)

    counted = Counted(f)
    interval = RealInterval(0, 3)
    roots = find_real_roots(GridScan(counted, interval))
    grid_points = len(scan(f, interval))
    assert len(roots) == 2
    assert all(r.origin is RootOrigin.BISECTION for r in roots)
    assert counted.calls == grid_points + sum(r.iterations for r in roots)


def test_find_roots_leaves_the_cells_refine_rejects_unrefined():
    # refine is called once, after the scan; its test sees each sign-change
    # cell once, in ascending order.  A cell it rejects (None) is returned
    # as bisect returns a bracket it takes no step in, at no evaluation; a
    # cell it hands a near test and seeds is bisected with them: the test
    # sees each bracket before a step and can stop it early, as a CELL
    # estimate, and a seed inside the cell is its first step.
    def f(x):
        return (x - 0.55) * (x - 1.23) * (x - 2.03)

    counted = Counted(f)
    grid = GridScan(counted, RealInterval(0, 3))
    records, seen, asked = [], [], []

    def near_top(lo, hi):
        asked.append((lo, hi))
        return hi > 2.08

    def refine():
        records.extend(grid.records)
        tests = iter([None, (lambda lo, hi: True, ()), (near_top, ())])
        return lambda lo, hi: seen.append((lo, hi)) or next(tests)

    roots = find_real_roots(grid, refine=refine)
    cells = [(rec.lam, nxt.lam) for rec, nxt in zip(records, records[1:])
             if rec.event is ScanEvent.SIGN_CHANGE_AHEAD]
    assert seen == cells and len(cells) == 3
    assert [r.origin for r in roots] == [RootOrigin.CELL, RootOrigin.BISECTION, RootOrigin.CELL]
    (lo, hi), cell = cells[0], roots[0]
    assert (cell.bracket_lo, cell.bracket_hi, cell.iterations) == (lo, hi, 0)
    assert (cell.value, cell.residual) == min((lo, abs(f(lo))), (hi, abs(f(hi))), key=lambda p: p[1])
    assert counted.calls == len(records) + sum(r.iterations for r in roots) > len(records)
    full = find_real_roots(GridScan(f, RealInterval(0, 3)))
    assert roots[1] == full[1]
    # the stopped root: one near test per step taken, and one that stopped
    # it, each of the bracket as it then stood; the last point evaluated is
    # its value, an end of its bracket, which still holds the full root's
    (lo, hi), stopped = cells[2], roots[2]
    assert asked[0] == (lo, hi) and len(asked) == stopped.iterations + 1 > 1
    assert asked[-1] == (stopped.bracket_lo, stopped.bracket_hi)
    assert stopped.bracket_hi <= 2.08 < asked[-2][1]
    assert stopped.value in (stopped.bracket_lo, stopped.bracket_hi)
    assert stopped.residual == abs(f(stopped.value)) > 0.0
    assert lo <= stopped.bracket_lo <= full[2].bracket_lo <= full[2].bracket_hi <= stopped.bracket_hi
    assert stopped.iterations < full[2].iterations
    # the scan is kept: a second search of the same grid evaluates nothing
    calls = counted.calls
    unrefined = find_real_roots(grid, refine=lambda: lambda lo, hi: None)
    assert [(r.bracket_lo, r.bracket_hi, r.origin) for r in unrefined] == [
        (lo, hi, RootOrigin.CELL) for lo, hi in cells
    ]
    assert unrefined[0] == cell and counted.calls == calls
    # f is exactly 0 at 1.23, so the seed ends its cell's bisection in one
    # step; it lies in no other cell, so those take the steps they take
    # without it
    seeded = find_real_roots(grid, refine=lambda: lambda lo, hi: (None, (1.23,)))
    assert (seeded[1].value, seeded[1].residual, seeded[1].iterations) == (1.23, 0.0, 1)
    assert seeded[0::2] == full[0::2]


def test_find_roots_empty_interval():
    counted = Counted(lambda x: x)
    assert find_real_roots(GridScan(counted, EMPTY_INTERVAL)) == []
    assert counted.calls == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "name, call",
    [
        ("width_tol", lambda f, v: bisect(f, 0.0, 1.0, -0.3, 0.7, width_tol=v)),
        ("width_tol", lambda f, v: find_real_roots(GridScan(f, RealInterval(0, 1)), width_tol=v)),
        ("match_tol", lambda f, v: match_roots([], [], v)),
    ],
    ids=["bisect", "find_real_roots-width", "match_roots"],
)
def test_tolerances_must_be_finite_and_non_negative(name, call, value):
    # nan used to pass every `< 0` check, and inf made bisect fail in
    # math.fmod and match_roots pair anything with anything.
    counted = Counted(lambda x: x - 0.3)
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        call(counted, value)
    assert counted.calls == 0


def test_find_roots_returns_both_zero_hits_of_a_band():
    # f is exactly zero on a band covering two adjacent grid points: each
    # hit is a root found, so both are returned
    def f(x):
        return 0.0 if 0.25 < x < 0.45 else x - 0.35

    zero_hits = find_real_roots(GridScan(f, RealInterval(0, 1), step=0.1))
    assert [r.origin for r in zero_hits] == [RootOrigin.GRID_ZERO] * 2


def test_find_roots_returns_bisected_root_beside_grid_zero():
    # a bisected root at 0.35 and a grid zero at 0.5, 0.15 apart: both
    def f(x):
        return (x - 0.35) * (x - 0.5)

    apart = find_real_roots(GridScan(f, RealInterval(0, 1), step=0.1))
    assert [r.origin for r in apart] == [RootOrigin.BISECTION, RootOrigin.GRID_ZERO]
    assert apart[0].residual > 0.0


def test_find_roots_gap_invariant():
    rng = np.random.default_rng(37)
    for _ in range(10):
        diag = np.sort(rng.uniform(0, 5, 4))
        t = np.triu(rng.uniform(-1, 1, (4, 4)), 1) + np.diag(diag)
        m = DenseMatrix(t)
        roots = find_real_roots(GridScan(lambda x: char_fn(m, x), RealInterval(-2, 7)))
        values = [r.value for r in roots]
        assert values == sorted(values)
        # each root is its own eigenvalue: the nearest diagonal entries of
        # ascending roots ascend strictly, so no entry is claimed twice
        nearest = [int(np.argmin(abs(diag - v))) for v in values]
        assert nearest == sorted(set(nearest))
        assert all(abs(diag[i] - v) <= 1e-8 for i, v in zip(nearest, values))


def test_find_roots_recovers_separated_triangular_spectrum():
    rng = np.random.default_rng(39)
    for _ in range(10):
        diag = np.array([0.7, 1.3, 2.2, 3.6]) + rng.uniform(-0.1, 0.1, 4)
        t = np.triu(rng.uniform(-1, 1, (4, 4)), 1) + np.diag(diag)
        m = DenseMatrix(t)
        roots = find_real_roots(GridScan(lambda x: char_fn(m, x), RealInterval(0, 4.5)))
        assert len(roots) == 4
        for root, d in zip(roots, np.sort(diag)):
            assert abs(root.value - d) <= 1e-8


def test_find_roots_returns_both_halves_of_a_near_double_eigenvalue():
    # 0.9999998 and 1.0000002 sit in adjacent cells, 4e-7 apart: two sign
    # changes, so two roots, and neither is dropped for being close
    eigenvalues = [0.9999998, 1.0000002, 5.0]
    m = DenseMatrix(np.diag(eigenvalues))
    roots = find_real_roots(GridScan(lambda x: char_fn(m, x), RealInterval(0, 6)))
    assert len(roots) == 3
    assert all(abs(r.value - e) <= 1e-8 for r, e in zip(roots, eigenvalues))


def test_find_roots_deterministic(mat_b):
    first = find_real_roots(GridScan(lambda x: char_fn(mat_b, x), RealInterval(0, 4)))
    second = find_real_roots(GridScan(lambda x: char_fn(mat_b, x), RealInterval(0, 4)))
    assert first == second
