"""End-to-end pipeline: modes, matching, instrumentation, benchmarking."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import common_eig.pipeline as pipeline
import common_eig.rootfind as rootfind
from common_eig import (
    AnalysisConfig,
    DenseMatrix,
    GridScan,
    Mode,
    RealInterval,
    RootEstimate,
    RootOrigin,
    char_fn,
    common_eigenvalues,
    find_real_roots,
    intersect,
    match_roots,
    run_benchmark,
    scan,
)
from common_eig.matrix import _form_interval
from oracles import numpy_qr_det, plain_bisect, refine_every_cell
from test_matrix import _norm_inf, _on_grid_general, _rotated_symmetric


def _estimate(value):
    return RootEstimate(
        value=value, residual=0.0, bracket_lo=value, bracket_hi=value,
        iterations=0, origin=RootOrigin.GRID_ZERO,
    )


def _planted_symmetric_pair(rng, shared, offset=0.0):
    """Two rotated symmetric matrices sharing exactly one eigenvalue.

    Spectra are drawn from a 0.75-spaced lattice from -3 + offset, so every
    root is well separated at the default step, and rotated by random
    orthogonal bases.
    """
    lattice = [-3.0 + offset + 0.75 * k for k in range(9)]
    pool = [v for v in lattice if v != shared]

    def build(n):
        picks = rng.choice(len(pool), size=n - 1, replace=False)
        spectrum = [shared] + [pool[i] for i in picks]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = q @ np.diag(spectrum) @ q.T
        return DenseMatrix(0.5 * (m + m.T))

    return build(int(rng.integers(3, 7))), build(int(rng.integers(3, 7)))


# ----------------------------------------------------------- reference pair

def test_proposed_mode_reference_pair(mat_a, mat_b):
    report = common_eigenvalues(mat_a, mat_b)
    assert report.config.mode is Mode.PROPOSED
    assert report.interval_a == RealInterval(-4, 8)
    assert report.interval_b == RealInterval(0, 4)
    assert report.search_interval_a == RealInterval(0, 4)
    assert report.search_interval_a == report.search_interval_b
    assert [r.value for r in report.roots_a] == [2.0, 3.0]
    assert [r.value for r in report.roots_b] == [1.0, 3.0, 4.0]
    assert report.common == (3.0,)
    assert report.eval_count_a == 41
    assert report.eval_count_b == 41
    assert report.wall_time >= 0.0


def test_conventional_mode_reference_pair(mat_a, mat_b):
    report = common_eigenvalues(
        mat_a, mat_b, AnalysisConfig(mode=Mode.CONVENTIONAL)
    )
    assert report.search_interval_a == report.interval_a
    assert report.search_interval_b == report.interval_b
    assert [r.value for r in report.roots_a] == [2.0, 3.0, 5.0]
    assert [r.value for r in report.roots_b] == [1.0, 3.0, 4.0]
    assert report.common == (3.0,)
    assert report.eval_count_a == 121
    assert report.eval_count_b == 41


def test_pipeline_same_matrix(mat_a):
    report = common_eigenvalues(mat_a, mat_a)
    assert report.common == (2.0, 3.0, 5.0)


def test_pipeline_disjoint_bounds_short_circuits():
    report = common_eigenvalues(
        DenseMatrix([[1.0]]), DenseMatrix([[10.0]])
    )
    assert report.search_interval_a.empty
    assert report.roots_a == ()
    assert report.roots_b == ()
    assert report.common == ()
    assert report.eval_count_a == 0
    assert report.eval_count_b == 0


def test_pipeline_mixed_orders(mat_a):
    report = common_eigenvalues(mat_a, DenseMatrix(np.diag([2.0, 7.0])))
    assert report.search_interval_a == RealInterval(2, 7)
    assert report.common == (2.0,)


def test_common_values_near_roots_of_both(mat_a, mat_b):
    report = common_eigenvalues(mat_a, mat_b)
    for c in report.common:
        assert any(abs(c - r.value) <= 1e-6 for r in report.roots_a)
        assert any(abs(c - r.value) <= 1e-6 for r in report.roots_b)


def test_common_symmetric_in_arguments(mat_a, mat_b):
    fwd = common_eigenvalues(mat_a, mat_b).common
    rev = common_eigenvalues(mat_b, mat_a).common
    assert len(fwd) == len(rev)
    assert all(abs(x - y) <= 1e-12 for x, y in zip(fwd, rev))


def test_common_residuals_small(mat_a, mat_b):
    report = common_eigenvalues(mat_a, mat_b)
    lo, hi = report.search_interval_a.lo, report.search_interval_a.hi
    for matrix in (mat_a, mat_b):
        scale = max(1.0, abs(char_fn(matrix, lo)), abs(char_fn(matrix, hi)))
        for c in report.common:
            assert abs(char_fn(matrix, c)) <= 1e-6 * scale


def _near_double_pair():
    """A's 0.9999995 and 1.0000004 sit in adjacent grid cells, 9e-7 apart;
    B's 1.0000013 is within match_tol of the second only."""
    a = DenseMatrix(np.diag([0.9999995, 1.0000004, 5.0, -1.0]))
    b = DenseMatrix(np.diag([1.0000013, -0.5, 5.5]))
    return a, b


def test_near_double_root_is_kept_and_matched():
    # B's cell [1, 1.1] holds A's refined root 1.0000004, an exact zero of
    # A's f, so B's bisection takes its first step there: a seed that
    # misses B's root 1.0000013 costs that one step.
    a, b = _near_double_pair()
    report = common_eigenvalues(a, b)
    assert len(report.common) == 1
    assert abs(report.common[0] - 1.0000004) <= report.config.match_tol
    assert abs(report.common[0] - 1.0000013) <= report.config.match_tol
    assert (report.eval_count_a, report.eval_count_b) == (101, 62)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("pair", ["reference", "near_double"])
def test_dedupe_tol_has_no_effect(pair, mode, mat_a, mat_b):
    a, b = (mat_a, mat_b) if pair == "reference" else _near_double_pair()
    reports = [
        replace(
            common_eigenvalues(a, b, AnalysisConfig(mode=mode, dedupe_tol=d)),
            config=None, wall_time=0.0,
        )
        for d in (0.0, 1e-6, 0.15, 1e151)
    ]
    assert all(r == reports[0] for r in reports[1:])


def _assert_every_evaluation_is_a_grid_point_or_a_step(report, a, b):
    # each count is the number of the window's grid points plus the
    # bisection steps of the roots returned, so no evaluation went to a
    # root that was dropped
    for m, window, roots, count in (
        (a, report.window_a, report.roots_a, report.eval_count_a),
        (b, report.window_b, report.roots_b, report.eval_count_b),
    ):
        grid = scan(partial(char_fn, m), window, report.config.step)
        assert count == len(grid) + sum(r.iterations for r in roots)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_evaluation_counts_add_up(mode, mat_a, mat_b):
    for a, b in ((mat_a, mat_b), _near_double_pair()):
        report = common_eigenvalues(a, b, AnalysisConfig(mode=mode))
        _assert_every_evaluation_is_a_grid_point_or_a_step(report, a, b)


_entries = st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.floats(-4.0, 4.0))


@st.composite
def _symmetric_or_upper_triangular(draw):
    n = draw(st.integers(1, 5))
    t = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    t = np.triu(t)
    return DenseMatrix(t + np.triu(t, 1).T if draw(st.booleans()) else t)


@settings(max_examples=60, deadline=None)
@given(_symmetric_or_upper_triangular(), _symmetric_or_upper_triangular(), st.sampled_from(Mode))
def test_evaluation_counts_add_up_on_random_matrices(a, b, mode):
    report = common_eigenvalues(a, b, AnalysisConfig(mode=mode))
    _assert_every_evaluation_is_a_grid_point_or_a_step(report, a, b)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_cells_without_a_partner_are_left_unrefined(mode):
    # A's 2.55 lies in the cell [2.5, 2.6] and B's 2.25 in [2.2, 2.3]; no
    # flag of the other matrix lies within match_tol of either, so neither
    # is bisected: 21 grid points per matrix, where bisecting every cell
    # costs one step more on each.  The zero hits 1 and 3 pair as before.
    a = DenseMatrix(np.diag([2.55, 3.0, 1.0]))
    b = DenseMatrix(np.diag([3.0, 2.25, 1.0]))
    cfg = AnalysisConfig(mode=mode)
    report = common_eigenvalues(a, b, cfg)
    assert report.common == (1.0, 3.0)
    assert (report.eval_count_a, report.eval_count_b) == (21, 21)
    assert refine_every_cell(a, b, cfg)[2:] == ((1.0, 3.0), (22, 22))
    for m, roots, k in ((a, report.roots_a, 25), (b, report.roots_b, 22)):
        assert [r.origin for r in roots] == [
            RootOrigin.ENDPOINT_ZERO, RootOrigin.CELL, RootOrigin.ENDPOINT_ZERO,
        ]
        cell = roots[1]
        lo, hi = k * cfg.step, (k + 1) * cfg.step
        assert (cell.bracket_lo, cell.bracket_hi, cell.iterations) == (lo, hi, 0)
        assert cell.value in (lo, hi)
        assert cell.residual == abs(char_fn(m, cell.value)) == min(
            abs(char_fn(m, lo)), abs(char_fn(m, hi))
        )


def _bits(root):
    return (root.value.hex(), root.residual.hex(), root.bracket_lo.hex(),
            root.bracket_hi.hex(), root.iterations, root.origin)


def _assert_same_common_values_as_bisecting_every_cell(a, b, cfg):
    report = common_eigenvalues(a, b, cfg)
    roots_a, roots_b, common, evaluations = refine_every_cell(a, b, cfg)
    assert [c.hex() for c in report.common] == [c.hex() for c in common]
    for new, old in ((report.roots_a, roots_a), (report.roots_b, roots_b)):
        assert len(new) == len(old)
        for n, o in zip(new, old):
            if n.origin is RootOrigin.CELL:
                # the cell that the oracle bisected
                assert o.origin is RootOrigin.BISECTION
                assert n.bracket_lo <= o.bracket_lo <= o.bracket_hi <= n.bracket_hi
            else:
                assert _bits(n) == _bits(o)
    assert report.eval_count_a <= evaluations[0]
    assert report.eval_count_b <= evaluations[1]
    return report


@st.composite
def _pair_sharing_eigenvalues_or_not(draw):
    """Two matrices from _any_matrix, or one and an orthogonal similarity
    of it (symmetrized where it is symmetric), which shares its spectrum
    to rounding, so that many cells pair and are bisected."""
    a = draw(_any_matrix())
    if draw(st.booleans()):
        return a, draw(_any_matrix())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(a.order, a.order)))
    b = q @ a.entries @ q.T
    if (a.entries == a.entries.T).all():
        b = 0.5 * (b + b.T)
    return a, DenseMatrix(b)


@settings(max_examples=50, deadline=None)
@given(_pair_sharing_eigenvalues_or_not())
# Each pair lies 9e-7 apart across the grid point 1, so that B's cell
# starts 7e-7 above A's refined root 0.9999993 in the first, and ends 7e-7
# below A's refined root 1.0000007 in the second: more than match_tol / 2.
# In the third, A's cell [0.9, 1] pairs only with B's zero hit at 1, and
# in the fourth, B's cell [1, 1.1] only with A's zero hit at 1.
@example((DenseMatrix(np.diag([0.9999993, 3.0, 0.5])), DenseMatrix(np.diag([1.0000002, 3.0, 0.5]))))
@example((DenseMatrix(np.diag([1.0000007, 3.0, 0.5])), DenseMatrix(np.diag([0.9999998, 3.0, 0.5]))))
@example((DenseMatrix(np.diag([0.9999995, 3.0, 0.5])), DenseMatrix(np.diag([1.0, 3.0, 0.5]))))
@example((DenseMatrix(np.diag([1.0, 3.0, 0.5])), DenseMatrix(np.diag([1.0000002, 3.0, 0.5]))))
def test_common_values_are_those_of_bisecting_every_cell(pair):
    # Symmetric, dense and triangular pairs of order 1 to 12 at scales 2^-8
    # to 2^8, in both modes: the common values are the oracle's to the
    # bit, every refined root is the oracle's, and every cell left
    # unrefined holds the oracle's bisected root.
    for mode in Mode:
        _assert_same_common_values_as_bisecting_every_cell(*pair, AnalysisConfig(mode=mode))


# Diagonals of pairs in which a bisection starts, because its cell lies
# within match_tol of a mark of the other matrix, and then stops, once its
# bracket has left every such mark's reach; and the matrix whose root stops.
# A's 2.67 in [2.6, 2.7] touches B's cell [2.5, 2.6] from above and A's
# 2.51 in [2.5, 2.6] touches B's [2.6, 2.7] from below; B's 2.57 shares its
# cell with A's 2.53, which is refined to the bit; A's 2.56 and B's 2.65 lie
# either side of 2.6, where |f| is smaller than at their cells' other ends,
# so B's unrefined root reads 2.6, and so would A's, paired with it, if a
# stopped root kept its cell end.  (Roots 9e-7 apart across a grid point,
# which pair and so must never stop, are the test above's first examples.)
_STOPS = {
    "A above a touching B cell": ([2.67, 3.0, 1.0], [3.0, 2.55, 1.0], "a"),
    "A below a touching B cell": ([2.51, 3.0, 1.0], [3.0, 2.69, 1.0], "a"),
    "B beside a refined A root": ([2.53, 3.0, 1.0], [3.0, 2.57, 1.0], "b"),
    "A off a shared cell end": ([2.56, 3.0, 1.0], [2.65, 2.0, 1.0, 5.0], "a"),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(_STOPS))
def test_bisection_stops_once_its_root_cannot_pair(case, mode):
    # The common values and every root refined to width_tol are those of
    # bisecting every cell to the bit.  A stopped root is a CELL root with
    # the steps it took: its value is the last point evaluated, an end of
    # its bracket, more than match_tol from every root of the other matrix.
    diag_a, diag_b, side = _STOPS[case]
    a, b = DenseMatrix(np.diag(diag_a)), DenseMatrix(np.diag(diag_b))
    cfg = AnalysisConfig(mode=mode)
    report = _assert_same_common_values_as_bisecting_every_cell(a, b, cfg)
    stopped = {
        name: [r for r in roots if r.origin is RootOrigin.CELL and r.iterations > 0]
        for name, roots in (("a", report.roots_a), ("b", report.roots_b))
    }
    assert len(stopped[side]) == 1 and stopped["b" if side == "a" else "a"] == []
    root = stopped[side][0]
    matrix, others = (a, report.roots_b) if side == "a" else (b, report.roots_a)
    assert root.value in (root.bracket_lo, root.bracket_hi)
    assert root.residual == abs(char_fn(matrix, root.value)) > 0.0
    assert root.bracket_hi - root.bracket_lo < cfg.step
    assert all(abs(root.value - other.value) > cfg.match_tol for other in others)
    evaluations = refine_every_cell(a, b, cfg)[3]
    assert report.eval_count_a + report.eval_count_b < sum(evaluations)


def _unseeded(a, b, cfg):
    """The report of the search whose bisections take no seeds."""
    real = rootfind.bisect

    def unseeded(f, lo, hi, flo, fhi, width_tol, near=None, seeds=()):
        return real(f, lo, hi, flo, fhi, width_tol, near)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "bisect", unseeded)
        return common_eigenvalues(a, b, cfg)


@pytest.mark.parametrize(
    "mode, counts", [(Mode.PROPOSED, (34, 27)), (Mode.CONVENTIONAL, (34, 31))],
    ids=lambda v: getattr(v, "value", ""),
)
def test_a_seed_steers_b_to_the_shared_root_of_a_three_root_cell(mode, counts):
    # B's cell [1.2, 1.3] holds 1.21, 1.23 and 1.27, and A's refined root
    # 1.23, an exact zero of A's f, is its seed: B's first step lands on
    # its own zero there.  Unseeded, B's bisection closes in on 1.21 or
    # 1.27 and nothing pairs, at the same count.
    a = DenseMatrix(np.diag([1.23, 3.0, 0.5]))
    b = DenseMatrix(np.diag([1.21, 1.23, 1.27, 3.3, 0.4]))
    cfg = AnalysisConfig(mode=mode)
    report = common_eigenvalues(a, b, cfg)
    assert report.common == pytest.approx((1.23,), abs=cfg.width_tol)
    [shared] = [r for r in report.roots_b if r.origin is RootOrigin.BISECTION]
    assert (shared.residual, shared.iterations) == (0.0, 1)
    assert (report.eval_count_a, report.eval_count_b) == counts
    before = _unseeded(a, b, cfg)
    assert before.common == ()
    assert (before.eval_count_a, before.eval_count_b) == counts
    assert [_bits(r) for r in before.roots_a] == [_bits(r) for r in report.roots_a]


def test_seeded_recall_is_never_below_the_unseeded_search():
    # On a fixed pool shaped like perfbench's symmetric one (order 30,
    # eigenvalues uniform on [-3, 3], 4 shared), in both modes, pair by
    # pair: A's roots are the unseeded search's to the bit, every common
    # value of the unseeded search has one of the seeded search within
    # width_tol, and every common value is a shared eigenvalue.  Seeding
    # finds shared eigenvalues in B cells that hold three roots, where the
    # unseeded bisection can close in on another.
    rng = np.random.default_rng(83)

    def rotated(spectrum):
        q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        m = q @ np.diag(spectrum) @ q.T
        return DenseMatrix(0.5 * (m + m.T))

    found = {"seeded": 0, "unseeded": 0}
    for _ in range(48):
        shared = rng.uniform(-3.0, 3.0, 4)
        a, b = (rotated(np.concatenate([shared, rng.uniform(-3.0, 3.0, 26)])) for _ in "ab")
        for mode in Mode:
            cfg = AnalysisConfig(mode=mode)
            seeded, unseeded = common_eigenvalues(a, b, cfg), _unseeded(a, b, cfg)
            assert [_bits(r) for r in seeded.roots_a] == [_bits(r) for r in unseeded.roots_a]
            for c in unseeded.common:
                assert any(abs(c - s) <= cfg.width_tol for s in seeded.common)
            for name, report in (("seeded", seeded), ("unseeded", unseeded)):
                hits = [min(abs(c - s) for s in shared) <= cfg.match_tol for c in report.common]
                assert all(hits)
                found[name] += len(hits)
    assert found["seeded"] > found["unseeded"]


def _without_windows(a, b, cfg):
    """The proposed-mode report with every window the whole search interval."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_form_interval", lambda m: (-math.inf, math.inf))
        return common_eigenvalues(a, b, cfg)


def _assert_windows_change_only_the_counts(a, b, cfg=AnalysisConfig()):
    windowed = common_eigenvalues(a, b, cfg)
    whole = _without_windows(a, b, cfg)
    assert (whole.window_a, whole.window_b) == (whole.search_interval_a, whole.search_interval_b)
    for report in (windowed, whole):
        for window, search in ((report.window_a, report.search_interval_a),
                               (report.window_b, report.search_interval_b)):
            assert window.empty or search.lo <= window.lo <= window.hi <= search.hi
    assert windowed.eval_count_a <= whole.eval_count_a
    assert windowed.eval_count_b <= whole.eval_count_b

    def bare(report):
        return replace(report, window_a=None, window_b=None, eval_count_a=0, eval_count_b=0,
                       wall_time=0.0)

    def bits(roots):
        return [(r.value.hex(), r.residual.hex(), r.bracket_lo.hex(), r.bracket_hi.hex())
                for r in roots]

    # == on the reports compares floats by value, so compare their bits too
    assert bare(windowed) == bare(whole)
    assert bits(windowed.roots_a + windowed.roots_b) == bits(whole.roots_a + whole.roots_b)
    assert [c.hex() for c in windowed.common] == [c.hex() for c in whole.common]
    return windowed, whole


@st.composite
def _any_matrix(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, n)) * 2.0 ** draw(st.integers(-8, 8))
    shape = draw(st.sampled_from(["dense", "symmetric", "triangular"]))
    if shape == "symmetric":
        a = a + a.T
    elif shape == "triangular":
        a = np.triu(a)
    return DenseMatrix(a)


@settings(max_examples=80, deadline=None)
@given(_any_matrix(), _any_matrix())
def test_windows_change_only_the_counts(a, b):
    _assert_windows_change_only_the_counts(a, b)


@pytest.mark.parametrize("kind", ["symmetric", "dense"])
def test_windows_change_only_the_counts_on_large_pairs(kind):
    # order 30 symmetric pairs sharing two eigenvalues, order 60 dense ones
    # with a handful of real eigenvalues among complex pairs
    rng = np.random.default_rng(20261020)
    if kind == "symmetric":
        # the rest from lattices 0.4 apart, off the shared values and 0.2
        # apart from each other's
        spectra = []
        for offset in (-6.03, -5.83):
            pool = [offset + 0.4 * k for k in range(31)]
            pool = [v for v in pool if min(abs(v + 1.55), abs(v - 2.25)) > 0.1]
            spectra.append(np.append([-1.55, 2.25], rng.choice(pool, 28, replace=False)))
        pair = [DenseMatrix(_rotated_symmetric(rng, s)) for s in spectra]
    else:
        pair = [DenseMatrix(rng.normal(size=(60, 60))) for _ in range(2)]
    windowed, whole = _assert_windows_change_only_the_counts(*pair)
    assert windowed.roots_a and windowed.roots_b
    if kind == "symmetric":
        assert windowed.common == pytest.approx([-1.55, 2.25], abs=1e-6)
    assert (windowed.eval_count_a + windowed.eval_count_b
            < whole.eval_count_a + whole.eval_count_b)


def test_windows_that_miss_the_search_interval_cost_nothing():
    # A = J (all ones) has Gerschgorin interval [-1, 3], its T
    # [1 - sqrt(2), 2 + sqrt(2)]; B = -1.8*I - J has [-4.8, -0.8], its T
    # [-3.8 - sqrt(2), -2.8 + sqrt(2)].  The search interval [-1, -0.8]
    # meets neither, so neither matrix is evaluated, where the whole grid
    # -1, -0.9, -0.8 costs 3 evaluations each; no root lies there.
    a = DenseMatrix(np.ones((3, 3)))
    b = DenseMatrix(-1.8 * np.eye(3) - np.ones((3, 3)))
    windowed, whole = _assert_windows_change_only_the_counts(a, b)
    search = windowed.search_interval_a
    assert (search.lo, search.hi) == (-1.0, pytest.approx(-0.8, abs=1e-15))
    assert windowed.window_a.empty and windowed.window_b.empty
    assert (windowed.eval_count_a, windowed.eval_count_b) == (0, 0)
    assert (whole.eval_count_a, whole.eval_count_b) == (3, 3)
    assert windowed.roots_a == windowed.roots_b == windowed.common == ()


def test_conventional_mode_is_not_windowed(mat_a):
    # the paper's baseline scans each whole interval, window or not
    a = DenseMatrix(np.ones((3, 3)))
    report = common_eigenvalues(a, mat_a, AnalysisConfig(mode=Mode.CONVENTIONAL))
    assert report.window_a == report.search_interval_a == RealInterval(-1.0, 3.0)
    assert report.window_b == report.search_interval_b
    assert report.eval_count_a == len(scan(partial(char_fn, a), report.search_interval_a)) + sum(
        r.iterations for r in report.roots_a
    )


def test_form_interval_ends_below_the_normal_range_are_infinite(mat_a):
    # At scale 2**-1000 the margin of each end of A's Bendixson interval,
    # 2*n*PIVOT_RTOL*(|end| + ||A||_inf), is below the normal range, so both
    # ends are infinite and the proposed window is the whole search
    # interval: 121 evaluations each, where scale 1 windows A to 79.  Both
    # modes still find 2, 3 and 5, times the scale.
    s = 2.0**-1000
    a = DenseMatrix(mat_a.entries * s)
    assert _form_interval(a) == (-math.inf, math.inf)
    for matrix, scale, count in ((mat_a, 1.0, 79), (a, s, 121)):
        for mode in Mode:
            cfg = AnalysisConfig(mode=mode, step=0.1 * scale, width_tol=1e-10 * scale,
                                 match_tol=1e-6 * scale)
            report = common_eigenvalues(matrix, matrix, cfg)
            if mode is Mode.CONVENTIONAL:
                assert (report.eval_count_a, report.eval_count_b) == (121, 121)
            else:
                assert (report.eval_count_a, report.eval_count_b) == (count, count)
                if scale == s:
                    assert report.window_a == report.window_b == report.search_interval_a
            assert report.common == (2.0 * scale, 3.0 * scale, 5.0 * scale)


@st.composite
def _scaled_pair(draw):
    s = 2.0 ** draw(st.integers(-40, 40))
    return tuple(DenseMatrix(draw(_any_matrix()).entries * s) for _ in "ab"), s


@settings(max_examples=60, deadline=None)
@given(_scaled_pair())
def test_proposed_grid_interiors_are_conventional_grid_points(pair_and_scale):
    # One lattice for both modes: every interior point of each proposed
    # grid is, bit for bit, a point of the same matrix's conventional grid,
    # so the two modes' cells differ only at a proposed grid's two ends.
    (a, b), s = pair_and_scale
    cfg = AnalysisConfig(step=0.1 * s, width_tol=1e-10 * s, match_tol=1e-6 * s)
    prop = common_eigenvalues(a, b, cfg)
    conv = common_eigenvalues(a, b, replace(cfg, mode=Mode.CONVENTIONAL))
    for window, whole in ((prop.window_a, conv.window_a), (prop.window_b, conv.window_b)):
        points = {r.lam.hex() for r in scan(lambda x: 1.0, whole, cfg.step)}
        inner = scan(lambda x: 1.0, window, cfg.step)[1:-1]
        assert {r.lam.hex() for r in inner} <= points


def test_step_below_the_float_spacing_is_refused_before_the_reduction():
    # Below twice the float spacing, neighbouring lattice points round to
    # one float, and each repeat would read the same zero again: this
    # pair's common set would be 1.0 repeated some 2 000 times.  Refused
    # before either matrix is reduced; a point search interval keeps its
    # one point.
    a = DenseMatrix([[1.0, 1e-14], [0.0, 1.0 + 2e-14]])
    b = DenseMatrix(np.diag([1.0, 3.0]))
    cfg = AnalysisConfig(step=1e-17, width_tol=0.0, match_tol=0.0)
    with pytest.raises(ValueError, match="not above twice the float spacing"):
        common_eigenvalues(a, b, cfg)
    assert a._form is None and b._form is None
    one = DenseMatrix([[1.0]])
    assert common_eigenvalues(one, b, cfg).common == (1.0,)


def test_grid_too_large_is_refused_before_the_reduction():
    # The grid's size is checked before either matrix is reduced, as when
    # the scan's first evaluation reduced it; a disjoint pair is never
    # reduced at all.
    a = DenseMatrix(np.diag([1e308, -1e308]))
    b = DenseMatrix([[1e308, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="points on the scan grid"):
        common_eigenvalues(a, b)
    assert a._form is None and b._form is None
    one, ten = DenseMatrix([[1.0]]), DenseMatrix([[10.0]])
    common_eigenvalues(one, ten)
    assert one._form is None and ten._form is None


# ------------------------------------------------------------ match_roots

def test_match_roots_reference_sets():
    got = match_roots(
        [_estimate(2.0), _estimate(3.0)],
        [_estimate(1.0), _estimate(3.0), _estimate(4.0)],
        1e-6,
    )
    assert got == (3.0,)


def test_match_roots_empty_side():
    assert match_roots([], [_estimate(1.0)], 1.0) == ()


def test_match_roots_midpoint():
    got = match_roots([_estimate(1.0000001)], [_estimate(1.0)], 1e-6)
    assert got == (pytest.approx(1.00000005, abs=1e-15),)


def test_match_roots_consumes_each_root_once():
    got = match_roots(
        [_estimate(1.0), _estimate(1.0000005)],
        [_estimate(1.0000002)],
        1e-6,
    )
    assert len(got) == 1
    assert got[0] == pytest.approx(1.0000001, abs=1e-12)


_ascending = st.lists(st.floats(-1e3, 1e3), max_size=12).map(sorted)


@settings(max_examples=300, deadline=None)
@given(
    values_a=_ascending,
    values_b=_ascending,
    match_tol=st.floats(0.0, 0.5),
)
def test_match_roots_midpoints_do_not_decrease(values_a, values_b, match_tol):
    got = match_roots(
        [_estimate(v) for v in values_a], [_estimate(v) for v in values_b], match_tol
    )
    assert all(x <= y for x, y in zip(got, got[1:]))


@pytest.mark.parametrize("value", [1.5e308, -1.5e308, 5e-324, -5e-324])
def test_match_roots_midpoint_of_a_root_with_itself_is_the_root(value):
    # 1.5e308 + 1.5e308 overflows, so that midpoint is taken from the
    # halves; 5e-324 halves to 0, so that one is taken from the sum
    assert match_roots([_estimate(value)], [_estimate(value)], 0.0) == (value,)
    m = DenseMatrix([[value]])
    assert common_eigenvalues(m, m).common == (value,)


_huge = st.lists(st.floats(8e307, 1.7976931348623157e308), max_size=12).map(sorted)


@settings(max_examples=200, deadline=None)
@given(values_a=_huge, values_b=_huge, match_tol=st.floats(0.0, 1e308))
def test_match_roots_midpoints_near_the_float_maximum_are_finite_and_sorted(
    values_a, values_b, match_tol
):
    # pairs on both sides of the sum's overflow at about 9e307 each
    got = match_roots(
        [_estimate(v) for v in values_a], [_estimate(v) for v in values_b], match_tol
    )
    assert all(math.isfinite(x) for x in got)
    assert all(x <= y for x, y in zip(got, got[1:]))


# ----------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(step=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(dedupe_tol=-1.0)
    with pytest.raises(ValueError):
        AnalysisConfig(match_tol=1e-12, width_tol=1e-10)
    # NaN and infinity pass a plain "< 0" check; a NaN match_tol used to
    # drop every common value without an error
    for bad in (math.nan, math.inf):
        for name in ("step", "width_tol", "match_tol", "dedupe_tol"):
            with pytest.raises(ValueError, match=name):
                AnalysisConfig(**{name: bad})


# -------------------------------------------------- mode consistency sweep

def test_modes_agree_on_planted_common_eigenvalue():
    rng = np.random.default_rng(53)
    for _ in range(50):
        shared = float(rng.choice([-1.5, -0.75, 0.0, 0.75, 1.5]))
        a, b = _planted_symmetric_pair(rng, shared)
        proposed = common_eigenvalues(a, b).common
        conventional = common_eigenvalues(
            a, b, AnalysisConfig(mode=Mode.CONVENTIONAL)
        ).common
        assert any(abs(c - shared) <= 1e-6 for c in proposed)
        assert len(proposed) == len(conventional)
        assert all(
            abs(p - c) <= 1e-9 for p, c in zip(proposed, conventional)
        )


def test_symmetric_path_common_values_match_qr_path():
    # The same exactly symmetric pair searched twice: once through char_fn
    # (Sturm path), once through a fresh QR determinant per lambda.
    def qr_det(m, x):
        shifted = x * np.eye(m.order) - m.entries
        return numpy_qr_det(shifted, _norm_inf(shifted))

    rng = np.random.default_rng(61)
    cfg = AnalysisConfig()
    for _ in range(10):
        shared = float(rng.choice([-1.5, -0.75, 0.0, 0.75, 1.5]))
        a, b = _planted_symmetric_pair(rng, shared)
        report = common_eigenvalues(a, b, cfg)
        qr_roots = [
            find_real_roots(
                GridScan(lambda x, m=m: qr_det(m, x), interval, cfg.step), cfg.width_tol,
            )
            for m, interval in ((a, report.search_interval_a), (b, report.search_interval_b))
        ]
        qr_common = match_roots(*qr_roots, cfg.match_tol)
        assert any(abs(c - shared) <= 1e-6 for c in report.common)
        assert len(report.common) == len(qr_common)
        assert all(abs(s - q) <= cfg.width_tol for s, q in zip(report.common, qr_common))


def test_symmetric_path_at_1e160_scale():
    # det(lam*I - T) is ~1e480 here, far past float64: values overflow to
    # +-inf with the right sign and never turn NaN, so the scan still sees
    # the three sign changes.  114 evaluations of A, as the QR path: the
    # scan's 23 grid points plus the bisection iterations of three
    # brackets, whose end values come from the scan.  B is A, so each of
    # its cells is seeded with the two ends of A's final bracket there,
    # which bracket B's root too: 23 grid points plus two steps a root.
    t = DenseMatrix(
        [[1.05e160, 1e159, 0.0], [1e159, 1.5731e160, 2e159], [0.0, 2e159, 2.95e160]]
    )
    cfg = AnalysisConfig(step=1e159, width_tol=1e150, match_tol=1e151, dedupe_tol=1e151)
    report = common_eigenvalues(t, t, cfg)
    expected = np.linalg.eigvalsh(t.entries)
    assert [r.value for r in report.roots_a] == pytest.approx(expected, abs=1e151)
    assert report.common == pytest.approx(expected, abs=1e151)
    assert (report.eval_count_a, report.eval_count_b) == (114, 29)
    assert [r.iterations for r in report.roots_b] == [2, 2, 2]
    lo, hi = report.search_interval_a.lo, report.search_interval_a.hi
    for lam in np.linspace(lo, hi, 200):
        assert not math.isnan(char_fn(t, lam))


@pytest.mark.parametrize("symmetrize", [False, True], ids=["qr", "sturm"])
def test_common_values_do_not_depend_on_scale(symmetrize):
    # A rotated diag(1, 2, 3) against a triangular matrix with diagonal
    # 2, 2.5, 3, both multiplied by s, with the step and every length
    # tolerance multiplied by s too: the common values divided by s must
    # be {2, 3} at every s.  A zero test on |f| against a fixed threshold
    # reads every grid point as a root once det(lam*I - sM) ~ s**3 is tiny.
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
    rotated = q @ np.diag([1.0, 2.0, 3.0]) @ q.T
    if symmetrize:
        rotated = 0.5 * (rotated + rotated.T)
    triangular = np.array([[2.0, 1.0, 0.5], [0.0, 2.5, 1.0], [0.0, 0.0, 3.0]])
    for scale in (1e-100, 1e-14, 1e-12, 1e-4, 1e-2, 1.0, 1e4):
        cfg = AnalysisConfig(
            step=0.1 * scale, width_tol=1e-10 * scale,
            match_tol=1e-6 * scale, dedupe_tol=1e-6 * scale,
        )
        report = common_eigenvalues(
            DenseMatrix(scale * rotated), DenseMatrix(scale * triangular), cfg
        )
        assert [c / scale for c in report.common] == pytest.approx([2.0, 3.0], abs=1e-9)


def _planted_order60_pair(rng, symmetric):
    """Two rotated order-60 matrices that share the eigenvalue 0.35.

    Dense: 0.35, -1.2 and two more real eigenvalues each, the rest complex
    pairs a +- wi with w in [0.5, 2].  Symmetric: spectra 0.35 + 0.2k and
    0.35 + 0.3k for k = -30..29, which share 0.35 + 0.6j.
    """
    n = 60
    q = [np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2)]
    if symmetric:
        ks = np.arange(-30, 30)
        return [0.5 * (m + m.T) for m in (
            q[0] @ np.diag(0.35 + 0.2 * ks) @ q[0].T,
            q[1] @ np.diag(0.35 + 0.3 * ks) @ q[1].T,
        )]
    out = []
    for basis in q:
        t = np.diag([0.35, -1.2, *rng.uniform(-2.0, 2.0, 2)] + [0.0] * (n - 4))
        for i in range(4, n, 2):
            a, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
            t[i : i + 2, i : i + 2] = [[a, w], [-w, a]]
        out.append(basis @ t @ basis.T)
    return out


@pytest.mark.parametrize("symmetric", [False, True], ids=["qr", "sturm"])
def test_underflowing_determinant_is_not_a_root(symmetric):
    # At scale 1e-6, det(lam*I - M) of an order-60 matrix is about 1e-360,
    # below the float64 range: a product of the pivots that underflows to
    # 0.0 would read every grid point as a root.  Each value must keep the
    # sign of slogdet's, and the common values divided by the scale must
    # equal those of the unscaled pair.
    a, b = _planted_order60_pair(np.random.default_rng(13), symmetric)
    scale = 1e-6
    m = DenseMatrix(scale * a)
    for lam in np.linspace(-2.5 * scale, 2.5 * scale, 200):
        value = char_fn(m, lam)
        assert value != 0.0
        assert np.sign(value) == np.linalg.slogdet(lam * np.eye(60) - m.entries)[0]
    cfg = AnalysisConfig(
        step=0.1 * scale, width_tol=1e-10 * scale,
        match_tol=1e-6 * scale, dedupe_tol=1e-6 * scale,
    )
    scaled = common_eigenvalues(m, DenseMatrix(scale * b), cfg)
    unscaled = common_eigenvalues(DenseMatrix(a), DenseMatrix(b))
    assert any(abs(c - 0.35) <= 1e-6 for c in unscaled.common)
    assert [c / scale for c in scaled.common] == pytest.approx(unscaled.common, abs=1e-9)


def test_proposed_never_costs_more_than_conventional(mat_a, mat_b):
    rng = np.random.default_rng(59)
    pairs = [(mat_a, mat_b), (mat_a, mat_a)]
    for _ in range(5):
        a, b = _planted_symmetric_pair(rng, 0.75)
        pairs.append((a, b))
    for a, b in pairs:
        prop = common_eigenvalues(a, b)
        conv = common_eigenvalues(a, b, AnalysisConfig(mode=Mode.CONVENTIONAL))
        assert (
            prop.eval_count_a + prop.eval_count_b
            <= conv.eval_count_a + conv.eval_count_b
        )


@pytest.mark.parametrize("path", ["sturm", "hessenberg", "qr"])
def test_itp_steps_agree_with_plain_halving_and_cost_less(path, monkeypatch):
    # The same pairs through the pipeline twice, the second time with
    # bisect replaced by plain halving: every pair gives as many roots and
    # the same common values to width_tol, for strictly fewer evaluations.
    # Planted eigenvalues sit 0.03 off the grid's lattice, so most are
    # bisected, and off its cells' midpoints, where halving's first step
    # would land on them.
    rng = np.random.default_rng(67)
    if path == "sturm":
        shared = rng.choice(range(2, 7), size=8)
        pairs = [_planted_symmetric_pair(rng, -2.97 + 0.75 * int(k), 0.03) for k in shared]
    else:
        orders = range(3, 9) if path == "hessenberg" else (12, 16)
        pairs = [
            tuple(_on_grid_general(rng, n, 1, -2.97, 0.1)[0] for _ in "ab")
            for n in orders
        ]
    cfg = AnalysisConfig()
    itp = [common_eigenvalues(a, b, cfg) for a, b in pairs]
    assert any(r.iterations for report in itp for r in report.roots_a + report.roots_b)
    monkeypatch.setattr(rootfind, "bisect", plain_bisect)
    plain = [common_eigenvalues(a, b, cfg) for a, b in pairs]
    for new, old in zip(itp, plain):
        assert (len(new.roots_a), len(new.roots_b)) == (len(old.roots_a), len(old.roots_b))
        assert len(new.common) == len(old.common)
        assert all(abs(x - y) <= cfg.width_tol for x, y in zip(new.common, old.common))
    evals = [sum(r.eval_count_a + r.eval_count_b for r in side) for side in (itp, plain)]
    assert evals[0] < evals[1]


def test_roots_bisected_to_width_tol_average_at_most_nine_itp_steps(monkeypatch):
    # The regression guard on the ITP steps, over the roots refined to
    # width_tol without a seed alone: a stopped root takes a step or two,
    # and so does a root of B seeded at A's, so a mean over every bisect
    # call, as perfbench's iters_per_root takes it, could hide a slide back
    # toward halving.  On a fixed pool shaped like perfbench's symmetric
    # one (order 30, eigenvalues uniform on [-3, 3], 4 shared), in both
    # modes, the ITP steps average 7.8 per root over 222 roots, one step
    # of slack would take 9.3 and plain halving takes 30.
    rng = np.random.default_rng(67)

    def rotated(spectrum):
        q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        m = q @ np.diag(spectrum) @ q.T
        return DenseMatrix(0.5 * (m + m.T))

    pairs = []
    for _ in range(16):
        shared = rng.uniform(-3.0, 3.0, 4)
        pairs.append(tuple(rotated(np.concatenate([shared, rng.uniform(-3.0, 3.0, 26)]))
                           for _ in "ab"))

    def steps(bisect):
        kept = []

        def unseeded(f, lo, hi, flo, fhi, width_tol, near=None, seeds=()):
            root = bisect(f, lo, hi, flo, fhi, width_tol, near, seeds)
            if root.origin is RootOrigin.BISECTION and not any(lo < x < hi for x in seeds):
                kept.append(root.iterations)
            return root

        monkeypatch.setattr(rootfind, "bisect", unseeded)
        for a, b in pairs:
            for mode in Mode:
                common_eigenvalues(a, b, AnalysisConfig(mode=mode))
        return kept

    itp = steps(rootfind.bisect)
    assert len(itp) >= 200 and sum(itp) <= 9 * len(itp)
    halving = steps(plain_bisect)
    assert sum(halving) > 9 * len(halving)


@pytest.mark.parametrize("path", ["sturm", "hessenberg", "qr"])
def test_every_counted_evaluation_is_one_char_fn_call(path, monkeypatch):
    # A tracer that wraps pipeline.char_fn sees exactly the evaluations the
    # report counts, per matrix, on each kernel: a symmetric pair, a
    # general pair at or below order 8 and one above it.
    rng = np.random.default_rng(71)
    if path == "sturm":
        a, b = _planted_symmetric_pair(rng, 0.75)
    else:
        n = 6 if path == "hessenberg" else 12
        a, b = (_on_grid_general(rng, n, 1, -3.0, 0.1)[0] for _ in "ab")
    calls = []
    real = pipeline.char_fn
    monkeypatch.setattr(pipeline, "char_fn", lambda m, lam: calls.append(m) or real(m, lam))
    for mode in Mode:
        calls.clear()
        report = common_eigenvalues(a, b, AnalysisConfig(mode=mode))
        assert report.eval_count_a == sum(m is a for m in calls) > 0
        assert report.eval_count_b == sum(m is b for m in calls) > 0
        assert report.eval_count_a + report.eval_count_b == len(calls)


# -------------------------------------------------------------- benchmark

def test_benchmark_reference_pair(mat_a, mat_b):
    summary = run_benchmark(mat_a, mat_b, repetitions=3)
    assert summary.repetitions == 3
    assert summary.proposed_evals == 82
    assert summary.conventional_evals == 162
    assert summary.eval_ratio == pytest.approx(162 / 82)
    assert summary.modes_agree
    assert summary.proposed_median_time >= 0.0
    assert summary.conventional_median_time >= 0.0
    assert summary.speedup > 0.0


def test_benchmark_same_matrix_ratio_one(mat_a, mat_b):
    # A matrix against itself: the search interval is its own, so the
    # conventional run scans it whole.  The symmetric B's window is its
    # whole interval [0, 4], so the two modes cost the same.  The
    # triangular A's proposed window is the grid of [-4, 8] that brackets
    # its Bendixson interval, about [-0.014, 7.687]: 79 evaluations of
    # each matrix where the conventional run takes 121, for the same
    # common values.
    summary = run_benchmark(mat_b, mat_b, repetitions=1)
    assert (summary.proposed_evals, summary.conventional_evals) == (82, 82)
    assert summary.eval_ratio == 1.0
    summary = run_benchmark(mat_a, mat_a, repetitions=1)
    proposed, conventional = summary.proposed, summary.conventional
    assert (proposed.eval_count_a, proposed.eval_count_b) == (79, 79)
    assert (conventional.eval_count_a, conventional.eval_count_b) == (121, 121)
    assert (summary.proposed_evals, summary.conventional_evals) == (158, 242)
    assert proposed.window_a == proposed.window_b == RealInterval(-0.1, 7.7)
    assert conventional.window_a == conventional.window_b == RealInterval(-4.0, 8.0)
    assert proposed.common == conventional.common == (2.0, 3.0, 5.0)
    assert summary.modes_agree


def test_benchmark_disjoint_pair():
    summary = run_benchmark(
        DenseMatrix([[1.0]]), DenseMatrix([[10.0]]), repetitions=1
    )
    assert summary.proposed_evals == 0
    assert summary.conventional_evals == 2
    assert math.isinf(summary.eval_ratio)
    assert summary.modes_agree


def _with_extra_common(monkeypatch, mode, value):
    """Make common_eigenvalues add ``value`` to the common set of ``mode``."""
    real = pipeline.common_eigenvalues

    def extra(a, b, cfg):
        report = real(a, b, cfg)
        if cfg.mode is mode:
            report = replace(report, common=report.common + (value,))
        return report

    monkeypatch.setattr(pipeline, "common_eigenvalues", extra)


def test_benchmark_reports_a_proposed_value_conventional_lacks(mat_a, mat_b, monkeypatch):
    # Each mode's grid starts at its own interval's lower end, so the
    # proposed search can find a value the conventional one misses: the
    # disagreement is reported, not raised.
    _with_extra_common(monkeypatch, Mode.PROPOSED, 3.5)
    summary = run_benchmark(mat_a, mat_b, repetitions=1)
    assert summary.proposed.common == (3.0, 3.5)
    assert summary.conventional.common == (3.0,)
    assert summary.modes_agree is False


def test_benchmark_reports_a_conventional_value_proposed_lacks(mat_a, mat_b, monkeypatch):
    _with_extra_common(monkeypatch, Mode.CONVENTIONAL, 4.5)
    summary = run_benchmark(mat_a, mat_b, repetitions=1)
    assert summary.proposed.common == (3.0,)
    assert summary.conventional.common == (3.0, 4.5)
    assert summary.modes_agree is False


def test_benchmark_modes_disagree_where_two_roots_share_a_conventional_cell():
    # A's roots 1.02 and 1.08 share the conventional lattice cell
    # [1.0, 1.1] and cancel there; the proposed grid's end cell is
    # [1.08, 1.2], which starts at the common eigenvalue and hits it
    # exactly.
    a = DenseMatrix([[1.02, 0.3, 0.3], [0.0, 1.08, 0.3], [0.0, 0.0, -2.0]])
    b = DenseMatrix([[1.08, 0.2], [0.0, 2.0]])
    summary = run_benchmark(a, b, repetitions=1)
    search = summary.proposed.search_interval_a
    assert (search.lo, search.hi) == pytest.approx((1.08, 1.38))
    assert summary.proposed.common == pytest.approx((1.08,))
    assert summary.conventional.common == ()
    assert summary.modes_agree is False


def test_benchmark_rejects_zero_repetitions(mat_a, mat_b):
    with pytest.raises(ValueError):
        run_benchmark(mat_a, mat_b, repetitions=0)
