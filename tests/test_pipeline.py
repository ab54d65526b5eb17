"""End-to-end pipeline: modes, matching, instrumentation, benchmarking."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import common_eig.pipeline as pipeline
import common_eig.rootfind as rootfind
from common_eig import (
    AnalysisConfig,
    DenseMatrix,
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
from oracles import numpy_qr_det, plain_bisect
from test_matrix import _norm_inf, _on_grid_general


def _estimate(value):
    return RootEstimate(
        value=value, residual=0.0, bracket_lo=value, bracket_hi=value,
        iterations=0, origin=RootOrigin.GRID_ZERO,
    )


def _planted_symmetric_pair(rng, shared):
    """Two rotated symmetric matrices sharing exactly one eigenvalue.

    Spectra are drawn from a 0.75-spaced lattice so every root is well
    separated at the default step, and rotated by random orthogonal bases.
    """
    lattice = [-3.0 + 0.75 * k for k in range(9)]
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
    a, b = _near_double_pair()
    report = common_eigenvalues(a, b)
    assert len(report.common) == 1
    assert abs(report.common[0] - 1.0000004) <= report.config.match_tol
    assert abs(report.common[0] - 1.0000013) <= report.config.match_tol
    assert (report.eval_count_a, report.eval_count_b) == (101, 61)


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
    # each count is the search grid's size plus the bisection steps of the
    # roots returned, so no evaluation went to a root that was dropped
    for m, search, roots, count in (
        (a, report.search_interval_a, report.roots_a, report.eval_count_a),
        (b, report.search_interval_b, report.roots_b, report.eval_count_b),
    ):
        grid = scan(partial(char_fn, m), search, report.config.step)
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
                lambda x, m=m: qr_det(m, x),
                interval, cfg.step, cfg.width_tol,
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
    # the three sign changes.  113 evaluations per matrix, as the QR path:
    # the scan's grid points plus the bisection iterations of three
    # brackets, whose end values come from the scan.
    t = DenseMatrix(
        [[1.05e160, 1e159, 0.0], [1e159, 1.5731e160, 2e159], [0.0, 2e159, 2.95e160]]
    )
    cfg = AnalysisConfig(step=1e159, width_tol=1e150, match_tol=1e151, dedupe_tol=1e151)
    report = common_eigenvalues(t, t, cfg)
    expected = np.linalg.eigvalsh(t.entries)
    assert [r.value for r in report.roots_a] == pytest.approx(expected, abs=1e151)
    assert report.common == pytest.approx(expected, abs=1e151)
    assert report.eval_count_a == report.eval_count_b == 113
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
    # Planted eigenvalues sit off the search interval's grid, so most are
    # bisected.
    rng = np.random.default_rng(67)
    if path == "sturm":
        shared = rng.choice([-1.5, -0.75, 0.0, 0.75, 1.5], size=8)
        pairs = [_planted_symmetric_pair(rng, float(s)) for s in shared]
    else:
        orders = range(3, 9) if path == "hessenberg" else (12, 16)
        pairs = [
            tuple(_on_grid_general(rng, n, 1, -3.0, 0.1)[0] for _ in "ab")
            for n in orders
        ]
    cfg = AnalysisConfig()
    itp = [common_eigenvalues(a, b, cfg) for a, b in pairs]
    monkeypatch.setattr(rootfind, "bisect", plain_bisect)
    plain = [common_eigenvalues(a, b, cfg) for a, b in pairs]
    for new, old in zip(itp, plain):
        assert (len(new.roots_a), len(new.roots_b)) == (len(old.roots_a), len(old.roots_b))
        assert len(new.common) == len(old.common)
        assert all(abs(x - y) <= cfg.width_tol for x, y in zip(new.common, old.common))
    evals = [sum(r.eval_count_a + r.eval_count_b for r in side) for side in (itp, plain)]
    assert evals[0] < evals[1]


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


def test_benchmark_same_matrix_ratio_one(mat_a):
    summary = run_benchmark(mat_a, mat_a, repetitions=1)
    assert summary.proposed_evals == summary.conventional_evals
    assert summary.eval_ratio == 1.0


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
    # A's conventional grid starts at -2, so its roots 1.02 and 1.08 share
    # the cell [1.0, 1.1] and cancel there; the proposed grid starts at
    # 1.08, the common eigenvalue, and hits it exactly.
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
