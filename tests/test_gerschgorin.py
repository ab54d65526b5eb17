"""Disc construction, inclusion intervals, and interval intersection."""

import math

import numpy as np
import pytest

from common_eig import (
    EMPTY_INTERVAL,
    Axis,
    DenseMatrix,
    Disc,
    RealInterval,
    discs_of,
    intersect,
    interval_of,
    matrix_bounds,
)
from oracles import jacobi_eigenvalues


def _pairs(discs):
    return [(d.center, d.radius) for d in discs]


# ------------------------------------------------------------------ discs

def test_row_discs_reference_a(mat_a):
    assert _pairs(discs_of(mat_a, Axis.ROW)) == [(3.0, 5.0), (2.0, 6.0), (5.0, 0.0)]


def test_row_discs_reference_b(mat_b):
    assert _pairs(discs_of(mat_b, Axis.ROW)) == [(3.0, 1.0), (2.0, 2.0), (3.0, 1.0)]


def test_row_discs_zero_matrix():
    assert _pairs(discs_of(DenseMatrix(np.zeros((2, 2))), Axis.ROW)) == [(0.0, 0.0)] * 2


def test_col_discs_reference_a(mat_a):
    assert _pairs(discs_of(mat_a, Axis.COLUMN)) == [(3.0, 0.0), (2.0, 1.0), (5.0, 10.0)]


def test_col_discs_symmetric_equal_rows(mat_b):
    assert _pairs(discs_of(mat_b, Axis.COLUMN)) == _pairs(discs_of(mat_b, Axis.ROW))


def test_col_discs_identity():
    assert _pairs(discs_of(DenseMatrix(np.eye(3)), Axis.COLUMN)) == [(1.0, 0.0)] * 3


def test_disc_validation():
    with pytest.raises(ValueError):
        Disc(0.0, -1.0)
    with pytest.raises(ValueError):
        Disc(math.nan, 1.0)


# -------------------------------------------------------------- intervals

def test_interval_of_reference(mat_a, mat_b):
    assert interval_of(discs_of(mat_a, Axis.ROW)) == RealInterval(-4.0, 8.0)
    assert interval_of(discs_of(mat_b, Axis.ROW)) == RealInterval(0.0, 4.0)


def test_interval_of_zero_radius_disc():
    assert interval_of([Disc(5.0, 0.0)]) == RealInterval(5.0, 5.0)


def test_interval_of_rejects_empty_list():
    with pytest.raises(ValueError, match="zero discs"):
        interval_of([])


def test_real_interval_behavior():
    interval = RealInterval(-1.0, 2.0)
    assert interval.contains(0.0)
    assert interval.contains(2.0)
    assert not interval.contains(2.5)
    assert interval.width == 3.0
    assert str(interval) == "[-1, 2]"

    assert EMPTY_INTERVAL.empty
    assert math.isnan(EMPTY_INTERVAL.lo)
    assert not EMPTY_INTERVAL.contains(0.0)
    assert str(EMPTY_INTERVAL) == "(empty)"
    with pytest.raises(ValueError):
        EMPTY_INTERVAL.width
    with pytest.raises(ValueError):
        RealInterval(2.0, 1.0)
    assert RealInterval(0.0, 1.0) == RealInterval(0.0, 1.0)
    assert EMPTY_INTERVAL == RealInterval(0.0, 0.0, empty=True)
    assert RealInterval(0.0, 1.0) != EMPTY_INTERVAL


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_real_interval_rejects_non_finite_ends(lo, hi):
    with pytest.raises(ValueError, match="interval endpoints must be finite"):
        RealInterval(lo, hi)


# ------------------------------------------------------------- intersect

def test_intersect_reference_intervals():
    assert intersect(RealInterval(-4, 8), RealInterval(0, 4)) == RealInterval(0, 4)


def test_intersect_disjoint_is_empty():
    assert intersect(RealInterval(0, 1), RealInterval(2, 3)).empty


def test_intersect_touching_is_degenerate():
    got = intersect(RealInterval(0, 1), RealInterval(1, 2))
    assert got == RealInterval(1, 1)
    assert not got.empty


def test_intersect_with_empty():
    assert intersect(EMPTY_INTERVAL, RealInterval(0, 1)).empty
    assert intersect(RealInterval(0, 1), EMPTY_INTERVAL).empty


def test_equal_intervals_hash_alike():
    # frozen, with its own __eq__: equal intervals are one set member, and
    # every empty interval hashes like every other
    assert len({RealInterval(0, 1), RealInterval(0.0, 1.0)}) == 1
    assert {RealInterval(-0.0, 1.0): "x"}[RealInterval(0.0, 1.0)] == "x"
    other_empty = RealInterval(3.0, 4.0, empty=True)
    assert hash(other_empty) == hash(EMPTY_INTERVAL)
    assert len({EMPTY_INTERVAL, other_empty, intersect(RealInterval(0, 1), RealInterval(2, 3))}) == 1


def test_intersect_algebraic_laws():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lows = rng.uniform(-5, 5, 3)
        widths = rng.uniform(0, 4, 3)
        a, b, c = (RealInterval(lo, lo + w) for lo, w in zip(lows, widths))
        assert intersect(a, a) == a
        assert intersect(a, b) == intersect(b, a)
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


# ----------------------------------------------------------- matrix_bounds

def test_matrix_bounds_reference(mat_a, mat_b):
    assert matrix_bounds(mat_a) == RealInterval(-4.0, 8.0)
    assert matrix_bounds(mat_b) == RealInterval(0.0, 4.0)


def test_matrix_bounds_diagonal():
    assert matrix_bounds(DenseMatrix(np.diag([1.0, 9.0]))) == RealInterval(1.0, 9.0)


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_matrix_bounds_is_the_disc_intersection_to_the_bit(scale):
    # matrix_bounds skips the Disc objects but not a float operation: the
    # same interval, -0.0 and all, as intersecting the two discs' spans.
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        for entries in (a, np.triu(a), np.tril(a), np.zeros((n, n)), -np.zeros((n, n))):
            m = DenseMatrix(entries * scale)
            ours = matrix_bounds(m)
            spans = intersect(*(interval_of(discs_of(m, axis)) for axis in Axis))
            assert (ours.lo.hex(), ours.hi.hex()) == (spans.lo.hex(), spans.hi.hex())


def test_diagonal_entries_contained():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = DenseMatrix(rng.uniform(-2, 2, (n, n)))
        row_iv = interval_of(discs_of(m, Axis.ROW))
        col_iv = interval_of(discs_of(m, Axis.COLUMN))
        for d in np.diagonal(m.entries):
            assert row_iv.contains(d)
            assert col_iv.contains(d)


def test_symmetric_row_col_discs_identical():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        s = rng.uniform(-1, 1, (n, n))
        m = DenseMatrix(0.5 * (s + s.T))
        assert _pairs(discs_of(m, Axis.ROW)) == _pairs(discs_of(m, Axis.COLUMN))


def test_bounds_invariant_under_symmetric_permutation():
    # integer entries keep the radius sums exact under reordering
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = rng.integers(-9, 10, (n, n)).astype(float)
        perm = rng.permutation(n)
        permuted = a[perm][:, perm]
        assert interval_of(discs_of(DenseMatrix(a), Axis.ROW)) == interval_of(
            discs_of(DenseMatrix(permuted), Axis.ROW)
        )


def test_oracle_eigenvalues_contained():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        s = rng.uniform(-1, 1, (n, n))
        m = 0.5 * (s + s.T)
        bounds = matrix_bounds(DenseMatrix(m))
        for ev in jacobi_eigenvalues(m):
            assert bounds.lo - 1e-9 <= ev <= bounds.hi + 1e-9
