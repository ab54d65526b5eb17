"""Disc construction, inclusion intervals, and interval intersection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import common_eig
from common_eig import (
    EMPTY_INTERVAL,
    DenseMatrix,
    Disc,
    RealInterval,
    discs_of,
    intersect,
    matrix_bounds,
)
from oracles import jacobi_eigenvalues


def _pairs(discs):
    return [(d.center, d.radius) for d in discs]


def _columns(m):
    """The column discs: the row discs of the transpose."""
    return discs_of(DenseMatrix(m.entries.T))


def _span(discs):
    """Real-axis span of a disc union: [min(c - r), max(c + r)]."""
    lo = min(d.center - d.radius for d in discs)
    hi = max(d.center + d.radius for d in discs)
    return RealInterval(lo, hi)


# ------------------------------------------------------------------ discs

def test_row_discs_reference_a(mat_a):
    assert _pairs(discs_of(mat_a)) == [(3.0, 5.0), (2.0, 6.0), (5.0, 0.0)]


def test_row_discs_reference_b(mat_b):
    assert _pairs(discs_of(mat_b)) == [(3.0, 1.0), (2.0, 2.0), (3.0, 1.0)]


def test_row_discs_zero_matrix():
    assert _pairs(discs_of(DenseMatrix(np.zeros((2, 2))))) == [(0.0, 0.0)] * 2


def test_col_discs_reference_a(mat_a):
    assert _pairs(_columns(mat_a)) == [(3.0, 0.0), (2.0, 1.0), (5.0, 10.0)]


def test_col_discs_symmetric_equal_rows(mat_b):
    assert _pairs(_columns(mat_b)) == _pairs(discs_of(mat_b))


def test_col_discs_identity():
    assert _pairs(_columns(DenseMatrix(np.eye(3)))) == [(1.0, 0.0)] * 3


def test_discs_of_takes_the_matrix_alone(mat_a):
    with pytest.raises(TypeError):
        discs_of(mat_a, "column")


def test_removed_names_do_not_import():
    # the column discs are those of the transpose and matrix_bounds is the
    # one interval rule, so neither an axis switch nor a second span remains
    with pytest.raises(ImportError):
        from common_eig import Axis  # noqa: F401
    with pytest.raises(ImportError):
        from common_eig import interval_of  # noqa: F401
    assert not {"Axis", "interval_of"} & set(common_eig.__all__)


def test_disc_validation():
    with pytest.raises(ValueError):
        Disc(0.0, -1.0)
    with pytest.raises(ValueError):
        Disc(math.nan, 1.0)


# -------------------------------------------------------------- intervals

def test_interval_of_reference(mat_a, mat_b):
    assert _span(discs_of(mat_a)) == RealInterval(-4.0, 8.0)
    assert _span(discs_of(mat_b)) == RealInterval(0.0, 4.0)


def test_real_interval_behavior():
    interval = RealInterval(-1.0, 2.0)
    assert interval.contains(0.0)
    assert interval.contains(2.0)
    assert not interval.contains(2.5)
    assert interval.width == 3.0
    assert str(interval) == "[-1, 2]"

    assert EMPTY_INTERVAL.empty
    assert EMPTY_INTERVAL.lo is None
    assert not EMPTY_INTERVAL.contains(0.0)
    assert str(EMPTY_INTERVAL) == "(empty)"
    with pytest.raises(ValueError):
        EMPTY_INTERVAL.width
    with pytest.raises(ValueError):
        RealInterval(2.0, 1.0)
    assert RealInterval(0.0, 1.0) == RealInterval(0.0, 1.0)
    assert EMPTY_INTERVAL == RealInterval(None, None)
    assert RealInterval(0.0, 1.0) != EMPTY_INTERVAL
    # another type is not equal, through __eq__'s NotImplemented
    assert (RealInterval(0, 1) == (0, 1)) is False


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
    # a frozen dataclass: equal intervals are one set member, and every
    # empty interval hashes like every other
    assert len({RealInterval(0, 1), RealInterval(0.0, 1.0)}) == 1
    assert {RealInterval(-0.0, 1.0): "x"}[RealInterval(0.0, 1.0)] == "x"
    other_empty = RealInterval(None, None)
    assert hash(other_empty) == hash(EMPTY_INTERVAL)
    assert len({EMPTY_INTERVAL, other_empty, intersect(RealInterval(0, 1), RealInterval(2, 3))}) == 1


# finite ends, with -0.0, the smallest subnormal, the largest exponent and
# small integers drawn often, so that equal and -0.0/0.0 pairs come up
_ENDS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0]),
    st.integers(-2, 2),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(_ENDS, _ENDS, _ENDS, _ENDS)
def test_equality_and_hashing_follow_the_float_ends(a0, a1, b0, b1):
    ends_a, ends_b = sorted((a0, a1)), sorted((b0, b1))
    a, b = RealInterval(*ends_a), RealInterval(*ends_b)
    key_a, key_b = tuple(map(float, ends_a)), tuple(map(float, ends_b))
    assert (a == b) == (key_a == key_b)
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b}) == len({key_a, key_b})
    hi = abs(float(a1))
    assert len({RealInterval(-0.0, hi), RealInterval(0.0, hi)}) == 1


def test_the_empty_interval_has_no_endpoints():
    disjoint = intersect(RealInterval(0, 1), RealInterval(2, 3))
    assert disjoint.lo is None and disjoint.hi is None
    assert [f.name for f in dataclasses.fields(RealInterval)] == ["lo", "hi"]
    with pytest.raises(TypeError):
        RealInterval(0, 1, empty=True)
    with pytest.raises(TypeError):
        RealInterval(None, 1.0)
    with pytest.raises(TypeError):
        RealInterval(1.0, None)


def test_str_keeps_ten_significant_digits():
    # as the command line prints roots: six digits would show [1, 1]
    assert str(RealInterval(1.0000001, 1.0000002)) == "[1.0000001, 1.0000002]"
    assert str(RealInterval(12345.6789, 12345.68)) == "[12345.6789, 12345.68]"


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
    # same interval, -0.0 and all, as intersecting the spans of the row
    # discs and of the transpose's row discs (the transpose keeps its
    # column-major layout, so numpy sums its rows as it sums M's columns).
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        for entries in (a, np.triu(a), np.tril(a), np.zeros((n, n)), -np.zeros((n, n))):
            m = DenseMatrix(entries * scale)
            ours = matrix_bounds(m)
            spans = intersect(_span(discs_of(m)), _span(_columns(m)))
            assert (ours.lo.hex(), ours.hi.hex()) == (spans.lo.hex(), spans.hi.hex())


def test_matrix_bounds_reads_sums_near_the_float64_limit():
    # 2 * n * max|a| overflows float64 but no absolute row or column sum
    # does: the bounds come without a warning, as the discs give them.
    m = DenseMatrix([[1e308, -5e307], [0.0, -1e308]])
    assert matrix_bounds(m) == RealInterval(-1e308, 1e308)
    assert matrix_bounds(m) == intersect(_span(discs_of(m)), _span(_columns(m)))


def test_diagonal_entries_contained():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = DenseMatrix(rng.uniform(-2, 2, (n, n)))
        row_iv = _span(discs_of(m))
        col_iv = _span(_columns(m))
        for d in np.diagonal(m.entries):
            assert row_iv.contains(d)
            assert col_iv.contains(d)


def test_bounds_invariant_under_symmetric_permutation():
    # integer entries keep the radius sums exact under reordering
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = rng.integers(-9, 10, (n, n)).astype(float)
        perm = rng.permutation(n)
        permuted = a[perm][:, perm]
        assert _span(discs_of(DenseMatrix(a))) == _span(discs_of(DenseMatrix(permuted)))


def test_oracle_eigenvalues_contained():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        s = rng.uniform(-1, 1, (n, n))
        m = 0.5 * (s + s.T)
        bounds = matrix_bounds(DenseMatrix(m))
        for ev in jacobi_eigenvalues(m):
            assert bounds.lo - 1e-9 <= ev <= bounds.hi + 1e-9
