"""Matrix parsing, determinants, characteristic function."""

import math

import numpy as np
import pytest

from common_eig import (
    DenseMatrix,
    EmptyInputError,
    NonFiniteValueError,
    NonNumericTokenError,
    NonSquareError,
    TrailingContentError,
    char_fn,
    determinant,
    matrix_bounds,
    parse_matrix,
    render_matrix,
)
from common_eig.matrix import _tridiagonal_form
from conftest import A_TEXT
from oracles import cofactor_determinant


def _rotated_symmetric(rng, spectrum):
    """An exactly symmetric matrix with (up to rounding) the given spectrum."""
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q @ np.diag(spectrum) @ q.T
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------- parsing

def test_parse_minimal():
    m = parse_matrix("1\n7\n")
    assert m.order == 1
    assert m.entries[0, 0] == 7.0


def test_parse_reference_matrix():
    m = parse_matrix(A_TEXT)
    assert m.order == 3
    assert m.entries.tolist() == [[3, 1, 4], [0, 2, 6], [0, 0, 5]]


def test_parse_ragged_row():
    with pytest.raises(NonSquareError):
        parse_matrix("2\n1 2\n3\n")


def test_parse_missing_rows():
    with pytest.raises(NonSquareError):
        parse_matrix("3\n1 2 3\n4 5 6\n")


def test_parse_empty_input():
    with pytest.raises(EmptyInputError):
        parse_matrix("")
    with pytest.raises(EmptyInputError):
        parse_matrix("\n# only a comment\n   \n")


def test_parse_skips_comments_and_blanks():
    text = "# order\n\n2\n# rows follow\n1 2\n\n3 4\n"
    m = parse_matrix(text)
    assert m.entries.tolist() == [[1, 2], [3, 4]]


def test_parse_trailing_content():
    with pytest.raises(TrailingContentError):
        parse_matrix("2\n1 2\n3 4\n5 6\n")


def test_parse_bad_token_reports_position():
    with pytest.raises(NonNumericTokenError) as exc_info:
        parse_matrix("2\n1 x\n3 4\n")
    assert exc_info.value.line == 2
    assert exc_info.value.column == 3
    assert "line 2" in str(exc_info.value)


def test_parse_bad_order_line():
    with pytest.raises(NonNumericTokenError):
        parse_matrix("two\n1 2\n3 4\n")
    with pytest.raises(NonNumericTokenError):
        parse_matrix("0\n")
    with pytest.raises(NonNumericTokenError):
        parse_matrix("2 2\n1 2\n3 4\n")


def test_parse_rejects_non_finite():
    with pytest.raises(NonFiniteValueError):
        parse_matrix("1\ninf\n")
    with pytest.raises(NonFiniteValueError):
        parse_matrix("1\nnan\n")


def test_parse_scientific_notation():
    m = parse_matrix("2\n1e2 -3.5E-1\n+0.25 2.0e0\n")
    assert m.entries.tolist() == [[100.0, -0.35], [0.25, 2.0]]


def test_render_parse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = DenseMatrix(rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9))
        assert parse_matrix(render_matrix(m)) == m


# ---------------------------------------------------------- DenseMatrix

def test_dense_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DenseMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        DenseMatrix([[1.0, math.nan], [0.0, 1.0]])


def test_dense_matrix_is_immutable():
    m = DenseMatrix.identity(3)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_identity_and_equality():
    assert DenseMatrix.identity(2) == DenseMatrix([[1.0, 0.0], [0.0, 1.0]])
    assert DenseMatrix.identity(2) != DenseMatrix([[1.0, 0.0], [0.0, 2.0]])


# ------------------------------------------------------------ determinant

def test_determinant_identity():
    assert determinant(DenseMatrix.identity(4)) == 1.0


def test_determinant_triangular_reference(mat_a):
    assert determinant(mat_a) == pytest.approx(30.0, abs=1e-12)


def test_determinant_single_transposition():
    assert determinant(DenseMatrix([[0.0, 1.0], [1.0, 0.0]])) == -1.0


def test_determinant_rank_deficient_is_exact_zero():
    assert determinant(DenseMatrix([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(-9, 10, (n, n)).astype(float)
        ours = determinant(DenseMatrix(a))
        ref = cofactor_determinant(a)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_determinant_triangular_is_diagonal_product():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        t = np.triu(rng.uniform(-5, 5, (n, n)))
        ref = float(np.prod(np.diagonal(t)))
        assert determinant(DenseMatrix(t)) == pytest.approx(ref, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------- char_fn

def test_char_fn_reference_values(mat_a, mat_b):
    assert char_fn(mat_a, 0.0) == pytest.approx(-30.0, abs=1e-12)
    assert char_fn(mat_b, 0.1) == pytest.approx(-10.179, abs=1e-12)
    assert char_fn(mat_a, 3.0) == 0.0
    assert char_fn(mat_b, 3.0) == 0.0


def test_char_fn_exact_zero_on_inexact_grid_point():
    # 3 * 0.1 == 0.30000000000000004, a grid point one ulp off the
    # eigenvalue 0.3, where the unrounded determinant is about 6.6e-17.  The
    # singular tests of both paths must still return exactly 0.0: the QR
    # path on the triangular matrix, the Sturm path on the symmetric one.
    lam = 3 * 0.1
    tri = np.array([[0.3, 1.0, 4.0], [0.0, 1.0, 6.0], [0.0, 0.0, 2.0]])
    assert np.linalg.det(lam * np.eye(3) - tri) != 0.0
    assert char_fn(DenseMatrix(tri), lam) == 0.0
    sym = _rotated_symmetric(np.random.default_rng(3), [0.3, -2.0, -1.0, 1.0, 2.5, 4.0])
    assert _tridiagonal_form(DenseMatrix(sym)) is not None
    assert char_fn(DenseMatrix(sym), lam) == 0.0


def test_char_fn_matches_numpy_det():
    rng = np.random.default_rng(53)
    for n in (10, 30, 60):
        a = rng.normal(size=(n, n))
        m = DenseMatrix(a)
        for lam in rng.uniform(-3, 3, 5):
            ours = char_fn(m, lam)
            ref = float(np.linalg.det(lam * np.eye(n) - a))
            assert np.sign(ours) == np.sign(ref)
            assert ours == pytest.approx(ref, rel=1e-10)


def test_char_fn_symmetric_matches_numpy_det():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3, 10, 30):
        a = rng.normal(size=(n, n))
        a = a + a.T
        m = DenseMatrix(a)
        for lam in rng.uniform(-2 * n**0.5, 2 * n**0.5, 8):
            ours = char_fn(m, lam)
            ref = float(np.linalg.det(lam * np.eye(n) - a))
            assert np.sign(ours) == np.sign(ref)
            assert ours == pytest.approx(ref, rel=1e-9)


def test_char_fn_symmetric_on_grid_eigenvalues_are_exact_zeros():
    # Eigenvalues planted on scan grid points lo + k*step; rounding in the
    # rotation moves each by ~1e-16, and the QR path reads every one of
    # them as exactly singular.  The Sturm path must agree.
    rng = np.random.default_rng(67)
    lo, step = -3.0, 0.1
    for n, reps in ((4, 20), (10, 11), (30, 3)):
        for _ in range(reps):
            grid = [lo + int(k) * step for k in rng.choice(61, size=n, replace=False)]
            a = _rotated_symmetric(rng, grid)
            m = DenseMatrix(a)
            for lam in grid:
                assert char_fn(m, lam) == 0.0
                assert determinant(DenseMatrix(lam * np.eye(n) - a)) == 0.0


def test_tridiagonal_input_is_its_own_form(mat_b):
    # No reflector touches a column that is already zero below the
    # subdiagonal, so B's cached form is B itself, scaled by a power of two.
    form = _tridiagonal_form(mat_b)
    assert [d * form.scale for d in form.diag] == [3.0, 2.0, 3.0]
    assert [e2 * form.scale**2 for e2 in form.offdiag_sq] == [0.0, 1.0, 1.0]
    assert mat_b._tridiagonal is form


def test_char_fn_one_ulp_asymmetry_takes_qr_path():
    rng = np.random.default_rng(71)
    a = _rotated_symmetric(rng, [-1.0, 0.5, 2.0, 3.5])
    a[0, 1] = np.nextafter(a[0, 1], np.inf)
    m = DenseMatrix(a)
    assert _tridiagonal_form(m) is None
    for lam in (-2.0, 0.25, 1.0, 4.0):
        assert char_fn(m, lam) == determinant(DenseMatrix(lam * np.eye(4) - a))


def test_char_fn_at_eigenvalue_of_identity():
    assert char_fn(DenseMatrix.identity(2), 1.0) == 0.0


def test_char_fn_positive_above_upper_bound():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m = DenseMatrix(rng.uniform(-3, 3, (n, n)))
        upper = matrix_bounds(m).hi
        assert char_fn(m, upper + 1.0) > 0.0


def test_char_fn_triangular_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(20):
        t = np.triu(rng.uniform(-4, 4, (3, 3)))
        m = DenseMatrix(t)
        d = np.diagonal(t)
        for lam in rng.uniform(-6, 6, 5):
            ref = float((lam - d[0]) * (lam - d[1]) * (lam - d[2]))
            assert char_fn(m, lam) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_char_fn_rejects_non_finite_argument(mat_a):
    with pytest.raises(ValueError):
        char_fn(mat_a, math.nan)
    with pytest.raises(ValueError):
        char_fn(mat_a, math.inf)
