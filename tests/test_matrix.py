"""Matrix parsing and the characteristic function, the one determinant."""

import math
import operator
import pkgutil
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from common_eig import (
    DenseMatrix,
    GridScan,
    MatrixFormatError,
    RealInterval,
    char_fn,
    find_real_roots,
    matrix_bounds,
    parse_matrix,
)
import common_eig
import common_eig.matrix as matrix_module
from common_eig.matrix import (
    PIVOT_RTOL,
    _HESSENBERG_MAX_ORDER,
    _Tridiagonal,
    _char_form,
    _form_interval,
    _hessenberg,
    _hessenberg_det,
    _shifted_qr_det,
    _sturm_counts,
    _sturm_det,
)
from conftest import A_TEXT
from oracles import (
    SturmForm,
    cofactor_determinant,
    copying_hessenberg_det,
    exact_char_det,
    jacobi_eigenvalues,
    numpy_qr_det,
    scaled_sturm_det,
    token_walk_parse,
)


def _norm_inf(a):
    """||a||_inf, the norm in char_fn's singular rule."""
    return float(abs(a).sum(axis=1).max())


def _rotated_symmetric(rng, spectrum):
    """An exactly symmetric matrix with (up to rounding) the given spectrum."""
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q @ np.diag(spectrum) @ q.T
    return 0.5 * (m + m.T)


def _planted_general(rng, reals, pairs=0):
    """V*T*V^-1: T holds ``reals`` on its diagonal and ``pairs`` 2x2 rotation
    blocks (complex pairs off the real axis); V, an orthogonal times a unit
    upper triangular matrix, is well conditioned but not orthogonal, so the
    result is general and diagonalizable."""
    n = len(reals) + 2 * pairs
    t = np.zeros((n, n))
    t[range(len(reals)), range(len(reals))] = reals
    for i in range(len(reals), n, 2):
        a, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        t[i : i + 2, i : i + 2] = [[a, w], [-w, a]]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v = q @ (np.eye(n) + np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1))
    return v @ t @ np.linalg.inv(v)


# ---------------------------------------------------------------- parsing

def test_parse_minimal():
    m = parse_matrix("1\n7\n")
    assert m.order == 1
    assert m.entries[0, 0] == 7.0


def test_parse_reference_matrix():
    m = parse_matrix(A_TEXT)
    assert m.order == 3
    assert m.entries.tolist() == [[3, 1, 4], [0, 2, 6], [0, 0, 5]]


def _raises_format_error(message):
    return pytest.raises(MatrixFormatError, match=f"^{re.escape(message)}$")


def test_parse_ragged_row():
    with _raises_format_error("line 3: expected 2 values, found 1"):
        parse_matrix("2\n1 2\n3\n")


def test_parse_missing_rows():
    with _raises_format_error("expected 3 rows, found 2"):
        parse_matrix("3\n1 2 3\n4 5 6\n")


def test_parse_empty_input():
    with _raises_format_error("no matrix data found"):
        parse_matrix("")
    with _raises_format_error("no matrix data found"):
        parse_matrix("\n# only a comment\n   \n")


def test_parse_skips_comments_and_blanks():
    text = "# order\n\n2\n# rows follow\n1 2\n\n3 4\n"
    m = parse_matrix(text)
    assert m.entries.tolist() == [[1, 2], [3, 4]]


def test_parse_trailing_content():
    with _raises_format_error("unexpected content on line 4 after row 2"):
        parse_matrix("2\n1 2\n3 4\n5 6\n")


def test_parse_bad_token_reports_position():
    with _raises_format_error("line 2, column 3: 'x' is not a number") as exc_info:
        parse_matrix("2\n1 x\n3 4\n")
    assert exc_info.value.line == 2
    assert exc_info.value.column == 3


def test_format_error_is_a_value_error_that_keeps_its_position():
    with pytest.raises(ValueError) as exc_info:
        parse_matrix("1\nx\n")
    assert isinstance(exc_info.value, MatrixFormatError)
    assert exc_info.value.line == 2
    assert exc_info.value.column == 1
    assert common_eig.MatrixFormatError is matrix_module.MatrixFormatError


def test_package_exports_resolve_and_one_exception_type_remains():
    for name in common_eig.__all__:
        assert hasattr(common_eig, name), name
    exceptions = [
        name for name, value in vars(common_eig).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    ]
    assert exceptions == ["MatrixFormatError"]
    modules = {info.name for info in pkgutil.iter_modules(common_eig.__path__)}
    assert "errors" not in modules


def test_parse_bad_order_line():
    with _raises_format_error("line 1, column 1: 'two' is not a positive integer order"):
        parse_matrix("two\n1 2\n3 4\n")
    with _raises_format_error("line 1, column 1: '0' is not a positive integer order") as exc_info:
        parse_matrix("0\n")
    assert (exc_info.value.line, exc_info.value.column) == (1, 1)
    with _raises_format_error(
        "line 1, column 3: matrix order line must hold a single positive integer"
    ) as exc_info:
        parse_matrix("2 2\n1 2\n3 4\n")
    assert (exc_info.value.line, exc_info.value.column) == (1, 3)


def test_parse_rejects_non_finite():
    with _raises_format_error("line 2, column 1: non-finite value 'inf'") as exc_info:
        parse_matrix("1\ninf\n")
    assert (exc_info.value.line, exc_info.value.column) == (2, 1)
    with _raises_format_error("line 2, column 3: non-finite value 'nan'") as exc_info:
        parse_matrix("1\n  nan\n")
    assert (exc_info.value.line, exc_info.value.column) == (2, 3)


def test_parse_scientific_notation():
    m = parse_matrix("2\n1e2 -3.5E-1\n+0.25 2.0e0\n")
    assert m.entries.tolist() == [[100.0, -0.35], [0.25, 2.0]]


def test_render_parse_round_trip():
    rng = np.random.default_rng(7)
    matrices = [
        DenseMatrix(rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9))
        for n in rng.integers(1, 7, size=20).tolist()
    ]
    # -0.0, subnormals, the smallest normal and the largest finite doubles
    top = sys.float_info.max
    matrices.append(
        DenseMatrix(
            [[-0.0, 5e-324, -2.5e-310], [top, -top, sys.float_info.min], [0.0, -5e-324, 1.0]]
        )
    )
    for m in matrices:
        rows = (" ".join(repr(float(v)) for v in row) for row in m.entries)
        text = "\n".join([str(m.order), *rows]) + "\n"
        # bitwise: == reads -0.0 as 0.0
        assert parse_matrix(text).entries.tobytes() == m.entries.tobytes()


def _parse_outcome(parse, text):
    """(shape, entry bytes) of a parse, or (message, line, column) of the
    error."""
    try:
        entries = parse(text)
    except MatrixFormatError as exc:
        return str(exc), exc.line, exc.column
    return entries.shape, entries.tobytes()


def _library_parse(text):
    return parse_matrix(text).entries


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# mostly finite values, as shortest and as 17-digit reprs; now and then a
# token float() rejects, a non-finite one, or one float() reads in a way a
# regex for numbers might not (1_0 is 10.0, 1e-400 is 0.0)
_TOKENS = st.one_of(
    *[_FINITE.map(repr)] * 3,
    *[_FINITE.map("{:.17g}".format)] * 3,
    st.sampled_from(["1e999", "1e-400", "inf", "-inf", "nan", "x", "1_0"]),
)
# whitespace that str.splitlines() would take for a line break is still a
# separator within a line
_SEPARATORS = st.sampled_from(
    [" ", "\t", "\u00a0", " \t ", "\u00a0 ", "\f", "\v", "\x1c", "\x85", "\u2028"]
)
_FILLER = st.sampled_from(["", "   ", "\t", "\u00a0", "#", "# note", "  # 1 2 3"])


@st.composite
def _matrix_texts(draw):
    n = draw(st.integers(1, 4))
    lines = [draw(st.sampled_from([str(n), f" {n}\t", f"+{n}"]))]
    lines += draw(st.lists(_FILLER, max_size=2))
    # a missing row, extra rows, short, long and ragged rows
    for _ in range(n + draw(st.sampled_from([0] * 6 + [-1, 1, 2]))):
        width = n + draw(st.sampled_from([0] * 6 + [-1, 1]))
        sep = draw(_SEPARATORS)
        row = sep.join(draw(st.lists(_TOKENS, min_size=width, max_size=width)))
        lines.append(draw(st.sampled_from(["", sep])) + row + draw(st.sampled_from(["", sep])))
        lines += draw(st.lists(_FILLER, max_size=1))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=200, deadline=None)
@given(_matrix_texts())
def test_parse_matches_token_walk_oracle(text):
    assert _parse_outcome(_library_parse, text) == _parse_outcome(token_walk_parse, text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        # a sum of finite values that overflows is no error
        ("2\n1e308 1e308\n1 2\n", ((2, 2), np.array([[1e308, 1e308], [1, 2]]).tobytes())),
        ("2\ninf x\n1 2\n", ("line 2, column 1: non-finite value 'inf'", 2, 1)),
        ("2\nx inf\n1 2\n", ("line 2, column 1: 'x' is not a number", 2, 1)),
        (" 2\n 1\u00a0\tx\n1 2\n", ("line 2, column 5: 'x' is not a number", 2, 5)),
        # the first error in file order: row 2's value before row 3's length,
        # and a row's length before its values
        ("3\n1 2 3\n4 nan 6\n7 8\n", ("line 3, column 3: non-finite value 'nan'", 3, 3)),
        ("3\n1 2 3\n4 5 6\n7 1e999 9 1\n", ("line 4: expected 3 values, found 4", None, None)),
        # a form feed neither ends a line nor counts as one, as grep -n counts
        ("2\n1 2\n\f\n3 x\n", ("line 4, column 3: 'x' is not a number", 4, 3)),
        ("3\n1 2\f3\n4 5 6\n7 8 9\n", ((3, 3), np.arange(1.0, 10.0).reshape(3, 3).tobytes())),
    ],
)
def test_parse_pinned_cases(text, outcome):
    assert _parse_outcome(_library_parse, text) == outcome
    assert _parse_outcome(token_walk_parse, text) == outcome


@pytest.mark.parametrize("parse", [_library_parse, token_walk_parse])
def test_parse_drops_one_leading_byte_order_mark(parse):
    # as some editors save files: U+FEFF first, here before a comment too
    for text in (A_TEXT, "# note\n2\n1 2\n3 4\n"):
        assert _parse_outcome(parse, "\ufeff" + text) == _parse_outcome(parse, text)
    assert _parse_outcome(parse, "\ufeff\ufeff1\n2\n") == (
        # the message shows the token's repr, which escapes U+FEFF
        "line 1, column 1: '\\ufeff1' is not a positive integer order",
        1,
        1,
    )


# ---------------------------------------------------------- DenseMatrix

def test_dense_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DenseMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        DenseMatrix([[1.0, math.nan], [0.0, 1.0]])


def test_dense_matrix_is_immutable():
    m = DenseMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_identity_and_equality():
    assert DenseMatrix(np.eye(2)) == DenseMatrix([[1.0, 0.0], [0.0, 1.0]])
    assert DenseMatrix(np.eye(2)) != DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    # another type is not equal, through __eq__'s NotImplemented
    assert (DenseMatrix(np.eye(2)) == "x") is False


def test_repr_evaluates_to_an_equal_matrix():
    # -0.0, the smallest subnormal and a near-overflow entry survive repr
    m = DenseMatrix([[-0.0, 5e-324, 1e308], [-1e308, -5e-324, 0.1], [1.0, 2.0, 3.0]])
    back = eval(repr(m), {"DenseMatrix": DenseMatrix})
    assert back == m
    # bitwise: == reads -0.0 as 0.0
    assert back.entries.tobytes() == m.entries.tobytes()


# ------------------------------------------------------------ determinant
# char_fn is the package's one determinant: det(X) = char_fn(-X, 0.0).

def _unit_upper(n):
    return np.eye(n) + np.triu(np.ones((n, n)), 1)


def test_determinant_identity():
    # -I is symmetric; a unit upper triangular X is general, on either side
    # of _HESSENBERG_MAX_ORDER
    for x, kernel in (
        (np.eye(4), _sturm_det),
        (_unit_upper(4), _hessenberg_det),
        (_unit_upper(12), _shifted_qr_det),
    ):
        m = DenseMatrix(-x)
        assert _char_form(m).func is kernel
        assert char_fn(m, 0.0) == 1.0


def test_determinant_triangular_reference(mat_a):
    assert char_fn(DenseMatrix(-mat_a.entries), 0.0) == pytest.approx(30.0, abs=1e-12)


def test_determinant_single_transposition():
    assert char_fn(DenseMatrix([[0.0, -1.0], [-1.0, 0.0]]), 0.0) == -1.0
    # the general kernels: a swap of rows 0 and 1 of a unit upper triangular X
    for n, kernel in ((3, _hessenberg_det), (12, _shifted_qr_det)):
        m = DenseMatrix(-_unit_upper(n)[[1, 0, *range(2, n)]])
        assert _char_form(m).func is kernel
        assert char_fn(m, 0.0) == pytest.approx(-1.0, rel=1e-12)


def test_determinant_rank_deficient_is_exact_zero():
    assert char_fn(DenseMatrix([[1.0, 2.0], [2.0, 4.0]]), 0.0) == 0.0
    # the general kernels: a repeated column
    rng = np.random.default_rng(37)
    for n, kernel in ((3, _hessenberg_det), (12, _shifted_qr_det)):
        a = rng.normal(size=(n, n))
        a[:, -1] = a[:, 0]
        m = DenseMatrix(a)
        assert _char_form(m).func is kernel
        assert char_fn(m, 0.0) == 0.0


def test_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(-9, 10, (n, n)).astype(float)
        ours = char_fn(DenseMatrix(-a), 0.0)
        ref = cofactor_determinant(a)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_determinant_triangular_is_diagonal_product():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        t = np.triu(rng.uniform(-5, 5, (n, n)))
        ref = float(np.prod(np.diagonal(t)))
        assert char_fn(DenseMatrix(-t), 0.0) == pytest.approx(ref, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------- char_fn

def test_char_fn_reference_values(mat_a, mat_b):
    assert char_fn(mat_a, 0.0) == pytest.approx(-30.0, abs=1e-12)
    assert char_fn(mat_b, 0.1) == pytest.approx(-10.179, abs=1e-12)
    assert char_fn(mat_a, 3.0) == 0.0
    assert char_fn(mat_b, 3.0) == 0.0


def test_char_fn_exact_zero_on_inexact_grid_point():
    # 3 * 0.1 == 0.30000000000000004, a grid point one ulp off the
    # eigenvalue 0.3, where the unrounded determinant is about 6.6e-17.  The
    # singular tests of all three paths must still return exactly 0.0: the
    # elimination path on the 3x3 triangular matrix, the QR path on a
    # triangular matrix above _HESSENBERG_MAX_ORDER, the Sturm path on the
    # symmetric one.
    lam = 3 * 0.1
    tri = np.array([[0.3, 1.0, 4.0], [0.0, 1.0, 6.0], [0.0, 0.0, 2.0]])
    assert np.linalg.det(lam * np.eye(3) - tri) != 0.0
    assert _char_form(DenseMatrix(tri)).func is _hessenberg_det
    assert char_fn(DenseMatrix(tri), lam) == 0.0
    n = _HESSENBERG_MAX_ORDER + 1
    big = np.triu(np.random.default_rng(5).uniform(-3.0, 3.0, (n, n)))
    big[0, 0] = 0.3
    assert np.linalg.det(lam * np.eye(n) - big) != 0.0
    form = _char_form(DenseMatrix(big))
    assert form.func is _shifted_qr_det
    _, _, norm, _ = form.args
    assert norm == float(abs(big).sum(axis=1).max())
    assert char_fn(DenseMatrix(big), lam) == 0.0
    sym = _rotated_symmetric(np.random.default_rng(3), [0.3, -2.0, -1.0, 1.0, 2.5, 4.0])
    assert _char_form(DenseMatrix(sym)).func is _sturm_det
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
                shifted = lam * np.eye(n) - a
                assert numpy_qr_det(shifted, _norm_inf(shifted)) == 0.0


def test_tridiagonal_input_is_its_own_form(mat_b):
    # No reflector touches a column that is already zero below the
    # subdiagonal, so B's cached form is B itself, scaled by a power of two.
    evaluator = _char_form(mat_b)
    assert evaluator.func is _sturm_det
    (form,) = evaluator.args
    assert [(d * form.scale, e2 * form.scale**2) for d, e2 in form.pairs] == [
        (3.0, 0.0),
        (2.0, 1.0),
        (3.0, 1.0),
    ]
    assert 2.0**form.exponent == form.scale**3
    assert mat_b._form is evaluator


def test_char_fn_one_ulp_asymmetry_takes_qr_path():
    # Above _HESSENBERG_MAX_ORDER a matrix one ulp from symmetric is
    # general: a QR of the shifted Hessenberg form, which agrees with the
    # determinant of lam*I - M in sign and, where that is well conditioned,
    # to rounding.
    n = _HESSENBERG_MAX_ORDER + 1
    rng = np.random.default_rng(71)
    a = _rotated_symmetric(rng, np.linspace(-1.0, 3.5, n))
    a[0, 1] = np.nextafter(a[0, 1], np.inf)
    m = DenseMatrix(a)
    form = _char_form(m)
    assert form.func is _shifted_qr_det
    _, _, norm, _ = form.args
    assert norm == float(abs(a).sum(axis=1).max())
    for lam in (-2.0, 0.25, 1.0, 4.0):
        shifted = lam * np.eye(n) - a
        ref = numpy_qr_det(shifted, _norm_inf(shifted))
        assert np.sign(char_fn(m, lam)) == np.sign(ref)
        if np.linalg.cond(shifted) < 1e3:
            assert char_fn(m, lam) == pytest.approx(ref, rel=1e-12)


def test_char_fn_one_ulp_asymmetry_takes_hessenberg_path():
    # The same at order 4, below the switch: Hessenberg, so the values
    # agree with the determinant in sign and to rounding, not bitwise.
    rng = np.random.default_rng(71)
    a = _rotated_symmetric(rng, [-1.0, 0.5, 2.0, 3.5])
    a[0, 1] = np.nextafter(a[0, 1], np.inf)
    m = DenseMatrix(a)
    assert _char_form(m).func is _hessenberg_det
    for lam in (-2.0, 0.25, 1.0, 4.0):
        shifted = lam * np.eye(4) - a
        ref = numpy_qr_det(shifted, _norm_inf(shifted))
        assert np.sign(char_fn(m, lam)) == np.sign(ref)
        assert char_fn(m, lam) == pytest.approx(ref, rel=1e-12)


def test_char_fn_is_determinant_of_shifted_matrix():
    # char_fn factors lam*I - G for a Hessenberg G with the characteristic
    # polynomial of M, by elimination up to _HESSENBERG_MAX_ORDER and by QR
    # above it: the same value as the determinant of lam*I - M to rounding
    # wherever that is well conditioned (away from eigenvalues).
    rng = np.random.default_rng(73)
    for n in list(range(1, _HESSENBERG_MAX_ORDER + 2)) + [17, 30, 60]:
        a = rng.normal(size=(n, n))
        m = DenseMatrix(a)
        for lam in (*rng.uniform(-4, 4, 4), -0.5, 0.5):
            ours = char_fn(m, lam)
            shifted = lam * np.eye(n) - a
            ref = numpy_qr_det(shifted, _norm_inf(shifted))
            if np.linalg.cond(shifted) < 1e3:
                assert np.sign(ours) == np.sign(ref)
                assert ours == pytest.approx(ref, rel=1e-12)


def test_char_fn_agrees_with_determinant_on_exact_zeros():
    # Exact zero entries, which can leave reflectors out of the reduction
    # or steer them by the sign of a zero: the values still agree with the
    # determinant in sign, to rounding where lam*I - M is well conditioned,
    # and within a relative error of 1e-15 * cond elsewhere.
    rng = np.random.default_rng(79)
    mats = []
    for n in (2, 3, 5, 8, 12):
        mats.append(np.triu(rng.uniform(-3, 3, (n, n))))
        mats.append(np.tril(rng.uniform(-3, 3, (n, n))))
        block = rng.uniform(-3, 3, (n, n))
        block[: n // 2, n // 2 :] = 0.0
        block[rng.uniform(size=(n, n)) < 0.3] = 0.0
        mats.append(block)
    for a in mats:
        m = DenseMatrix(a)
        n = m.order
        for lam in rng.uniform(-4, 4, 6):
            ours = char_fn(m, lam)
            shifted = lam * np.eye(n) - a
            ref = numpy_qr_det(shifted, _norm_inf(shifted))
            cond = np.linalg.cond(shifted)
            assert np.sign(ours) == np.sign(ref)
            assert ours == pytest.approx(ref, rel=max(1e-12, 1e-15 * cond))


def test_char_fn_reduces_a_column_whose_squares_underflow():
    # Column 0 below the diagonal is (0, 1e-170): its squared norm underflows
    # to 0, yet it still needs a reflector, on both reducing paths.
    a = np.array([[1.0, 0.0, 1e-170], [0.0, 2.0, 0.0], [1e-170, 0.0, 3.0]])
    general = a.copy()
    general[0, 2] = 4.0
    for entries in (a, general):
        m = DenseMatrix(entries)
        for lam in (0.5, 1.5, 2.5, 3.5):
            ref = float(np.linalg.det(lam * np.eye(3) - entries))
            assert char_fn(m, lam) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert _char_form(DenseMatrix(a)).func is _sturm_det
    assert _char_form(DenseMatrix(general)).func is _hessenberg_det


@pytest.mark.parametrize("path", ["qr", "hessenberg", "sturm"])
def test_char_fn_fills_its_cache_slot_once(monkeypatch, path):
    # The Hessenberg form of a general matrix, as one array above
    # _HESSENBERG_MAX_ORDER and by rows at or below it, the tridiagonal form
    # of a symmetric one: computed on the first call, then read; the entries
    # stay as given.
    name = "_tridiagonalize" if path == "sturm" else "_hessenberg"
    calls = []
    compute = getattr(matrix_module, name)
    monkeypatch.setattr(matrix_module, name, lambda a: calls.append(a) or compute(a))
    a = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0], [-1.0, 4.0, 2.0]])
    if path == "qr":
        # block diagonal copies of a: the same row sums, above the switch
        a = np.kron(np.eye(_HESSENBERG_MAX_ORDER // 3 + 1), a)
    if path == "sturm":
        a = a + a.T
    m = DenseMatrix(a)
    assert m._form is None
    values = [char_fn(m, lam) for lam in (-1.0, 0.25, 3.0)]
    form = m._form
    assert len(calls) == 1
    if path == "qr":
        # -G^T, C-contiguous: -G in the column-major layout LAPACK reads
        neg_t, lwork, norm, bound = form.args
        assert form.func is _shifted_qr_det and norm == 7.0
        assert neg_t.flags.c_contiguous and np.array_equal(neg_t, compute(a).T)
        assert lwork >= a.shape[0]
        assert bound == max(norm, float(abs(neg_t.diagonal()).max()))
    elif path == "hessenberg":
        assert form.func is _hessenberg_det and form.args[2] == 7.0
    else:
        assert form.func is _sturm_det
    assert [char_fn(m, lam) for lam in (-1.0, 0.25, 3.0)] == values
    assert len(calls) == 1
    assert m._form is form
    assert not m.entries.flags.writeable
    assert np.array_equal(m.entries, a)


def test_hessenberg_input_is_its_own_form(mat_a):
    # No reflector touches a column that is already zero below the
    # subdiagonal, so the triangular A's cached form holds -J*A^T*J, A
    # transposed with its index order reversed.
    form = _char_form(mat_a)
    assert form.func is _hessenberg_det
    head, rows, norm, bound = form.args
    assert head == (-5.0, -6.0, [-4.0])
    assert rows == [(0.0, -2.0, [-1.0]), (0.0, -3.0, [])]
    assert norm == bound == 8.0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, _HESSENBERG_MAX_ORDER),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
    on_grid=st.booleans(),
)
def test_hessenberg_det_matches_the_copying_loop_bitwise(n, seed, exponent, on_grid):
    # The split rows do the copying loop's float operations in its order,
    # so every value is the same to the bit: exact zeros at eigenvalues
    # planted on the grid, the signs that row swaps set (most of these lam
    # swap rows of a random matrix), and products that underflow or
    # overflow at scale.
    rng = np.random.default_rng(seed)
    if on_grid:
        a = _on_grid_general(rng, n, 1, -3.0, 0.1)[0].entries
    else:
        a = rng.normal(size=(n, n))
    lams = [-3.0 + k * 0.1 for k in range(61)] + rng.uniform(-4.0, 4.0, 20).tolist()
    for s in (1.0, 10.0**exponent):
        m = DenseMatrix(a * s)
        assert _char_form(m).func is _hessenberg_det
        neg = _hessenberg(m.entries)
        rows = [neg[k, k - 1 :].tolist() for k in range(1, n)]
        args = neg[0].tolist(), rows, _norm_inf(m.entries)
        for lam in lams:
            ours = char_fn(m, lam * s)
            assert ours.hex() == copying_hessenberg_det(*args, lam * s).hex()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
    shape=st.sampled_from(["random", "on_grid", "zero_pivot", "diagonal"]),
)
@example(n=40, seed=0, exponent=300, shape="random")
@example(n=6, seed=0, exponent=-150, shape="diagonal")
@example(n=1, seed=0, exponent=100, shape="diagonal")
@example(n=40, seed=0, exponent=-300, shape="on_grid")
@example(n=4, seed=0, exponent=-262, shape="random")
@example(n=2, seed=0, exponent=0, shape="zero_pivot")
# Each outcome of the negative-count bookkeeping: on the grid, lam within
# eps below an eigenvalue (n = 1), and within eps above one (n = 2); the
# zero matrix at lam = 0, where eps = 0 and the pivot lies inside
# (-pivmin, pivmin) on the lo pass and on the hi pass.  The example above
# has a pivot negative on the hi pass where the lo pass's is not, and every
# example has pivots negative on both passes.
@example(n=1, seed=0, exponent=-200, shape="on_grid")
@example(n=2, seed=0, exponent=150, shape="on_grid")
@example(n=1, seed=0, exponent=0, shape="zero_pivot")
def test_sturm_det_matches_the_scaled_pivot_product_bitwise(n, seed, exponent, shape):
    # The unit-scale pivot product with scale**n put into its exponent once
    # gives the values of the pass that multiplied every pivot by the scale,
    # to the bit: exact zeros at eigenvalues planted on the grid, a first
    # pivot of exactly 0 at lam = 0, and products that leave the normal
    # range at scale 2**exponent: inf at order 40 and 2**300, the smallest
    # subnormal at 2**-300, and subnormals rounded by the scaled product
    # at order 4 and 2**-262.  Points within 4 eps of either end of the
    # form interval, on both sides, reach from 2 eps inside T's Gerschgorin
    # interval to 6 eps outside it; a diagonal T has its extreme eigenvalues
    # on the ends of that.
    rng = np.random.default_rng(seed)
    if shape == "on_grid":
        ks = 1 + rng.choice(59, size=n, replace=False)
        a = _rotated_symmetric(rng, [-3.0 + int(k) * 0.1 for k in ks])
    elif shape == "diagonal":
        a = np.diag(rng.normal(size=n))
    else:
        x = rng.normal(size=(n, n))
        a = x + x.T
        if shape == "zero_pivot":
            a[0, 0] = 0.0
    lams = [-3.0 + k * 0.1 for k in range(61)] + rng.uniform(-8.0, 8.0, 20).tolist() + [0.0]
    offsets = [*range(-4, 5), *rng.uniform(-4.0, 4.0, 8).tolist()]
    for s in (1.0, 2.0**exponent):
        m = DenseMatrix(a * s)
        evaluator = _char_form(m)
        assert evaluator.func is _sturm_det
        (form,) = evaluator.args
        diag, offdiag_sq = (list(column) for column in zip(*form.pairs))
        old = SturmForm(diag, offdiag_sq, form.norm, form.scale, form.pivmin)
        for lam in lams:
            assert char_fn(m, lam * s).hex() == scaled_sturm_det(old, lam * s).hex()
        for end in _form_interval(m):
            eps = PIVOT_RTOL * (abs(end) + form.norm * form.scale)
            for k in offsets:
                lam = end + k * eps
                assert char_fn(m, lam).hex() == scaled_sturm_det(old, lam).hex()


def test_sturm_det_keeps_its_bits_where_the_unit_product_underflows():
    # Eigenvalues 1 + k*2**-40 (k = -14..13) read at mu = 1 + 2**-41: each
    # pivot mu - d_k is a few 2**-40, more than eps from every eigenvalue,
    # and their product, about -1.3e-317, is subnormal, with bits lost.
    # Scaled by 2**40 the determinant is a normal float, -0x1.3c4391...p+67,
    # which only the product of the scaled pivots gives to the bit.
    d = np.array([1.0 + k * 2.0**-40 for k in range(-14, 14)])
    mu = 1.0 + 2.0**-41
    for s in (2.0**40, 2.0**-40, 2.0**600):
        m = DenseMatrix(np.diag(d * s))
        form = _char_form(m).args[0]
        old = SturmForm(d.tolist(), [0.0] * len(d), form.norm, form.scale, form.pivmin)
        assert char_fn(m, mu * s).hex() == scaled_sturm_det(old, mu * s).hex()
    m = DenseMatrix(np.diag(d * 2.0**40))
    assert char_fn(m, mu * 2.0**40).hex() == "-0x1.3c43915f3376ap+67"


@pytest.mark.parametrize("case", ["lo-pass", "hi-pass", "hi-pass-alone"])
def test_sturm_det_clamps_a_vanishing_pivot_on_one_pass(case):
    # A pivot exactly 0 on the lo pass (mu - eps), or on the hi pass
    # (mu + eps) where the lo pass's pivot is negative, or positive: only
    # its clamp, to -pivmin on the lo pass and +pivmin on the hi pass,
    # keeps the next e^2/q finite and decides the sign of the next pivot,
    # so the negative counts, which agree here.  The value is the nonzero
    # pivot product of the pass that clamped as the scaled one did.
    mu = norm = 1.0
    eps = PIVOT_RTOL * (mu + norm)
    lo, hi = mu - eps, mu + eps
    if case == "lo-pass":
        pairs = [(lo, 0.0), (0.0, 1.0)]
    elif case == "hi-pass":
        pairs = [(hi, 0.0), (0.0, 1.0)]
    else:
        # 4*(hi - mu) / (hi - mu) is 4 exactly, and so is hi - d1: the
        # second pivot on the hi pass is hi - d1 - 4 = 0, on the lo pass
        # about 8.
        d1 = hi - 4.0
        assert hi - d1 == 4.0
        pairs = [(mu, 0.0), (d1, 4.0 * (hi - mu)), (0.0, 1.0)]
    pivmin = math.sqrt(sys.float_info.min)
    form = _Tridiagonal(pairs, norm, 1.0, 0, pivmin)
    diag, offdiag_sq = (list(column) for column in zip(*pairs))
    value = _sturm_det(form, mu)
    assert value != 0.0
    assert value.hex() == scaled_sturm_det(SturmForm(diag, offdiag_sq, norm, 1.0, pivmin), mu).hex()


def _handovers(form, lam):
    """``_sturm_det(form, lam)`` and the pivots, counted from 1, at which its
    phase 1 handed over to ``_sturm_counts``."""
    taken = []

    def spy(pairs, *rest):
        taken.append(len(form.pairs) - operator.length_hint(pairs))
        return _sturm_counts(pairs, *rest)

    with mock.patch.object(matrix_module, "_sturm_counts", spy):
        return _sturm_det(form, lam), taken


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from([-300, 0, 300]),
)
def test_sturm_det_hands_over_at_an_eigenvalue_of_a_leading_block(n, seed, exponent):
    # At an eigenvalue mu of T's leading block T_k (k = 1, a middle k and
    # n - 1) the k-th pivot changes sign between mu - eps and mu + eps, so
    # phase 1 hands over there, and the value is the scaled pivot product
    # to the bit.  Where mu is well apart from every eigenvalue of T and
    # of the blocks before T_k, the handover is at pivot k, the counts
    # return to 0 and the value is nonzero.  A block's eigenvector can have
    # a last entry near 0, and then T or T_k-1 has an eigenvalue within
    # 1e-14 of mu (about 1 in 1000 such mu here): that mu is a root of T
    # by the singular rule, or the handover comes earlier.
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n)
    e = rng.uniform(0.5, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    m = DenseMatrix(a * 2.0**exponent)
    form = _char_form(m).args[0]
    diag, offdiag_sq = (list(column) for column in zip(*form.pairs))
    old = SturmForm(diag, offdiag_sq, form.norm, form.scale, form.pivmin)
    off = np.sqrt(offdiag_sq[1:])
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    apart = 0
    for k in sorted({1, n // 2, n - 1}):
        others = np.concatenate([np.linalg.eigvalsh(t[:j, :j]) for j in [*range(1, k), n]])
        for mu in np.linalg.eigvalsh(t[:k, :k]).tolist():
            lam = mu * form.scale
            value, taken = _handovers(form, lam)
            assert value.hex() == scaled_sturm_det(old, lam).hex()
            assert taken and taken[0] <= k
            if np.min(np.abs(others - mu)) > 1e-9:
                apart += 1
                assert taken == [k]
                assert value != 0.0
    assert apart


@pytest.mark.parametrize("exponent", [-300, 0, 300])
@pytest.mark.parametrize(
    "a, lam, expected",
    [
        # 2 is an eigenvalue of T_1 = [2] but not of T: det(2I - M) = -1
        ([[2.0, 1.0], [1.0, 2.0]], 2.0, -1.0),
        # the one eigenvalue, of multiplicity n, where every pivot is 0
        (np.zeros((5, 5)), 0.0, 0.0),
        (np.eye(5), 1.0, 0.0),
    ],
)
def test_sturm_det_hands_over_at_the_first_pivot(a, lam, expected, exponent):
    s = 2.0**exponent
    m = DenseMatrix(np.asarray(a) * s)
    form = _char_form(m).args[0]
    diag, offdiag_sq = (list(column) for column in zip(*form.pairs))
    old = SturmForm(diag, offdiag_sq, form.norm, form.scale, form.pivmin)
    value, taken = _handovers(form, lam * s)
    assert taken == [1]
    assert value == expected * s * s
    assert value.hex() == scaled_sturm_det(old, lam * s).hex()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["random", "diagonal", "zero", "order_one"])
def test_tridiagonal_interval_holds_the_spectrum(shape, seed):
    # A symmetric matrix's form interval is T's Gerschgorin interval moved
    # out by 2 eps, in lam.  It is the same at every scale 2**k, and T's
    # eigenvalues, by Jacobi rotations of the T the form holds, lie in it.
    # Where T is diagonal (the zero matrix and order 1 too), its extreme
    # eigenvalues are the ends of T's interval, so each lies within the
    # margin of an end: the zero matrix's interval is the point 0.
    rng = np.random.default_rng(seed)
    n = 1 if shape == "order_one" else int(rng.integers(2, 13))
    if shape == "zero":
        a = np.zeros((n, n))
    elif shape == "random":
        x = rng.normal(size=(n, n))
        a = x + x.T
    else:
        a = np.diag(rng.normal(size=n))
    m = DenseMatrix(a)
    lo, hi = _form_interval(m)
    for k in (-300, -1, 7, 300):
        scaled = _form_interval(DenseMatrix(a * 2.0**k))
        assert (scaled[0] * 2.0**-k, scaled[1] * 2.0**-k) == (lo, hi)
    form = _char_form(m).args[0]
    diag, offdiag_sq = (np.array(column) for column in zip(*form.pairs))
    off = np.sqrt(offdiag_sq[1:])
    eigs = jacobi_eigenvalues(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) * form.scale
    assert lo <= eigs[0] <= eigs[-1] <= hi
    if shape != "random":
        for end, eig in ((lo, eigs[0]), (hi, eigs[-1])):
            assert abs(end - eig) <= 3.0 * PIVOT_RTOL * (abs(end) + form.norm * form.scale)
    if shape == "zero":
        assert (lo, hi) == (0.0, 0.0)


def test_char_fn_reads_zero_just_outside_the_tridiagonal_interval():
    # diag(1, 2, 3) is T = diag(0.5, 1, 1.5) at scale 2, with eigenvalues on
    # both ends of its interval [0.5, 1.5].  lam = 3 + 2e-13 and 1 - 2e-13
    # lie just outside it, but within eps = 1e-13 * (|mu| + ||T||_inf) of an
    # eigenvalue, so the count passes at mu -+ eps read exactly 0.0 there,
    # where the pivot product alone reads +-4e-13.
    m = DenseMatrix(np.diag([1.0, 2.0, 3.0]))
    form = _char_form(m).args[0]
    assert (form.pairs, form.scale) == ([(0.5, 0.0), (1.0, 0.0), (1.5, 0.0)], 2.0)
    for lam in (3.0 + 2e-13, 1.0 - 2e-13):
        assert not 0.5 <= lam / form.scale <= 1.5
        assert char_fn(m, lam) == 0.0


def _window_family(rng, family, n):
    """A matrix of order n from one of the families the form interval is
    checked on."""
    if family == "dense":
        return rng.normal(size=(n, n))
    if family == "triangular":
        return np.triu(rng.normal(size=(n, n)))
    if family == "block_diagonal":
        # blocks of order 1 to 3, so G has zero subdiagonal entries
        a = np.zeros((n, n))
        k = 0
        while k < n:
            size = min(n - k, int(rng.integers(1, 4)))
            a[k : k + size, k : k + size] = rng.normal(size=(size, size))
            k += size
        return a
    if family == "ill_conditioned":
        # X*D*X^-1 with cond(X) = 1e6: eigenvalues far more sensitive than
        # the entries
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        x = q1 @ np.diag(np.logspace(0.0, -6.0, n)) @ q2
        return x @ np.diag(rng.normal(size=n)) @ np.linalg.inv(x)
    if family == "symmetric":
        x = rng.normal(size=(n, n))
        return x + x.T
    if family == "diagonal":
        return np.diag(rng.normal(size=n))
    if family == "normal":
        # Q*D*Q^T for D block diagonal with 1x1 entries and [[a, b], [-b, a]]
        # blocks whose a lie between the real eigenvalues: H = (M + M^T)/2
        # is Q*diag(reals, a, a)*Q^T, so the ends of M's Bendixson interval
        # are real eigenvalues, and char_fn has a zero on each
        pairs = int(rng.integers(0, n // 2 + 1))
        reals = rng.normal(size=n - 2 * pairs)
        d = np.diag(np.append(reals, np.zeros(2 * pairs)))
        lo, hi = (reals.min(), reals.max()) if len(reals) else (-1.0, 1.0)
        for k in range(len(reals), n, 2):
            a, b = rng.uniform(lo, hi), rng.normal()
            d[k : k + 2, k : k + 2] = [[a, b], [-b, a]]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q @ d @ q.T
    # Jordan-like: Jordan blocks on two eigenvalues, as they are or rotated
    # by an orthogonal similarity
    values = rng.normal(size=2)
    j = np.diag(values[rng.integers(0, 2, n)]) + np.diag((rng.random(n - 1) < 0.8) * 1.0, 1)
    if rng.random() < 0.5:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        j = q @ j @ q.T
    return j


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(
        ["dense", "triangular", "block_diagonal", "ill_conditioned", "symmetric", "diagonal",
         "jordan", "normal"]
    ),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
)
@example(family="symmetric", n=5, seed=0, exponent=0)
@example(family="dense", n=_HESSENBERG_MAX_ORDER, seed=0, exponent=-300)
@example(family="dense", n=_HESSENBERG_MAX_ORDER + 1, seed=0, exponent=300)
@example(family="normal", n=2, seed=1, exponent=0)
def test_char_fn_keeps_the_monic_sign_outside_the_form_interval(family, n, seed, exponent):
    # The scan skips the grid points outside _form_interval, so char_fn must
    # read nonzero there, positive above and of sign (-1)**n below, on all
    # three kernels (Sturm, elimination up to _HESSENBERG_MAX_ORDER, QR
    # above it) and at every scale: at the ends, one ulp out, and from
    # 2**-40 to 4 times |end| + ||M||_inf out.
    m = DenseMatrix(_window_family(np.random.default_rng(seed), family, n) * 2.0**exponent)
    lo, hi = _form_interval(m)
    norm = _norm_inf(m.entries)
    for end, out, sign in ((lo, -math.inf, (-1.0) ** n), (hi, math.inf, 1.0)):
        assert not math.isinf(end)
        reach = math.copysign(abs(end) + norm, out)
        points = [end, math.nextafter(end, out)] + [end + 2.0**k * reach for k in range(-40, 3)]
        for lam in points:
            assert char_fn(m, lam) * sign > 0.0, (lam, char_fn(m, lam))


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(
        ["dense", "triangular", "block_diagonal", "ill_conditioned", "jordan", "normal"]
    ),
    n=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from([-300, 300]),
)
@example(family="normal", n=_HESSENBERG_MAX_ORDER + 1, seed=0, exponent=300)
def test_general_form_interval_holds_every_real_eigenvalue(family, n, seed, exponent):
    # A general matrix's form interval is M's Bendixson interval moved out
    # by the margin: it holds every real eigenvalue numpy finds, and it is
    # the same at every scale 2**k.
    a = _window_family(np.random.default_rng(seed), family, n)
    assume(not np.array_equal(a, a.T))
    lo, hi = _form_interval(DenseMatrix(a))
    m = DenseMatrix(a * 2.0**exponent)
    scaled = _form_interval(m)
    assert (scaled[0] * 2.0**-exponent, scaled[1] * 2.0**-exponent) == (lo, hi)
    eigs = np.linalg.eigvals(m.entries)
    for lam in eigs[eigs.imag == 0.0].real:
        assert scaled[0] < lam < scaled[1]


def test_reference_a_form_interval_is_its_bendixson_interval(mat_a):
    # The triangular A (eigenvalues 2, 3, 5) has H = (A + A^T)/2 with
    # eigenvalues about -0.0140 and 7.6865, well inside A's own Gerschgorin
    # interval [-4, 8].
    lo, hi = _form_interval(mat_a)
    assert (lo, hi) == pytest.approx((-0.01397, 7.6865), abs=1e-4)


def test_form_interval_holds_the_zeros_just_outside_the_tridiagonal_interval():
    # diag(1, 2, 3) reads exactly 0.0 at 3 + 2e-13 and 1 - 2e-13, just
    # outside T's Gerschgorin interval [1, 3]: the form interval holds them,
    # and it is computed once, with the reduction, without an evaluation.
    m = DenseMatrix(np.diag([1.0, 2.0, 3.0]))
    lo, hi = _form_interval(m)
    assert m._form is not None
    assert lo < 1.0 - 2e-13 and 3.0 + 2e-13 < hi
    assert hi - 3.0 < 1e-11 and 1.0 - lo < 1e-11
    assert _form_interval(m) is m._ends


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["symmetric", "dense", "triangular"]),
    n=st.integers(1, 8),
    halves=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
)
@example(family="triangular", n=8, halves=True, seed=0, exponent=0)
@example(family="symmetric", n=8, halves=True, seed=1, exponent=-300)
def test_char_fn_agrees_with_the_exact_determinant(family, n, halves, seed, exponent):
    # Against det(lam*I - M) in exact rational arithmetic, on all three
    # kernels' inputs at order 8 and below: char_fn reads exactly 0.0
    # wherever the exact determinant is 0, and has its sign wherever
    # lam*I - M is far from singular, sigma_min > 1e-6 * (|lam| + ||M||_inf).
    # Entries that are multiples of 1/2, and lam at the diagonal entries
    # and on the half-integers, give exact zeros: every diagonal entry of a
    # triangular matrix is an eigenvalue.  At scale s = 2**exponent the
    # exact determinant is that of the unscaled inputs times s**n, exactly.
    rng = np.random.default_rng(seed)
    if halves:
        x = rng.integers(-6, 7, size=(n, n)) / 2.0
    else:
        x = rng.normal(size=(n, n))
    if family == "symmetric":
        x = np.triu(x) + np.triu(x, 1).T
    elif family == "triangular":
        x = np.triu(x)
    norm = _norm_inf(x)
    lams = {*np.diag(x).tolist(), *(rng.integers(-8, 9, 4) / 2.0).tolist()}
    lams.update(rng.uniform(-norm - 1.0, norm + 1.0, 3).tolist())
    s = 2.0**exponent
    m = DenseMatrix(x * s)
    for lam in sorted(lams):
        exact = exact_char_det(x, lam)
        value = char_fn(m, lam * s)
        if exact == 0:
            assert value == 0.0, lam
        elif np.linalg.svd(lam * np.eye(n) - x, compute_uv=False)[-1] > 1e-6 * (abs(lam) + norm):
            assert value != 0.0 and (value > 0.0) == (exact > 0), (lam, value, exact)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, _HESSENBERG_MAX_ORDER + 4),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
    lam=st.floats(-4.0, 4.0),
)
def test_char_fn_sign_and_value_at_every_scale(n, seed, exponent, lam):
    # det(s*lam*I - s*A) = s**n * det(lam*I - A) for a general A and
    # s = 10**exponent, on both sides of the Hessenberg/QR switch.  The value
    # has the sign of the unscaled determinant at every scale and, where
    # s**n * det(lam*I - A) is a normal float64, its value to rounding.
    # lam*I - A is kept well conditioned: away from the eigenvalues.
    a = np.random.default_rng(seed).normal(size=(n, n))
    shifted = lam * np.eye(n) - a
    assume(np.linalg.cond(shifted) < 1e4)
    sign, logdet = np.linalg.slogdet(shifted)
    s = 10.0**exponent
    ours = char_fn(DenseMatrix(a * s), lam * s)
    assert np.sign(ours) == sign
    log_expected = logdet + n * exponent * math.log(10.0)
    if math.log(sys.float_info.min) < log_expected < math.log(sys.float_info.max):
        assert ours == pytest.approx(sign * math.exp(log_expected), rel=1e-9, abs=0.0)


def _on_grid_general(rng, n, multiplicity, lo, step):
    """A general matrix of order n with real eigenvalues, each of the given
    multiplicity, on distinct interior grid points lo + k*step (k = 1..59),
    beside complex pairs, at least as many as leave at most 59 on-grid
    reals; any real left over sits past lo + 61*step.  Returns the
    DenseMatrix and its on-grid eigenvalues."""
    fewest = max(0, (n - 59 * multiplicity + 1) // 2)
    pairs = int(rng.integers(fewest, (n - multiplicity) // 2 + 1))
    count = (n - 2 * pairs) // multiplicity
    grid = [lo + int(k) * step for k in 1 + rng.choice(59, size=count, replace=False)]
    reals = [x for x in grid for _ in range(multiplicity)]
    reals += [lo + step * 61 + 1.0] * (n - 2 * pairs - len(reals))
    return DenseMatrix(_planted_general(rng, reals, pairs)), grid


@pytest.mark.parametrize("multiplicity", [1, 2], ids=["simple", "double"])
def test_on_grid_eigenvalues_of_small_general_matrices_are_found(multiplicity):
    # Real eigenvalues planted on interior scan grid points, beside complex
    # pairs.  The elimination path reads almost all of them as exact zeros;
    # bisection of the cell beside a simple one read as a tiny nonzero value
    # must still find it.  A double eigenvalue has no sign change around
    # it, so it must read as an exact zero.
    rng = np.random.default_rng(89)
    lo, step, width_tol = -3.0, 0.1, 1e-10
    for n in range(3, 9):
        for _ in range(10):
            m, grid = _on_grid_general(rng, n, multiplicity, lo, step)
            assert _char_form(m).func is _hessenberg_det
            roots = find_real_roots(
                GridScan(lambda x: char_fn(m, x), RealInterval(lo, lo + 60 * step), step), width_tol
            )
            for x in grid:
                assert min(abs(r.value - x) for r in roots) <= width_tol


@pytest.mark.parametrize("multiplicity", [1, 2], ids=["simple", "double"])
def test_on_grid_eigenvalues_of_large_general_matrices_are_exact_zeros(multiplicity):
    # The same above _HESSENBERG_MAX_ORDER, where the QR of lam*I - G reads
    # every planted eigenvalue as exactly singular.  (A QR of lam*I - H, the
    # Hessenberg form itself, misses many: see _hessenberg.)
    rng = np.random.default_rng(97)
    lo, step, width_tol = -3.0, 0.1, 1e-10
    for n, reps in ((12, 6), (17, 5), (30, 4), (60, 2)):
        for _ in range(reps):
            m, grid = _on_grid_general(rng, n, multiplicity, lo, step)
            assert _char_form(m).func is _shifted_qr_det
            assert [char_fn(m, x) for x in grid] == [0.0] * len(grid)
            roots = find_real_roots(
                GridScan(lambda x: char_fn(m, x), RealInterval(lo, lo + 60 * step), step), width_tol
            )
            for x in grid:
                assert min(abs(r.value - x) for r in roots) <= width_tol


@pytest.mark.parametrize("n", [9, 12, 60, 130])
def test_direct_qr_matches_numpy_qr_bitwise(n):
    # Above _HESSENBERG_MAX_ORDER each call is one LAPACK dgeqrf through
    # numpy's private lapack_lite, whose call signature is not public API:
    # its values must be those of np.linalg.qr on lam*I - G bit for bit,
    # at random lam and at the planted on-grid eigenvalues, which read as
    # exact zeros.  Order 130 is past LAPACK's blocking crossover (128),
    # where the cached workspace size picks the blocked code.
    rng = np.random.default_rng(n)
    lo, step = -3.0, 0.1
    m, grid = _on_grid_general(rng, n, 1, lo, step)
    assert _char_form(m).func is _shifted_qr_det
    neg, norm = _hessenberg(m.entries), _norm_inf(m.entries)
    for lam in grid + [lo + k * step for k in range(61)] + rng.uniform(-4, 4, 20).tolist():
        shifted = neg.copy()
        shifted.flat[:: n + 1] += lam
        assert char_fn(m, lam).hex() == numpy_qr_det(shifted, abs(lam) + norm).hex()
    assert [char_fn(m, x) for x in grid] == [0.0] * len(grid)


@pytest.mark.parametrize("n", [6, 60])
def test_char_fn_threads_get_the_serial_values(n):
    # Every call copies the cached form and takes a fresh LAPACK workspace, so
    # threads evaluating one matrix, on either kernel for a general matrix,
    # get the values of a serial run, the first calls that fill the cache
    # racing included.  More threads than cores, with a short switch
    # interval, so that calls interleave.
    rng = np.random.default_rng(109)
    a = rng.normal(size=(n, n))
    lams = rng.uniform(-4, 4, 300).tolist()
    serial = [char_fn(DenseMatrix(a), lam) for lam in lams]
    shared = DenseMatrix(a)
    start = threading.Barrier(4, timeout=60)

    def run(k):
        start.wait()
        return [char_fn(shared, lam) for lam in lams[k:] + lams[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run, k) for k in (0, 75, 150, 225)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, values in zip((0, 75, 150, 225), results):
        assert values == serial[k:] + serial[:k]


@pytest.mark.parametrize(("n", "kernel"), [(3, _hessenberg_det), (12, _shifted_qr_det)])
def test_shift_overflow_raises_instead_of_reading_zero(n, kernel):
    # Eigenvalues 1.5e308, 1, ..., n - 1.  Far below them a diagonal entry
    # of lam*I - G and |lam| + ||M||_inf overflow float64, and the singular
    # test read the inf tolerance as an exact zero: an eigenvalue that is
    # not there.  Both general kernels raise instead.
    m = DenseMatrix(np.diag([1.5e308, *range(1, n)]) + np.triu(np.ones((n, n)), 1))
    assert _char_form(m).func is kernel
    for lam in (-1e308, -1.79e308):
        with pytest.raises(ValueError, match="overflows float64"):
            char_fn(m, lam)
    assert char_fn(m, 1.0) == 0.0


def test_eigenvalues_on_both_ends_of_the_interval_are_found():
    # An eigenvalue on an end of the search interval has its sign change in
    # the grid cell outside it, so only an exact zero there finds it.
    # Planted on both ends of [-3, 3] beside on-grid reals and complex
    # pairs, orders 3 to 8: every one must read as a root.
    rng = np.random.default_rng(101)
    lo, hi, step, width_tol = -3.0, 3.0, 0.1, 1e-10
    for _ in range(100):
        n = int(rng.integers(3, 9))
        pairs = int(rng.integers(0, (n - 2) // 2 + 1))
        inner = 1 + rng.choice(59, size=n - 2 * pairs - 2, replace=False)
        reals = [lo, hi, *(lo + int(k) * step for k in inner)]
        m = DenseMatrix(_planted_general(rng, reals, pairs))
        roots = find_real_roots(
            GridScan(lambda x: char_fn(m, x), RealInterval(lo, hi), step), width_tol
        )
        for x in reals:
            assert min(abs(r.value - x) for r in roots) <= width_tol


def test_singular_rule_is_relative_at_every_scale():
    # Zero and nilpotent matrices read exactly 0 at lam = 0, where the
    # tolerance PIVOT_RTOL * (|lam| + ||M||_inf) is 0 itself, on every kernel.
    for n in (1, 3):
        assert char_fn(DenseMatrix(np.zeros((n, n))), 0.0) == 0.0
    for n in (2, 12):
        assert char_fn(DenseMatrix(np.triu(np.ones((n, n)), 1)), 0.0) == 0.0
    # Eigenvalues 1e-200 and 2e-200 on both paths: exact zeros on them, a
    # plain value at 1e-100, and between them a determinant of -2.5e-401,
    # which float64 cannot hold, reads as the smallest subnormal of its
    # sign rather than as a root.
    for a in ([[1e-200, 0.0], [0.0, 2e-200]], [[1e-200, 1e-200], [0.0, 2e-200]]):
        m = DenseMatrix(a)
        assert char_fn(m, 1e-200) == 0.0
        assert char_fn(m, 2e-200) == 0.0
        assert char_fn(m, 1.5e-200) == -5e-324
        assert char_fn(m, 1e-100) == pytest.approx(1e-200, rel=1e-12, abs=0.0)


def test_sturm_fallback_clamps_a_zero_pivot():
    # Eigenvalues +-1e-200, read at lam = 0: the first LDL^T pivot is
    # exactly 0, and the product of the pivots underflows, so the
    # fallback recomputes them; its clamp of that pivot to -pivmin keeps
    # the next pivot finite, and the value carries the sign of the true
    # det, -1e-400.
    m = DenseMatrix(1e-200 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert char_fn(m, 0.0) == -5e-324


def test_zero_matrix_reads_lam_to_the_n():
    # The zero matrix has no unit scale of its own; det(lam*I - 0) is
    # lam**n at every lam, or the smallest subnormal of its sign where that
    # underflows, and exactly 0 only at lam = 0.
    for n in (1, 2, 3):
        m = DenseMatrix(np.zeros((n, n)))
        assert char_fn(m, 0.0) == 0.0
        for lam in (1e-300, -1e-300, 1e-160, -1e-160, 1e-100, 5e-324, -2.5):
            expected = math.prod([lam] * n) or math.copysign(5e-324, lam if n % 2 else 1.0)
            assert char_fn(m, lam) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("lam", [-1e10, 1e10])
def test_sturm_det_reads_lam_to_the_n_where_lam_over_scale_overflows(n, lam):
    # diag(1e-300, 2e-300, ...) has scale 2**-997, so mu = lam / scale is
    # inf for |lam| = 1e10, far above every eigenvalue: the value is lam**n,
    # with the sign of the exact determinant, as the general kernel reads
    # it once one entry above the diagonal breaks the symmetry.
    d = [1e-300 * (k + 1) for k in range(n)]
    value = char_fn(DenseMatrix(np.diag(d)), lam)
    assert value == math.prod([lam] * n)
    assert math.copysign(1.0, value) == math.copysign(1.0, exact_char_det(np.diag(d), lam))
    if n > 1:
        general = np.diag(d)
        general[0, 1] = 1e-301
        assert _char_form(DenseMatrix(general)).func is _hessenberg_det
        assert value == char_fn(DenseMatrix(general), lam)
    # at scale 2**-1074, lam = +-1e-15 makes mu inf too, and lam**30
    # underflows: the smallest subnormal of its sign, never 0.0
    assert char_fn(DenseMatrix(np.diag([5e-324] * 30)), lam * 1e-25) == 5e-324


def test_char_fn_at_eigenvalue_of_identity():
    assert char_fn(DenseMatrix(np.eye(2)), 1.0) == 0.0


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


def test_norm_overflow_raises_instead_of_reading_zero():
    # ||M||_inf overflows float64, so the PIVOT_RTOL tolerance would be inf
    # and every value 0.0, where det(-I - M) is about +1e616: char_fn and
    # matrix_bounds raise one ValueError naming the overflow.
    m = DenseMatrix([[1e308, 1e308], [0.0, 1e308]])
    for call in (lambda: char_fn(m, -1.0), lambda: matrix_bounds(m)):
        with pytest.raises(ValueError, match="overflows float64"):
            call()


@pytest.mark.parametrize("n", [4, 12])
def test_hessenberg_overflow_raises_instead_of_reading_zero(n):
    # One order on each side of _HESSENBERG_MAX_ORDER.  Finite row sums but a column whose norm overflows float64: its
    # reflector's beta does too, so the Hessenberg form cannot be held,
    # though det(I - M) is about -1.5e308.
    a = np.zeros((n, n))
    a[:, 0] = 1.5e308
    with pytest.raises(ValueError, match="Hessenberg form of the matrix overflows"):
        char_fn(DenseMatrix(a), 1.0)


def test_char_fn_rejects_non_finite_argument(mat_a):
    with pytest.raises(ValueError):
        char_fn(mat_a, math.nan)
    with pytest.raises(ValueError):
        char_fn(mat_a, math.inf)
