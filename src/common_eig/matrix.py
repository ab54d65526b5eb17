"""Dense real matrices and their characteristic function.

The characteristic function ``f(lam) = det(lam*I - M)`` is the scalar whose
real roots are the real eigenvalues of ``M``.  Each call evaluates it at one
``lam``, so call counts are evaluation counts.  The first call on a matrix
reduces it once by Householder similarity to upper Hessenberg form H
(``_householder``) and caches an evaluator bound to the result; which one
depends on the matrix alone:

* an exactly symmetric matrix has a tridiagonal H, the T of ``M / scale``
  for a power of two ``scale``; each call costs O(n) in ``_sturm_det``:
  three LDL^T pivot recurrences of T in lockstep (Sturm sequences), the
  value at ``mu = lam / scale`` and the inertia counts at ``mu -+ eps``
  that decide an exact zero, or the value recurrence alone where ``mu``
  lies more than ``2*eps`` outside T's Gerschgorin interval, so that no
  eigenvalue is within ``eps`` (about 30 % of the evaluations on the
  benchmark's symmetric order-30 pairs).  The pivot product takes
  ``scale**n`` once, through its exponent, rather than one factor of
  ``scale`` per pivot;
* any other matrix keeps the upper Hessenberg G = J*H^T*J, with the
  characteristic polynomial of M (see ``_hessenberg``).  Up to order
  ``_HESSENBERG_MAX_ORDER`` each call costs one O(n^2) Gaussian elimination
  with partial pivoting of ``lam*I - G`` in plain Python
  (``_hessenberg_det``); above it, one Householder QR of ``lam*I - G``
  (``_shifted_qr_det``), a single direct call of LAPACK ``dgeqrf`` through
  numpy's ``lapack_lite`` on a copy of the cached ``-G^T``.  Each of its
  reflectors has two nonzero entries, and LAPACK skips the zero tail, so
  most of a dense QR's O(n^3) work goes.  The direct call gives the values
  of ``np.linalg.qr`` bit for bit, the same routine on the same input with
  the same workspace, without that wrapper's per-call overhead.
"""

from __future__ import annotations

import math
import re
import sys
from functools import partial
from operator import sub
from typing import NamedTuple

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "DenseMatrix",
    "MatrixFormatError",
    "parse_matrix",
    "char_fn",
]

# The singular rule of all three paths: lam*I - M is singular when the
# smallest elimination pivot or |R_ii| of a QR (general, with the
# Hessenberg G for M), or the distance from lam to an eigenvalue
# (symmetric, with the tridiagonal T for M) is at most
# PIVOT_RTOL * (|lam| + ||M||_inf).  With no absolute floor it reads the
# same at every scale, and an eigenvalue on a grid point reads as an exact
# zero rather than as 1e-16-level noise.
PIVOT_RTOL = 1e-13

# General matrices up to this order eliminate lam*I - G in plain Python,
# larger ones take a QR of it.  The elimination's O(n^2) Python arithmetic
# beats one dgeqrf call on small orders and loses on larger ones.  Per
# call on random matrices (x86-64, 2 shared cores, Python 3.11, numpy 2.4
# with OpenBLAS, best of 6 rounds of 10 x 100 calls, 3 matrices per
# order), the direct QR over the elimination: 2.1-2.7 at n = 3, 1.4-1.5
# at 5, 1.0-1.25 at 7, 0.6-1.1 at 8, 0.7-1.1 at 9, 0.5-0.65 at 11.
_HESSENBERG_MAX_ORDER = 8

# numpy's binding of LAPACK dgeqrf: it takes C-contiguous float64 arrays
# and factors them in place, with none of np.linalg.qr's argument checks,
# copies, errstate context or workspace query, about a quarter of that
# call at order 60.  numpy lists lapack_lite among its private but
# present modules; tests pin its values bitwise to np.linalg.qr's.
_dgeqrf = lapack_lite.dgeqrf

_SHIFT_OVERFLOW = "lam*I - M overflows float64 at this lam"

_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max

_TOKEN = re.compile(r"\S+")
_ORDER = re.compile(r"\+?\d+")


class DenseMatrix:
    """Immutable real n-by-n matrix backed by a read-only float64 array."""

    __slots__ = ("_entries", "_form")

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must all be finite")
        arr.flags.writeable = False
        self._entries = arr
        # None until the first char_fn call; then the cached evaluator
        # lam -> det(lam*I - M) that _char_form builds.
        self._form = None

    @property
    def entries(self) -> np.ndarray:
        """The underlying (n, n) float64 array; read-only."""
        return self._entries

    @property
    def order(self) -> int:
        return self._entries.shape[0]

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return np.array_equal(self._entries, other._entries)

    def __repr__(self):
        return f"DenseMatrix({self._entries.tolist()!r})"


class MatrixFormatError(ValueError):
    """A matrix text stream violates the input format.

    Raised for every bad matrix file; any other bad argument to the
    library raises a plain ``ValueError``, so catching ``ValueError``
    catches both.  An error at one token (a token that is not a number, a
    non-finite value, a bad order, or a second token on the order line)
    carries the 1-based ``line`` and ``column`` where that token starts,
    and the message is prefixed with them; for every other error both are
    ``None``.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def _significant_lines(text: str):
    """Yield (1-based line number, raw line) skipping blanks and # comments."""
    # only LF, CR LF and CR end a line, as grep -n and editors count;
    # str.splitlines() also breaks at form feed, U+2028 and others
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def _check_tokens(lineno: int, raw: str) -> None:
    """Raise for the first token of a row that is not a finite number."""
    for tok in _TOKEN.finditer(raw):
        try:
            value = float(tok.group())
        except ValueError:
            raise MatrixFormatError(
                f"{tok.group()!r} is not a number", lineno, tok.start() + 1
            ) from None
        if not math.isfinite(value):
            raise MatrixFormatError(
                f"non-finite value {tok.group()!r}", lineno, tok.start() + 1
            )


def parse_matrix(text: str) -> DenseMatrix:
    """Parse the plain-text matrix format.

    A line ends at LF, CR LF or CR; any other whitespace, form feed and
    U+2028 included, separates tokens within a line.  Blank lines and
    lines whose first non-blank character is ``#`` are ignored; a ``#``
    after a value is not a comment.  The first significant line holds the
    order n; the next n significant lines hold n whitespace-separated
    reals each, read by Python's ``float()`` (scientific notation
    accepted).  Any significant content after the n-th row is an error.
    The first error in file order is raised as a ``MatrixFormatError``;
    only an error at one token (one that is not a finite number, or a bad
    order line) sets its ``line`` and ``column``.  One leading byte order mark
    (U+FEFF), as some editors write, is dropped.
    """
    lines = list(_significant_lines(text.removeprefix("\ufeff")))
    if not lines:
        raise MatrixFormatError("no matrix data found")

    header_no, header = lines[0]
    tokens = list(_TOKEN.finditer(header))
    if len(tokens) != 1:
        bad = tokens[1]
        raise MatrixFormatError(
            "matrix order line must hold a single positive integer",
            header_no,
            bad.start() + 1,
        )
    order_tok = tokens[0]
    if not _ORDER.fullmatch(order_tok.group()) or int(order_tok.group()) < 1:
        raise MatrixFormatError(
            f"{order_tok.group()!r} is not a positive integer order",
            header_no,
            order_tok.start() + 1,
        )
    n = int(order_tok.group())

    row_lines = lines[1:]
    if len(row_lines) < n:
        raise MatrixFormatError(f"expected {n} rows, found {len(row_lines)}")
    if len(row_lines) > n:
        extra_no, _ = row_lines[n]
        raise MatrixFormatError(f"unexpected content on line {extra_no} after row {n}")

    # Each row is split and converted whole; str.split() and _TOKEN cut a
    # line into the same tokens.  Only a row that float() rejects, or whose
    # sum is not finite, is walked token by token to place the error; a sum
    # of finite values can overflow, and such a row passes the walk.
    values = []
    for lineno, raw in row_lines:
        toks = raw.split()
        if len(toks) != n:
            raise MatrixFormatError(f"line {lineno}: expected {n} values, found {len(toks)}")
        try:
            row = list(map(float, toks))
        except ValueError:
            row = None
        if row is None or not math.isfinite(sum(row)):
            _check_tokens(lineno, raw)
        values += row
    return DenseMatrix(np.fromiter(values, np.float64, n * n).reshape(n, n))


def _full_prod(factors, exponent: int = 0) -> float:
    """``2**exponent * prod(factors)``, the mantissa and exponent kept apart;
    a product too small for float64 is the smallest subnormal of its sign."""
    mantissa = 1.0
    for x in factors:
        mantissa, k = math.frexp(mantissa * x)
        exponent += k
    return math.ldexp(mantissa, exponent) or math.copysign(5e-324, mantissa)


def _geqrf_lwork(n: int) -> int:
    """The workspace LAPACK ``dgeqrf`` asks for at order n, at least n, as
    numpy's own QR takes it; the blocked code at order 128 and up reads it."""
    work = np.empty(1)
    _dgeqrf(n, n, np.empty((n, n)), n, np.empty(n), work, -1, 0)
    return max(1, n, int(work[0]))


def _abs_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums of ``|a|`` along ``axis`` (1: rows, 0: columns); a ValueError
    rather than inf where one overflows float64."""
    with np.errstate(over="ignore"):
        sums = abs(a).sum(axis=axis)
    if math.isinf(sums.max()):
        raise ValueError("an absolute row or column sum of the matrix overflows float64")
    return sums


def _unit_scale(a: np.ndarray) -> float:
    """The power of two at or below the largest |entry| (1.0 for zero), so that
    ``a / scale`` is exact and has its largest entry in [1, 2)."""
    peak = float(abs(a).max())
    return math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0


def _reflector(x: np.ndarray):
    """Householder ``P = I - tau*v*v^T`` with ``v[0] == 1`` and ``P*x = beta*e1``.

    None where ``x[1:]`` is already zero, for which LAPACK ``dlarfg`` takes
    ``tau == 0``, so the reduction leaves such a column as it is.
    """
    rest = x[1:].ravel()
    if not np.count_nonzero(rest):
        return None
    alpha = float(x[0])
    # ||rest||_2 as np.linalg.norm computes it, without its call overhead,
    # unless the sum of squares underflows: then math.hypot, which scales.
    sum_sq = float(rest.dot(rest))
    norm = math.sqrt(sum_sq) if sum_sq >= sys.float_info.min else math.hypot(*rest.tolist())
    beta = -math.copysign(math.hypot(alpha, norm), alpha)
    v = x / (alpha - beta)
    v[0] = 1.0
    return v, (beta - alpha) / beta, beta


def _householder(a: np.ndarray) -> tuple[np.ndarray, float]:
    """``(H^T, scale)``: H upper Hessenberg and similar to ``a / scale``.

    A Householder similarity reduction of ``a / scale`` (``_unit_scale``),
    which keeps every norm in range at any scale float64 holds.  A column
    already zero below its subdiagonal gets no reflector, so an upper
    Hessenberg ``a`` gives ``H = a / scale``.  For a symmetric ``a``, H is
    the tridiagonal T: ``_tridiagonalize`` reads its diagonal and
    subdiagonal, and the rest of its upper part is rounding noise.
    """
    n = a.shape[0]
    scale = _unit_scale(a)
    # g is H transposed, so each reflector reads a contiguous row of g.
    g = a.T / scale
    for k in range(n - 2):
        reflector = _reflector(g[k, k + 1 :])
        if reflector is None:
            continue
        v, tau, beta = reflector
        tv = tau * v
        # H <- P*H*P, P = I - tau*v*v^T on rows and columns k+1 on: P*H on
        # H's trailing block, then H*P on all rows; P maps H's column k
        # below the diagonal to beta*e1.
        block = g[k + 1 :, k + 1 :]
        block -= (block @ v)[:, None] * tv
        right = g[k + 1 :]
        right -= tv[:, None] * (v @ right)
        g[k, k + 1] = beta
        g[k, k + 2 :] = 0.0
    return g, scale


class _Tridiagonal(NamedTuple):
    """Symmetric tridiagonal T similar to ``M / scale``.

    ``pairs[k]`` is ``(d_k, e_k**2)``: the diagonal entry of row k of T and
    the squared entry coupling rows k-1 and k, with ``e_0**2 == 0.0``, as
    the pivot recurrence reads them.
    """

    pairs: list[tuple[float, float]]
    norm: float  # ||T||_inf
    scale: float  # a power of two, so M / scale is exact
    exponent: int  # log2(scale**n), so det(lam*I - M) = 2**exponent * det(mu*I - T)
    pivmin: float  # smallest pivot magnitude the recurrence lets through
    # T's Gerschgorin interval, min and max of d_k -+ (|e_k| + |e_k+1|),
    # which holds its spectrum; unbounded unless _tridiagonalize sets it.
    lower: float = -math.inf
    upper: float = math.inf


def _tridiagonalize(a: np.ndarray) -> _Tridiagonal:
    """The tridiagonal T of the symmetric ``a``, read off ``_householder``'s
    H^T: its diagonal and first superdiagonal.  A tridiagonal input comes
    back unchanged."""
    g, scale = _householder(a)
    diag = g.diagonal()
    off = np.append(0.0, g.diagonal(1))
    abs_off = abs(off)
    abs_next = np.append(abs_off[1:], 0.0)
    norm = float((abs(diag) + abs_off + abs_next).max())
    offdiag_sq = (off * off).tolist()
    # As in LAPACK xSTEBZ, a pivot smaller than pivmin becomes -pivmin,
    # which keeps e^2/q finite.  Taking the square root of the smallest
    # normal float keeps |q| < 1e154, so scale*q overflows only where the
    # pivot pair it belongs to, about -scale^2*e^2, overflows too.  The
    # shift is far below rounding at the unit scale of T.  The zero matrix
    # has no unit scale, and its T divides nothing by a pivot, so its floor
    # only keeps q off zero: the smallest subnormal, which lets every pivot
    # mu through and so reads mu**n at every mu != 0.
    pivmin = math.sqrt(sys.float_info.min) * max(1.0, max(offdiag_sq)) if norm else 5e-324
    exponent = len(diag) * (math.frexp(scale)[1] - 1)
    pairs = list(zip(diag.tolist(), offdiag_sq))
    lower = float((diag - abs_off - abs_next).min())
    upper = float((diag + abs_off + abs_next).max())
    return _Tridiagonal(pairs, norm, scale, exponent, pivmin, lower, upper)


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """``-G`` for ``G = J*H^T*J``, with H from ``_householder``, as one
    C-contiguous array.

    The result is multiplied back by the power of two ``scale``, exactly
    but for results below the normal range; a ValueError rather than inf
    where that overflows float64.  J reverses the index order, so G is
    upper Hessenberg too, with the characteristic polynomial of ``a``; an
    upper Hessenberg ``a`` gives ``G = J*a^T*J``.

    Why G and not H: an elimination or QR of ``lam*I - X`` shows a
    singular matrix only as sharply as the last component of its null
    vector allows.  For H that is the last component of a right
    eigenvector in the Krylov basis started from e1, which decays along
    the reduction; for G it is the first component of a left eigenvector
    of ``a``, which the reduction leaves unchanged since it fixes e1.
    """
    g, scale = _householder(a)
    if math.isinf(float(abs(g).max()) * scale):
        raise ValueError("the Hessenberg form of the matrix overflows float64")
    # g holds H^T, so -G = -J*H^T*J is g times -scale with both axes reversed.
    return np.ascontiguousarray((g * -scale)[::-1, ::-1])


def _hessenberg_det(head: tuple, rows: list[tuple], norm: float, bound: float, lam: float) -> float:
    # Gaussian elimination with partial pivoting on lam*I - G, given -G by
    # rows, each split as (entry k - 1, entry k, entries n - 1 down to
    # k + 1) for row k; head is row 0 split as row 1 is, so it starts on the
    # diagonal.  Column k of an upper Hessenberg matrix is nonzero only down
    # to row k+1, so step k chooses its pivot between two rows, the reduced
    # row r and row k+1, and updates one row: O(n) per step, O(n^2) per
    # lam.  The tails run backwards, so a step's new tail lines up with the
    # next row's once its last entry, the next column, is popped.
    # det(lam*I - M) is (-1)^swaps * prod(pivots); lam*I - M is singular by
    # PIVOT_RTOL, and the value exactly 0.0, as soon as a pivot is at most
    # PIVOT_RTOL * (|lam| + ||M||_inf).  bound is the larger of ||M||_inf and
    # max |g_kk|: while |lam| + bound is finite, so are that tolerance and
    # every diagonal entry of lam*I - G, which would otherwise overflow to
    # inf and read as a singular matrix.
    if math.isinf(abs(lam) + bound):
        raise ValueError(_SHIFT_OVERFLOW)
    tol = PIVOT_RTOL * (abs(lam) + norm)
    r0, r1, rt = head
    r0 += lam
    pivots = []
    swaps = 0
    for p0, p1, pt in rows:
        p1 += lam
        if abs(p0) > abs(r0):
            r0, r1, rt, p0, p1, pt = p0, p1, pt, r0, r1, rt
            swaps += 1
        if abs(r0) <= tol:
            return 0.0
        pivots.append(r0)
        m = p0 / r0
        r0 = p1 - m * r1
        rt = list(map(sub, pt, map(m.__mul__, rt)))
        if rt:
            r1 = rt.pop()
    if abs(r0) <= tol:
        return 0.0
    pivots.append(r0)
    det = math.prod(pivots) or _full_prod(pivots)
    return -det if swaps % 2 else det


def _shifted_qr_det(neg_t: np.ndarray, lwork: int, norm: float, bound: float, lam: float) -> float:
    # One Householder QR, lam*I - G = Q*R, by one LAPACK dgeqrf call that
    # overwrites a fresh copy of the cached -G^T (-G in the column-major
    # layout LAPACK reads) with lam added on its diagonal.  Each reflector
    # with tau != 0 has determinant -1 (tau == 0 is the identity), so the
    # value is that sign times the product of diag(R), which the transposed
    # layout leaves on the diagonal of a.  tau and the workspace are fresh
    # on every call, so no two calls write one array.  math.prod multiplies
    # in the same order as ndarray.prod but overflows to +-inf without a
    # warning.  norm is ||M||_inf, bound as in _hessenberg_det.
    if math.isinf(abs(lam) + bound):
        raise ValueError(_SHIFT_OVERFLOW)
    n = neg_t.shape[0]
    a = neg_t.copy()
    diagonal = a.ravel()[:: n + 1]  # a view, which dgeqrf fills with diag(R)
    diagonal += lam
    tau = np.empty(n)
    _dgeqrf(n, n, a, n, tau, np.empty(lwork), lwork, 0)
    diag = diagonal.tolist()
    if min(map(abs, diag)) <= PIVOT_RTOL * (abs(lam) + norm):
        return 0.0
    det = math.prod(diag) or _full_prod(diag)
    return -det if np.count_nonzero(tau) % 2 else det


def _pivots(form: _Tridiagonal, mu: float):
    """The LDL^T pivots of mu*I - T, as ``_sturm_det``'s loop inlines them."""
    q, pivmin = 1.0, form.pivmin
    for d, e2 in form.pairs:
        q = mu - d - e2 / q
        if -pivmin < q < pivmin:
            q = -pivmin
        yield q


def _sturm_det(form: _Tridiagonal, lam: float) -> float:
    # det(lam*I - M) = scale**n * prod(q_k) over the LDL^T pivots q_k of
    # mu*I - T, mu = lam / scale.  Where mu may lie within eps of an
    # eigenvalue, two more recurrences run the pivots at mu -+ eps: by
    # Sylvester's law of inertia their negative counts differ exactly when
    # an eigenvalue lies in [mu - eps, mu + eps], and then the value is
    # exactly 0.0.  A pivot below pivmin counts as negative at mu - eps but
    # as positive at mu + eps, which closes the interval for eps = 0 (T = 0
    # at lam = 0).  eps is PIVOT_RTOL * (|lam| + ||T||_inf), unscaled.
    mu = lam / form.scale
    eps = PIVOT_RTOL * (abs(mu) + form.norm)
    unit = q = 1.0
    if mu - 2.0 * eps > form.upper or mu + 2.0 * eps < form.lower:
        # mu -+ eps lie at least eps outside T's Gerschgorin interval, so no
        # eigenvalue is near, and the margin of 2*eps keeps the result bit
        # for bit that of the three passes below.  For x in [mu - eps,
        # mu + eps], x*I - T is diagonally dominant by at least eps, so each
        # pivot of x*I - T lies on x's side of zero, at least |e_k+1| + eps
        # from it less rounding: a step costs a few ulps of |mu| + ||T||_inf,
        # against eps = 1e-13 of it, and the losses do not add up, since
        # e^2/q stays below |e_k|.  No clamp fires on any pass and the two
        # counts are equal (0 or n), so this loop is the value recurrence
        # alone, the same float operations in the same order.
        for d, e2 in form.pairs:
            q = mu - d - e2 / q
            unit *= q
    else:
        # Each pass's clamp only sets its own input to the next step, so the
        # three recurrences run first.  count is the negative count at
        # mu - eps less the one at mu + eps, so it moves only where one pass
        # counts a pivot negative and the other does not: a pivot at or
        # above pivmin on both passes takes two comparisons, a negative one
        # on both three.
        pivmin = form.pivmin
        neg_pivmin = -pivmin
        lo, hi = mu - eps, mu + eps
        q_lo = q_hi = 1.0
        count = 0
        for d, e2 in form.pairs:
            q = mu - d - e2 / q
            q_lo = lo - d - e2 / q_lo
            q_hi = hi - d - e2 / q_hi
            if q < pivmin and q > neg_pivmin:
                q = neg_pivmin
            unit *= q
            if q_lo < pivmin:
                if q_lo > neg_pivmin:
                    q_lo = neg_pivmin
                if not q_hi <= neg_pivmin:  # a nan q_hi is not negative
                    count += 1
                    if q_hi < pivmin:
                        q_hi = pivmin
            elif q_hi < pivmin:
                if q_hi > neg_pivmin:
                    q_hi = pivmin
                else:
                    count -= 1
        if count:
            return 0.0
    # scale is a power of two, so scale**n goes into the exponent once, and
    # exactly: while the running products of q_k and of scale*q_k stay
    # normal floats, and so does the result, this is the product of the
    # scaled pivots, bit for bit.  Where the product of q_k or the result
    # is not a normal float (math.ldexp raises rather than return inf),
    # the value is that product of scale*q_k, pivot by pivot, and where it
    # underflows to 0, the product with its exponent kept apart.
    try:
        det = math.ldexp(unit, form.exponent)
    except OverflowError:
        det = math.inf
    if _MIN_NORMAL <= abs(unit) <= _MAX_FLOAT and _MIN_NORMAL <= abs(det) <= _MAX_FLOAT:
        return det
    scaled = map(form.scale.__mul__, _pivots(form, mu))
    return math.prod(scaled) or _full_prod(_pivots(form, mu), form.exponent)


def _char_form(matrix: DenseMatrix) -> partial:
    """The cached evaluator behind ``char_fn``, a ``partial`` of one kernel
    bound to the matrix's reduced form: ``_sturm_det`` for an exactly
    symmetric matrix, else ``_hessenberg_det`` up to order
    ``_HESSENBERG_MAX_ORDER`` and ``_shifted_qr_det`` above it."""
    if matrix._form is None:
        a = matrix.entries
        if np.array_equal(a, a.T):
            matrix._form = partial(_sturm_det, _tridiagonalize(a))
        else:
            norm, neg = float(_abs_sums(a, 1).max()), _hessenberg(a)
            bound = max(norm, float(abs(neg.diagonal()).max()))
            if matrix.order <= _HESSENBERG_MAX_ORDER:
                first, *rest = neg.tolist()
                head = (first[0], first[1], first[:1:-1])
                rows = [(row[k - 1], row[k], row[:k:-1]) for k, row in enumerate(rest, 1)]
                matrix._form = partial(_hessenberg_det, head, rows, norm, bound)
            else:
                lwork = _geqrf_lwork(matrix.order)
                matrix._form = partial(_shifted_qr_det, neg.T.copy(), lwork, norm, bound)
    return matrix._form


def char_fn(matrix: DenseMatrix, lam: float) -> float:
    """Evaluate ``det(lam*I - M)`` at a single real ``lam``.

    Monic convention: for ``lam`` above every Gerschgorin upper bound the
    value is strictly positive.  Each call is exactly one determinant
    evaluation.  The first call on a matrix reduces it and caches its
    evaluator (see the module docstring): an exactly symmetric matrix then
    pays O(n) per call, a general one O(n^2), in Python up to
    ``_HESSENBERG_MAX_ORDER`` and as one LAPACK QR above it.  Every path
    returns exactly 0.0 where ``lam*I - M`` is singular by the
    ``PIVOT_RTOL`` rule; a nonzero determinant below the float64 range reads
    as the smallest subnormal of its sign, never as 0.0.  A general matrix
    whose ``||M||_inf`` or Hessenberg form overflows float64 raises
    ValueError, and so does a general matrix at a ``lam`` where ``|lam|``
    plus the larger of ``||M||_inf`` and the largest diagonal entry of its
    Hessenberg form overflows: there a diagonal entry of ``lam*I - G`` or
    the singular tolerance would be inf.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    return (matrix._form or _char_form(matrix))(lam)
