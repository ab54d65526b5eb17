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
  that decide an exact zero.  They run bare up to the first pivot where
  the two count passes straddle zero, and only from there clamp and count
  (``_sturm_counts``).  The pivot product takes ``scale**n`` once,
  through its exponent, rather than one factor of ``scale`` per pivot;
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
  the same workspace, without that wrapper's per-call overhead.  The sign
  of Q and all of the singular test but ``|R_nn|`` are read off G's
  subdiagonal, once per matrix, where its smallest entry clears the
  tolerance: the parity of its nonzero entries is that of the reflectors,
  and each ``|R_kk|`` above the last is at least ``|g_{k+1,k}|``.

The same reduction gives the form interval (``_form_interval``): the
Gerschgorin interval of T for a symmetric matrix, the Bendixson interval,
the span of the eigenvalues of (M + M^T)/2, for any other, moved out just
enough that ``char_fn`` has no zero and no sign change outside it
(``_sturm_ends``, ``_bendixson_ends``).  The pipeline's proposed mode
scans only the grid points that bracket its intersection with the search
interval.
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
# with OpenBLAS, best of 3 x 6 interleaved rounds of 10 x 100 calls, 3
# matrices per order, two runs), the direct QR over the elimination:
# 2.0-2.5 at n = 3, 1.45-1.5 at 4, 1.0-1.45 at 5, 0.94-1.01 at 6,
# 0.78-0.83 at 7, 0.71-0.76 at 8, 0.6-0.67 at 9, 0.48-0.54 at 11.  Since
# the QR kernel reads its sign and most of its singular test off G, it
# breaks even at order 6 and wins from 7; the switch stays at 8, as
# moving it changes the values read at orders 7 and 8.
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

    __slots__ = ("_entries", "_form", "_ends")

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must all be finite")
        arr.flags.writeable = False
        self._entries = arr
        # None until the first char_fn call or _form_interval; then the
        # cached evaluator lam -> det(lam*I - M) that _char_form builds, and
        # the ends of its form's interval.
        self._form = None
        self._ends = None

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


def _abs_sums(a: np.ndarray, *axes: int) -> list[np.ndarray]:
    """Sums of ``|a|`` along each of ``axes`` (1: rows, 0: columns), from
    one ``|a|``; a ValueError rather than inf where one overflows float64."""
    mags = abs(a)
    # No sum of n entries of at most max|a| reaches 2 * n * max|a|, rounding
    # included, so only a larger matrix needs the overflow check.
    if float(mags.max()) * (2 * a.shape[0]) <= _MAX_FLOAT:
        return [mags.sum(axis=axis) for axis in axes]
    with np.errstate(over="ignore"):
        sums = [mags.sum(axis=axis) for axis in axes]
    if any(math.isinf(s.max()) for s in sums):
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


def _tridiagonalize(a: np.ndarray) -> tuple[_Tridiagonal, tuple[float, float]]:
    """The tridiagonal T of the symmetric ``a``, read off ``_householder``'s
    H^T: its diagonal and first superdiagonal, and the ends of its form
    interval (``_sturm_ends``).  A tridiagonal input comes back unchanged."""
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
    # T's Gerschgorin interval, min and max of d_k -+ (|e_k| + |e_k+1|)
    lower = float((diag - abs_off - abs_next).min())
    upper = float((diag + abs_off + abs_next).max())
    form = _Tridiagonal(pairs, norm, scale, exponent, pivmin)
    return form, _sturm_ends(lower, upper, norm, scale)


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


def _shifted_qr_det(
    neg_t: np.ndarray, lwork: int, norm: float, bound: float, odd: bool, sub_min: float, lam: float
) -> float:
    # One Householder QR, lam*I - G = Q*R, by one LAPACK dgeqrf call that
    # overwrites a fresh copy of the cached -G^T (-G in the column-major
    # layout LAPACK reads) with lam added on its diagonal.  Each reflector
    # with tau != 0 has determinant -1 (tau == 0 is the identity), so the
    # value is that sign times the product of diag(R), which the transposed
    # layout leaves on the diagonal of a.  tau and the workspace are fresh
    # on every call, so no two calls write one array.  math.prod multiplies
    # in the same order as ndarray.prod but overflows to +-inf without a
    # warning.  norm is ||M||_inf, bound as in _hessenberg_det.
    #
    # The sign and most of the singular test are fixed by G alone.  lam*I - G
    # is upper Hessenberg, and reflector k touches rows k and k+1 only, so
    # when dgeqr2 (or, at order 128 and up, each panel of dgeqrf's blocked
    # code) reaches column k, the part below its diagonal is still -g_{k+1,k}
    # followed by exact zeros.  LAPACK dlarfg then takes tau_k == 0 exactly
    # where g_{k+1,k} == 0, and tau == 0 for the last column, of order 1:
    # odd is the parity of G's nonzero subdiagonal entries.  Elsewhere it
    # sets |R_kk| = dlapy2(alpha_k, |g_{k+1,k}|) >= |g_{k+1,k}|: the norm of
    # one nonzero entry is its magnitude, dlapy2 is at least its larger
    # argument, and the rescaling of a tiny column is by powers of two,
    # under monotone rounding.  So where the smallest |g_{k+1,k}|, sub_min,
    # exceeds tol, no |R_kk| above R_nn can meet the singular rule, and the
    # test of R_nn alone reads what the test of all of diag(R) reads; the
    # factor 2 is slack on that bound.  Every value, exact zero and sign is
    # the same, bit for bit (tests pin both facts on np.linalg.qr).
    if math.isinf(abs(lam) + bound):
        raise ValueError(_SHIFT_OVERFLOW)
    n = neg_t.shape[0]
    a = neg_t.copy()
    diagonal = a.ravel()[:: n + 1]  # a view, which dgeqrf fills with diag(R)
    diagonal += lam
    _dgeqrf(n, n, a, n, np.empty(n), np.empty(lwork), lwork, 0)
    diag = diagonal.tolist()
    tol = PIVOT_RTOL * (abs(lam) + norm)
    if abs(diag[-1]) <= tol if sub_min > 2.0 * tol else min(map(abs, diag)) <= tol:
        return 0.0
    det = math.prod(diag) or _full_prod(diag)
    return -det if odd else det


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
    # mu*I - T, mu = lam / scale.  Two more recurrences run the pivots at
    # mu -+ eps: by Sylvester's law of inertia their negative counts differ
    # exactly when an eigenvalue lies in [mu - eps, mu + eps], and then the
    # value is exactly 0.0.  A pivot below pivmin counts as negative at mu - eps but
    # as positive at mu + eps, which closes the interval for eps = 0 (T = 0
    # at lam = 0).  eps is PIVOT_RTOL * (|lam| + ||T||_inf), unscaled.
    mu = lam / form.scale
    eps = PIVOT_RTOL * (abs(mu) + form.norm)
    # Phase 1 runs the three recurrences bare, with one test per pivot, and
    # hands over to phase 2 (_sturm_counts), which clamps and counts, at the
    # first pivot where q_lo < pivmin and q_hi > -pivmin.  Up to there it
    # computes what phase 2 run from the first pivot would, bit for bit,
    # and the count stays 0.  IEEE rounding is monotone, and
    # so is each step in x while its inputs share a sign: x - d rises with
    # x, and -e2/q with q.  So from lo <= mu <= hi, every pivot has
    # q_lo <= q <= q_hi while the test stays false, and then all three lie
    # at or above pivmin or at or below -pivmin: no clamp can fire, and
    # the two negative counts rise together (the monotone floating-point
    # Sturm count: Kahan, 1966; Demmel, Dhillon & Ren, ETNA 3, 1995).  A
    # finite mu gives no nan: phase 1 divides only by pivots at least
    # pivmin from 0, so e2/q stays finite.  An infinite mu makes lo or hi
    # nan, never hands over, and reads unit = +-inf.
    pivmin = form.pivmin
    neg_pivmin = -pivmin
    lo, hi = mu - eps, mu + eps
    unit = q = q_lo = q_hi = 1.0
    pairs = iter(form.pairs)
    for d, e2 in pairs:
        q = mu - d - e2 / q
        q_lo = lo - d - e2 / q_lo
        q_hi = hi - d - e2 / q_hi
        if q_lo < pivmin and q_hi > neg_pivmin:
            unit, count = _sturm_counts(pairs, mu, lo, hi, pivmin, unit, q, q_lo, q_hi)
            if count:
                return 0.0
            break
        unit *= q
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
    if math.isinf(mu):
        # |lam| is above 1.8e308 * scale and every eigenvalue lambda_k of M
        # within 2 * n * scale of 0, so each factor lam - lambda_k of the
        # determinant rounds to lam.
        pivots = [lam] * len(form.pairs)
        return math.prod(pivots) or _full_prod(pivots)
    scaled = map(form.scale.__mul__, _pivots(form, mu))
    return math.prod(scaled) or _full_prod(_pivots(form, mu), form.exponent)


def _sturm_counts(pairs, mu, lo, hi, pivmin, unit, q, q_lo, q_hi) -> tuple[float, int]:
    """Phase 2 of ``_sturm_det``, from a pivot whose values q, q_lo and q_hi
    are computed but not yet clamped or counted, on through the rest of the
    ``pairs`` iterator: ``(unit * prod(q_k), count)``.

    Each pass's clamp only sets its own input to the next step.  count is
    the negative count at lo = mu - eps less the one at hi = mu + eps, so it
    moves only where one pass counts a pivot negative and the other does
    not."""
    neg_pivmin = -pivmin
    count = 0
    while True:
        if q < pivmin and q > neg_pivmin:
            q = neg_pivmin
        unit *= q
        if q_lo < pivmin:
            if q_lo > neg_pivmin:
                q_lo = neg_pivmin
            if q_hi > neg_pivmin:
                count += 1
                if q_hi < pivmin:
                    q_hi = pivmin
        elif q_hi < pivmin:
            if q_hi > neg_pivmin:
                q_hi = pivmin
            else:
                count -= 1
        pair = next(pairs, None)
        if pair is None:
            return unit, count
        d, e2 = pair
        q = mu - d - e2 / q
        q_lo = lo - d - e2 / q_lo
        q_hi = hi - d - e2 / q_hi


def _sturm_ends(lower: float, upper: float, norm: float, scale: float) -> tuple[float, float]:
    """The ends, in lam, of T's Gerschgorin interval [lower, upper] moved
    out by 2*eps: the mu at which mu -+ 2*eps meets an end, with
    eps = PIVOT_RTOL * (|mu| + norm) and norm = ||T||_inf, multiplied by
    scale and rounded outward."""
    # At an end and beyond it mu -+ eps lie outside [lower, upper] by eps,
    # less a few ulps of |mu| for the rounding of the solution, against
    # eps >= 1e-13 of it; for the zero matrix, whose interval is the point
    # 0 and whose eps is 0 there, beyond it only.  So for every x in
    # [mu - eps, mu + eps], x*I - T is diagonally dominant by at least eps,
    # and each pivot of x*I - T lies on x's side of zero, at least
    # |e_k+1| + eps from it less rounding: a step costs a few ulps of
    # |mu| + ||T||_inf, against eps = 1e-13 of it, and the losses do not
    # add up, since e^2/q stays below |e_k|.  No clamp fires on any of
    # _sturm_det's three passes, the two counts are equal (0 or n), and
    # the value is a product of n pivots of one sign, positive above T's
    # interval and of sign (-1)**n below it.
    r2 = 2.0 * PIVOT_RTOL
    c = upper + r2 * norm
    mu_hi = c / (1.0 - r2) if c >= 0.0 else c / (1.0 + r2)
    c = lower - r2 * norm
    mu_lo = c / (1.0 - r2) if c <= 0.0 else c / (1.0 + r2)
    return _scaled_back(mu_lo, mu_hi, scale)


def _scaled_back(mu_lo: float, mu_hi: float, scale: float) -> tuple[float, float]:
    """``(mu_lo*scale, mu_hi*scale)``, each rounded outward.  scale is a
    power of two, so only a product below the normal range rounds."""
    lo, hi = mu_lo * scale, mu_hi * scale
    if lo / scale > mu_lo:
        lo = math.nextafter(lo, -math.inf)
    if hi / scale < mu_hi:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _bendixson_ends(a: np.ndarray, norm: float) -> tuple[float, float]:
    """The ends of M's Bendixson interval [lambda_min(H), lambda_max(H)],
    H = (M + M^T)/2, each moved out by 2*n*PIVOT_RTOL*(|end| + norm); a is
    M and norm is ||M||_inf.  H is formed from ``a / _unit_scale(a)``, so
    the interval is the same at every scale 2**k, and its ends are padded
    by the error of ``eigvalsh`` and of forming H, then multiplied back by
    the scale and rounded outward.  An end whose margin is below the
    normal range, or whose product overflows, is infinite."""
    # A real eigenvalue lam of M with unit eigenvector x is x^T*M*x =
    # x^T*H*x, so it lies in H's interval (Bendixson, 1902; Horn & Johnson,
    # Topics in Matrix Analysis, 1.5).  Where lam lies outside it by delta,
    # |x^T*(lam*I - M)*x| = |lam - x^T*H*x| >= delta for every unit x, so
    # sigma_min(lam*I - M) >= delta.  G is orthogonally similar to M, so
    # sigma_min(lam*I - G) >= delta too, up to the reduction's rounding.
    # Each |R_ii| of a QR of lam*I - G is at least sigma_min, and each
    # pivot of its Hessenberg elimination at least sigma_min/2: up to the
    # row swaps, L is unit lower bidiagonal with multipliers at most 1, so
    # ||L||_2 <= 2.  For lam past an end moved out by the margin, delta/2
    # exceeds the zero rule's PIVOT_RTOL*(|lam| + norm) by at least
    # (n - 1)*PIVOT_RTOL*(|end| + norm) less a few ulps, with n >= 2 here
    # (order 1 is symmetric).  eigvalsh's ends are within some n ulps of
    # ||H||_2 of H's, and forming H in floating point moves them by at most
    # half an ulp of ||H||_F <= sqrt(n)*||H||_2 more, so the pad of
    # 8*(n + 1) ulps of ||H||_inf >= ||H||_2 covers both; the reduction
    # moves the pivots and |R_ii| by some n ulps of |lam| + ||G||, far below
    # that slack.  So no pivot meets the zero rule, none changes sign, and
    # the value has the sign of det(lam*I - G): positive above every real
    # eigenvalue, (-1)**n below them.
    n = a.shape[0]
    scale = _unit_scale(a)
    u = a / scale
    h = 0.5 * (u + u.T)
    ends = np.linalg.eigvalsh(h)
    pad = 8.0 * (n + 1) * sys.float_info.epsilon * float(abs(h).sum(1).max())
    lo, hi = _scaled_back(float(ends[0]) - pad, float(ends[-1]) + pad, scale)
    rn = 2.0 * n * PIVOT_RTOL
    margins = rn * (abs(lo) + norm), rn * (abs(hi) + norm)
    if not margins[0] >= _MIN_NORMAL:
        lo = -math.inf
    if not margins[1] >= _MIN_NORMAL:
        hi = math.inf
    return lo - margins[0], hi + margins[1]


def _char_form(matrix: DenseMatrix) -> partial:
    """The cached evaluator behind ``char_fn``, a ``partial`` of one kernel
    bound to the matrix's reduced form: ``_sturm_det`` for an exactly
    symmetric matrix, else ``_hessenberg_det`` up to order
    ``_HESSENBERG_MAX_ORDER`` and ``_shifted_qr_det`` above it.  The same
    step caches the ends that ``_form_interval`` reads: T's Gerschgorin
    interval, or the Bendixson interval, which costs one ``eigvalsh``.  A
    symmetric matrix takes T's: there H is M, and its interval would be
    the spectrum itself."""
    if matrix._form is None:
        a = matrix.entries
        if np.array_equal(a, a.T):
            form, matrix._ends = _tridiagonalize(a)
            matrix._form = partial(_sturm_det, form)
        else:
            (rows,), neg = _abs_sums(a, 1), _hessenberg(a)
            norm = float(rows.max())
            matrix._ends = _bendixson_ends(a, norm)
            bound = max(norm, float(abs(neg.diagonal()).max()))
            if matrix.order <= _HESSENBERG_MAX_ORDER:
                first, *rest = neg.tolist()
                head = (first[0], first[1], first[:1:-1])
                rows = [(row[k - 1], row[k], row[:k:-1]) for k, row in enumerate(rest, 1)]
                matrix._form = partial(_hessenberg_det, head, rows, norm, bound)
            else:
                lwork = _geqrf_lwork(matrix.order)
                sub = neg.diagonal(-1)  # -g_{k+1,k}
                odd = bool(np.count_nonzero(sub) % 2)
                sub_min = float(abs(sub).min())
                matrix._form = partial(
                    _shifted_qr_det, neg.T.copy(), lwork, norm, bound, odd, sub_min
                )
    return matrix._form


def _form_interval(matrix: DenseMatrix) -> tuple[float, float]:
    """``(lo, hi)`` such that ``char_fn(matrix, lam)`` is nonzero, with the
    monic sign, positive above and of sign ``(-1)**n`` below, at every
    ``lam`` outside ``[lo, hi]``, and so has no zero and no sign change
    there; at ``lo`` and ``hi`` too, but for the zero matrix, whose
    interval is ``(0.0, 0.0)``.  Either end may be infinite.  It is the
    Gerschgorin interval of T for a symmetric matrix and the Bendixson
    interval for any other, moved out just enough for the kernels' zero
    rule (see ``_sturm_ends`` and ``_bendixson_ends``), and is computed
    once, by the reduction that ``char_fn`` caches; reading it evaluates
    nothing."""
    if matrix._form is None:
        _char_form(matrix)
    return matrix._ends


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
