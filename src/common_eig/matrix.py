"""Dense real matrices, determinants, and the characteristic function.

The characteristic function ``f(lam) = det(lam*I - M)`` is the scalar whose
real roots are the real eigenvalues of ``M``.  Each call evaluates it at one
``lam``, so call counts are evaluation counts.  A general matrix pays one
Householder QR factorization per call (a single LAPACK call made by numpy)
plus O(1) work.  An exactly symmetric matrix is reduced once, on its first
call, to a similar tridiagonal matrix that the immutable ``DenseMatrix``
caches; each call then costs one O(n) pass of LDL^T pivots (Sturm sequences).
"""

from __future__ import annotations

import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyInputError,
    NonFiniteValueError,
    NonNumericTokenError,
    NonSquareError,
    TrailingContentError,
)

__all__ = [
    "DenseMatrix",
    "parse_matrix",
    "render_matrix",
    "determinant",
    "char_fn",
]

# The singular rule of both paths: lam*I - M is singular when its smallest
# |R_ii| (QR), or the distance from lam to an eigenvalue (symmetric, with
# the tridiagonal T for M), is at most PIVOT_RTOL * (|lam| + ||M||_inf).
# With no absolute floor it reads the same at every scale, and an eigenvalue
# on a grid point reads as an exact zero rather than as 1e-16-level noise.
PIVOT_RTOL = 1e-13

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
        # None until the first char_fn call; then the cached _Tridiagonal
        # form of an exactly symmetric matrix, or ||M||_inf of any other.
        self._form = None

    @classmethod
    def identity(cls, order: int) -> "DenseMatrix":
        return cls(np.eye(order))

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


def _significant_lines(text: str):
    """Yield (1-based line number, raw line) skipping blanks and # comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def parse_matrix(text: str) -> DenseMatrix:
    """Parse the plain-text matrix format.

    Blank lines and lines starting with ``#`` are ignored.  The first
    significant line holds the order n; the next n significant lines hold n
    whitespace-separated reals each (scientific notation accepted).  Any
    significant content after the n-th row is an error.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise EmptyInputError("no matrix data found")

    header_no, header = lines[0]
    tokens = list(_TOKEN.finditer(header))
    if len(tokens) != 1:
        bad = tokens[1]
        raise NonNumericTokenError(
            "matrix order line must hold a single positive integer",
            header_no,
            bad.start() + 1,
        )
    order_tok = tokens[0]
    if not _ORDER.fullmatch(order_tok.group()) or int(order_tok.group()) < 1:
        raise NonNumericTokenError(
            f"{order_tok.group()!r} is not a positive integer order",
            header_no,
            order_tok.start() + 1,
        )
    n = int(order_tok.group())

    row_lines = lines[1:]
    if len(row_lines) < n:
        raise NonSquareError(f"expected {n} rows, found {len(row_lines)}")
    if len(row_lines) > n:
        extra_no, _ = row_lines[n]
        raise TrailingContentError(f"unexpected content on line {extra_no} after row {n}")

    rows = []
    for lineno, raw in row_lines:
        toks = list(_TOKEN.finditer(raw))
        if len(toks) != n:
            raise NonSquareError(f"line {lineno}: expected {n} values, found {len(toks)}")
        row = []
        for tok in toks:
            try:
                value = float(tok.group())
            except ValueError:
                raise NonNumericTokenError(
                    f"{tok.group()!r} is not a number", lineno, tok.start() + 1
                ) from None
            if not math.isfinite(value):
                raise NonFiniteValueError(
                    f"line {lineno}: non-finite value {tok.group()!r}"
                )
            row.append(value)
        rows.append(row)
    return DenseMatrix(rows)


def render_matrix(matrix: DenseMatrix) -> str:
    """Full-precision text form; ``parse_matrix`` round-trips it exactly."""
    lines = [str(matrix.order)]
    for row in matrix.entries:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _full_prod(factors, exponent: int = 0) -> float:
    """``2**exponent * prod(factors)``, the mantissa and exponent kept apart;
    a product too small for float64 is the smallest subnormal of its sign."""
    mantissa = 1.0
    for x in factors:
        mantissa, k = math.frexp(mantissa * x)
        exponent += k
    return math.ldexp(mantissa, exponent) or math.copysign(5e-324, mantissa)


def _qr_det(a: np.ndarray, scale: float) -> float:
    # One Householder QR, A = Q*R.  Each reflector with tau != 0 has
    # determinant -1 (tau == 0 is the identity), so det(A) is that sign
    # times the product of diag(R).  The raw layout is transposed, which
    # leaves the diagonal in place.  math.prod multiplies in the same order
    # as ndarray.prod but overflows to +-inf without a warning.
    h, tau = np.linalg.qr(a, mode="raw")
    diag = h.diagonal().tolist()
    if min(map(abs, diag)) <= PIVOT_RTOL * scale:
        return 0.0
    det = math.prod(diag) or _full_prod(diag)
    return -det if np.count_nonzero(tau) % 2 else det


def _norm_inf(a: np.ndarray) -> float:
    return float(abs(a).sum(axis=1).max())


def determinant(matrix: DenseMatrix) -> float:
    """Determinant via Householder QR: the reflectors' sign times ``prod(diag R)``.

    Exactly 0.0 whenever some ``|R_ii|`` sits at or below
    ``PIVOT_RTOL * ||M||_inf``, the ``lam = 0`` case of ``char_fn``'s rule.
    """
    return _qr_det(matrix.entries, _norm_inf(matrix.entries))


class _Tridiagonal(NamedTuple):
    """Symmetric tridiagonal T similar to ``M / scale``.

    ``offdiag_sq[k]`` is the squared entry coupling rows k-1 and k of T, with
    ``offdiag_sq[0] == 0.0``, so the pivot recurrence zips it with ``diag``.
    """

    diag: list[float]
    offdiag_sq: list[float]
    norm: float  # ||T||_inf
    scale: float  # a power of two, so M / scale is exact
    pivmin: float  # smallest pivot magnitude the recurrence lets through


def _tridiagonalize(a: np.ndarray) -> _Tridiagonal:
    """Householder similarity reduction of the symmetric ``a`` to tridiagonal form.

    Works on ``a / scale`` with ``scale`` the power of two at or below the
    largest entry, which keeps every later pivot and norm in range.  A column
    already zero below its subdiagonal gets no reflector (``tau == 0``, as in
    LAPACK ``dlarfg``), so a tridiagonal input comes back unchanged.
    """
    n = a.shape[0]
    peak = float(abs(a).max())
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0
    t = a / scale
    off = np.zeros(n)
    for k in range(n - 2):
        x = t[k + 1 :, k]
        alpha = float(x[0])
        if not x[1:].any():
            off[k + 1] = alpha
            continue
        beta = -math.copysign(math.hypot(alpha, float(np.linalg.norm(x[1:]))), alpha)
        tau = (beta - alpha) / beta
        v = x / (alpha - beta)
        v[0] = 1.0
        # H = I - tau*v*v^T; H*S*H as a symmetric rank-2 update of S.
        sub = t[k + 1 :, k + 1 :]
        p = tau * (sub @ v)
        w = p - (0.5 * tau * float(p @ v)) * v
        sub -= np.outer(v, w) + np.outer(w, v)
        off[k + 1] = beta
    if n > 1:
        off[n - 1] = t[n - 1, n - 2]
    diag = t.diagonal()
    norm = float((abs(diag) + abs(off) + abs(np.append(off[1:], 0.0))).max())
    offdiag_sq = (off * off).tolist()
    # As in LAPACK xSTEBZ, a pivot smaller than pivmin becomes -pivmin,
    # which keeps e^2/q finite.  Taking the square root of the smallest
    # normal float keeps |q| < 1e154, so scale*q overflows only where the
    # pivot pair it belongs to, about -scale^2*e^2, overflows too.  The
    # shift is far below rounding at the unit scale of T.
    pivmin = math.sqrt(sys.float_info.min) * max(1.0, max(offdiag_sq))
    return _Tridiagonal(diag.tolist(), offdiag_sq, norm, scale, pivmin)


def _char_form(matrix: DenseMatrix) -> _Tridiagonal | float:
    """The cached tridiagonal form of an exactly symmetric matrix, else ||M||_inf."""
    if matrix._form is None:
        a = matrix.entries
        matrix._form = _tridiagonalize(a) if np.array_equal(a, a.T) else _norm_inf(a)
    return matrix._form


def _pivots(form: _Tridiagonal, mu: float):
    """The LDL^T pivots of mu*I - T, as ``_sturm_det``'s loop inlines them."""
    q, pivmin = 1.0, form.pivmin
    for d, e2 in zip(form.diag, form.offdiag_sq):
        q = mu - d - e2 / q
        if -pivmin < q < pivmin:
            q = -pivmin
        yield q


def _sturm_det(form: _Tridiagonal, lam: float) -> float:
    # det(lam*I - M) = prod(scale * q_k) over the LDL^T pivots q_k of
    # mu*I - T, mu = lam / scale.  The same pass runs the pivots at mu -+ eps:
    # by Sylvester's law of inertia their negative counts differ exactly when
    # an eigenvalue lies in [mu - eps, mu + eps], and then the value is
    # exactly 0.0.  A pivot below pivmin counts as negative at mu - eps but
    # as positive at mu + eps, which closes the interval for eps = 0 (T = 0
    # at lam = 0).  eps is PIVOT_RTOL * (|lam| + ||T||_inf), unscaled.
    scale, pivmin = form.scale, form.pivmin
    mu = lam / scale
    eps = PIVOT_RTOL * (abs(mu) + form.norm)
    lo, hi = mu - eps, mu + eps
    q = q_lo = q_hi = 1.0
    neg_lo = neg_hi = 0
    det = 1.0
    for d, e2 in zip(form.diag, form.offdiag_sq):
        q = mu - d - e2 / q
        if -pivmin < q < pivmin:
            q = -pivmin
        det *= scale * q
        q_lo = lo - d - e2 / q_lo
        if q_lo < pivmin:
            neg_lo += 1
            if q_lo > -pivmin:
                q_lo = -pivmin
        q_hi = hi - d - e2 / q_hi
        if q_hi <= -pivmin:
            neg_hi += 1
        elif q_hi < pivmin:
            q_hi = pivmin
    if neg_lo != neg_hi:
        return 0.0
    # scale is a power of two, so its factors go into the exponent exactly.
    return det or _full_prod(_pivots(form, mu), len(form.diag) * (math.frexp(scale)[1] - 1))


def char_fn(matrix: DenseMatrix, lam: float) -> float:
    """Evaluate ``det(lam*I - M)`` at a single real ``lam``.

    Monic convention: for ``lam`` above every Gerschgorin upper bound the
    value is strictly positive.  Each call is exactly one determinant
    evaluation.  A general matrix pays one O(n^3) QR factorization of a fresh
    ``lam*I - M``, built as ``-M`` plus ``lam`` on the diagonal.  An exactly
    symmetric matrix pays one O(n^3) reduction to tridiagonal form on its
    first call, cached on the matrix, and O(n) per call after that.  Both
    paths return exactly 0.0 where ``lam*I - M`` is singular by the
    ``PIVOT_RTOL`` rule; a nonzero determinant below the float64 range
    reads as the smallest subnormal of its sign, never as 0.0.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    form = _char_form(matrix)
    if isinstance(form, _Tridiagonal):
        return _sturm_det(form, lam)
    a = np.negative(matrix.entries)
    a.flat[:: matrix.order + 1] += lam
    return _qr_det(a, abs(lam) + form)
