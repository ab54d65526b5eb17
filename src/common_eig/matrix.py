"""Dense real matrices, determinants, and the characteristic function.

The characteristic function ``f(lam) = det(lam*I - M)`` is the scalar whose
real roots are the real eigenvalues of ``M``.  Each call evaluates it at one
``lam`` through one Householder QR factorization (a single LAPACK call made
by numpy); nothing is cached, so call counts reflect true work.
"""

from __future__ import annotations

import math
import re

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

# Scale-aware zero test on the diagonal of the QR factor R:
# min |R_ii| <= PIVOT_RTOL * max(1, ||M||_inf) marks the matrix singular.  At
# desk scale this keeps 1e-16-level noise from masquerading as a nonzero
# determinant, so an eigenvalue on a grid point reads as an exact zero.
PIVOT_RTOL = 1e-13

_TOKEN = re.compile(r"\S+")
_ORDER = re.compile(r"\+?\d+")


class DenseMatrix:
    """Immutable real n-by-n matrix backed by a read-only float64 array."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must all be finite")
        arr.flags.writeable = False
        self._entries = arr

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


def _det(a: np.ndarray) -> float:
    # One Householder QR, A = Q*R.  Each reflector with tau != 0 has
    # determinant -1 (tau == 0 is the identity), so det(A) is that sign
    # times the product of diag(R).  The raw layout is transposed, which
    # leaves the diagonal in place.
    h, tau = np.linalg.qr(a, mode="raw")
    diag = h.diagonal()
    tol = PIVOT_RTOL * max(1.0, float(abs(a).sum(axis=1).max()))
    if abs(diag).min() <= tol:
        return 0.0
    det = float(diag.prod())
    return -det if np.count_nonzero(tau) % 2 else det


def determinant(matrix: DenseMatrix) -> float:
    """Determinant via Householder QR: the reflectors' sign times ``prod(diag R)``.

    Exactly 0.0 whenever some ``|R_ii|`` sits at or below the scale-aware
    tolerance ``PIVOT_RTOL * max(1, ||M||_inf)``.
    """
    return _det(matrix.entries)


def char_fn(matrix: DenseMatrix, lam: float) -> float:
    """Evaluate ``det(lam*I - M)`` at a single real ``lam``.

    Monic convention: for ``lam`` above every Gerschgorin upper bound the
    value is strictly positive.  ``lam*I - M`` is materialized freshly per
    call; the cost is one O(n^3) QR factorization, so each call is exactly
    one determinant evaluation.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    return _det(lam * np.eye(matrix.order) - matrix.entries)
