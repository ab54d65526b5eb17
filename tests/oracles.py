"""Independent reference implementations used only to cross-check results.

Deliberately naive and deliberately different from the library:
determinants by cofactor expansion in pure Python arithmetic, and exactly
by fraction-free (Bareiss) elimination over ``fractions.Fraction``, symmetric
eigenvalues by cyclic Jacobi rotations with explicit J^T A J products,
matrix files read token by token with one regex match and one float() per
token, scan grids listed whole before f is called, and sign-change
brackets refined by plain halving.  Five are frozen copies instead, which
the library must match bit for bit:
``copying_hessenberg_det``, an earlier form of ``matrix._hessenberg_det``
that copies its rows; ``numpy_qr_det``, the QR determinant through
``np.linalg.qr`` that ``matrix._shifted_qr_det`` computed before it called
LAPACK ``dgeqrf`` directly; ``scaled_sturm_det``, the Sturm pass
``matrix._sturm_det`` ran when it multiplied every pivot by the scale;
``itp_bisect``, ``rootfind.bisect`` as it was when a helper made each
ITP point; and ``refine_every_cell``, the pipeline's search as it was
before it paired the cells first, bisecting every sign-change cell.
``numpy_qr_det`` of ``x`` with ``||x||_inf`` is also the tests' dense QR
reference for ``det(x)``.
"""

import math
import re
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from common_eig import MatrixFormatError
from common_eig.gerschgorin import intersect, matrix_bounds
from common_eig.matrix import PIVOT_RTOL, _form_interval, _full_prod, char_fn
from common_eig.pipeline import Mode, match_roots
from common_eig.rootfind import (
    RootEstimate,
    RootOrigin,
    ScanEvent,
    ScanRecord,
    _check_finite,
    _grid_span,
    _opposite_signs,
    bisect,
    scan,
)

# The constants of the frozen bisection, as they were written.
_ITP_KAPPA = 0.2
_ITP_N0 = 2


def cofactor_determinant(matrix) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    rows = [[float(v) for v in row] for row in np.asarray(matrix)]
    return _cofactor(rows)


def _cofactor(rows) -> float:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    sign = 1.0
    for j in range(n):
        if rows[0][j] != 0.0:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += sign * rows[0][j] * _cofactor(minor)
        sign = -sign
    return total


def exact_char_det(matrix, lam) -> Fraction:
    """det(lam*I - M) exactly: every float is a rational, and Bareiss
    elimination over them divides only where the quotient is exact (each
    entry after step k is a minor of order k + 2), with a row swap where a
    pivot is 0."""
    rows = [[-Fraction(float(v)) for v in row] for row in np.asarray(matrix)]
    n = len(rows)
    for i in range(n):
        rows[i][i] += Fraction(float(lam))
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for row in rows[k + 1 :]:
            head = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - head * rows[k][j]) / prev
        prev = pivot
    return sign * rows[n - 1][n - 1]


def jacobi_eigenvalues(matrix, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Each rotation J(p, q) zeroes one off-diagonal pair; applying J^T A J as
    a full matrix product keeps the code obviously symmetric at the cost of
    speed, which is irrelevant at test sizes.  Converged diagonals are
    correct to far better than 1e-9.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                tau = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


_TOKEN = re.compile(r"\S+")
_ORDER = re.compile(r"\+?\d+")


def token_walk_parse(text: str) -> np.ndarray:
    """The matrix file format read one token at a time: the entries as an
    (n, n) float64 array, or a ``MatrixFormatError`` for the first error in
    file order, with the library's message, line and column."""
    lines = []
    text = text[1:] if text.startswith("\ufeff") else text
    # a line ends at LF, CR LF or CR; other breaks are whitespace in a line
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, raw))
    if not lines:
        raise MatrixFormatError("no matrix data found")

    header_no, header = lines[0]
    tokens = list(_TOKEN.finditer(header))
    if len(tokens) != 1:
        raise MatrixFormatError(
            "matrix order line must hold a single positive integer",
            header_no,
            tokens[1].start() + 1,
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
        raise MatrixFormatError(
            f"unexpected content on line {row_lines[n][0]} after row {n}"
        )

    rows = []
    for lineno, raw in row_lines:
        toks = list(_TOKEN.finditer(raw))
        if len(toks) != n:
            raise MatrixFormatError(f"line {lineno}: expected {n} values, found {len(toks)}")
        row = []
        for tok in toks:
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
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def plain_bisect(f, lo, hi, flo, fhi, width_tol):
    """Bisection by plain halving: the bracket, stop rules and estimate of
    ``rootfind.bisect`` with every step at the midpoint 0.5·lo + 0.5·hi.
    Returns a ``RootEstimate``; raises ``ValueError`` as ``bisect`` does."""
    if width_tol < 0.0:
        raise ValueError("width_tol must be non-negative")
    if not lo < hi:
        raise ValueError(f"bracket is empty or reversed: [{lo}, {hi}]")
    if not _opposite_signs(flo, fhi):
        raise ValueError(f"f({lo}) = {flo} and f({hi}) = {fhi} do not change sign")

    est, fest = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    iterations = 0
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        est, fest = mid, float(f(mid))
        iterations += 1
        if fest == 0.0:
            break
        if _opposite_signs(flo, fest):
            hi = mid
        else:
            lo, flo = mid, fest
        if hi - lo <= width_tol:
            break
    return RootEstimate(
        value=est,
        residual=abs(fest),
        bracket_lo=lo,
        bracket_hi=hi,
        iterations=iterations,
        origin=RootOrigin.BISECTION,
    )


def copying_hessenberg_det(head, rows, norm, lam):
    """det(lam*I - G) by the elimination ``matrix._hessenberg_det`` did
    before it split its rows: -G as whole lists, head its row 0 and
    rows[k] its row k+1 from the subdiagonal entry on, with each step
    copying one row and slicing two."""
    tol = PIVOT_RTOL * (abs(lam) + norm)
    r = head[:]
    r[0] += lam
    pivots = []
    swaps = 0
    for row in rows:
        p = row[:]
        p[1] += lam
        if abs(p[0]) > abs(r[0]):
            r, p = p, r
            swaps += 1
        if abs(r[0]) <= tol:
            return 0.0
        pivots.append(r[0])
        m = p[0] / r[0]
        r = [y - m * x for x, y in zip(r[1:], p[1:])]
    if abs(r[0]) <= tol:
        return 0.0
    pivots.append(r[0])
    det = math.prod(pivots) or _full_prod(pivots)
    return -det if swaps % 2 else det


def numpy_qr_det(a, scale):
    """det(a) by ``np.linalg.qr(a, mode="raw")``: the reflectors' sign times
    prod(diag R), exactly 0.0 where some |R_ii| is at most
    PIVOT_RTOL * scale."""
    h, tau = np.linalg.qr(a, mode="raw")
    diag = h.diagonal().tolist()
    if min(map(abs, diag)) <= PIVOT_RTOL * scale:
        return 0.0
    det = math.prod(diag) or _full_prod(diag)
    return -det if np.count_nonzero(tau) % 2 else det


class SturmForm(NamedTuple):
    """The tridiagonal form as ``scaled_sturm_det`` reads it: T's diagonal
    and its squared off-diagonal (0.0 first) as two lists."""

    diag: list
    offdiag_sq: list
    norm: float
    scale: float
    pivmin: float


def _pivots(form, mu):
    """The LDL^T pivots of mu*I - T, as ``scaled_sturm_det``'s loop inlines them."""
    q, pivmin = 1.0, form.pivmin
    for d, e2 in zip(form.diag, form.offdiag_sq):
        q = mu - d - e2 / q
        if -pivmin < q < pivmin:
            q = -pivmin
        yield q


def scaled_sturm_det(form, lam):
    """det(lam*I - M) from the Sturm pass over a ``SturmForm`` of M, each
    pivot multiplied into the product as scale * q."""
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


def lattice_scan(f, interval, step):
    """The scan grid listed whole, then evaluated in order: lo (-0.0 read
    as 0.0), the multiples k*step with round(lo/step) < k < round(hi/step),
    and hi, or lo alone for a point interval.  Each record's event is
    decided by its value and the next one's.  The records, calls of f and
    errors of ``rootfind.scan`` at a step its size and spacing checks
    admit."""
    _check_finite("step", step, positive=True)
    if interval.empty:
        return []
    lo, hi = interval.lo, interval.hi
    points = [lo + 0.0]
    if lo < hi:
        points += [k * step for k in range(round(lo / step) + 1, round(hi / step))] + [hi]
    values = []
    for x in points:
        values.append(float(f(x)))
    nexts = values[1:] + [math.nan]
    return [ScanRecord(x, v, _event(v, w)) for x, v, w in zip(points, values, nexts)]


def _event(value, next_value=math.nan):
    """The event of a grid point where f is value and f at the next grid
    point is next_value (nan for the last point, which has none)."""
    if _opposite_signs(value, next_value):
        return ScanEvent.SIGN_CHANGE_AHEAD
    return ScanEvent.ZERO_HIT if value == 0.0 else ScanEvent.NONE


def _itp_point(lo, hi, mid, flo, fhi, kappa, bound):
    """The ITP step point strictly inside (lo, hi), or the midpoint ``mid``.

    Regula falsi between the bracket ends, pulled toward the midpoint by
    kappa·w², then clamped to within bound − w/2 of the midpoint, so that
    neither sub-bracket is wider than bound (Oliveira & Takahashi, ACM TOMS
    47(1), 2020).  ``mid`` where an end value is not finite or rounding
    puts the point on an end or leaves a sub-bracket wider than bound.
    """
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        return mid
    width = hi - lo
    # flo and fhi differ in sign, so 1 - fhi/flo > 1: no overflow to nan
    falsi = lo + width / (1.0 - fhi / flo)
    gap = mid - falsi
    pull = kappa * width * width
    x = falsi + math.copysign(pull, gap) if pull <= abs(gap) else mid
    reach = bound - 0.5 * width
    if abs(x - mid) > reach:
        x = mid - math.copysign(reach, gap)
    if lo < x < hi and x - lo <= bound and hi - x <= bound:
        return x
    return mid


def itp_bisect(f, lo, hi, flo, fhi, width_tol):
    """ITP bisection with each step point made by a helper:
    ``rootfind.bisect`` as it was, with the same estimate, calls of f and
    errors."""
    _check_finite("width_tol", width_tol)
    if not lo < hi:
        raise ValueError(f"bracket is empty or reversed: [{lo}, {hi}]")
    if not _opposite_signs(flo, fhi):
        raise ValueError(f"f({lo}) = {flo} and f({hi}) = {fhi} do not change sign")

    width = hi - lo
    itp = 0.0 < width_tol and 4.0 * width < math.inf
    if itp:
        ulp = math.ulp(max(-lo, hi))
        anchor = width_tol - math.fmod(width_tol, ulp) - ulp
        itp = anchor > 0.0
        halving_tol = width_tol + ulp
        halvings = math.frexp(width / halving_tol)[1]
        if math.ldexp(halving_tol, halvings - 1) >= width:
            halvings -= 1
        top = halvings + _ITP_N0 - 1
    kappa = _ITP_KAPPA / width

    est, fest = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    iterations = 0
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if itp:
            bound = math.ldexp(anchor, top - iterations)
            est = _itp_point(lo, hi, mid, flo, fhi, kappa, bound)
        else:
            est = mid
        fest = float(f(est))
        iterations += 1
        if math.isnan(fest):
            raise ValueError(f"f({est!r}) is nan inside the bracket [{lo!r}, {hi!r}]")
        if fest == 0.0:
            break
        if _opposite_signs(flo, fest):
            hi, fhi = est, fest
        else:
            lo, flo = est, fest
        if hi - lo <= width_tol:
            break
    return RootEstimate(
        value=est,
        residual=abs(fest),
        bracket_lo=lo,
        bracket_hi=hi,
        iterations=iterations,
        origin=RootOrigin.BISECTION,
    )


def refine_every_cell(matrix_a, matrix_b, config):
    """The pipeline's search with every sign-change cell bisected: each
    matrix's window (the proposed mode's span of the search grid around
    the form interval, or the conventional mode's whole interval) scanned,
    each zero hit taken and each sign-change cell refined by ``bisect``,
    and the roots paired by ``match_roots``.  Returns ``(roots_a, roots_b,
    common, evaluations)`` with the roots as tuples and ``evaluations``
    the (A, B) counts: grid points plus bisection steps."""
    bounds = matrix_bounds(matrix_a), matrix_bounds(matrix_b)
    searches = bounds if config.mode is Mode.CONVENTIONAL else [intersect(*bounds)] * 2
    roots, evaluations = [], []
    for matrix, search in zip((matrix_a, matrix_b), searches):
        window = search
        if config.mode is Mode.PROPOSED and not search.empty:
            window = _grid_span(search, config.step, *_form_interval(matrix))
        f = partial(char_fn, matrix)
        records = scan(f, window, config.step)
        found = []
        for idx, rec in enumerate(records):
            if rec.event is ScanEvent.ZERO_HIT:
                at_end = idx in (0, len(records) - 1)
                origin = RootOrigin.ENDPOINT_ZERO if at_end else RootOrigin.GRID_ZERO
                found.append(RootEstimate(rec.lam, abs(rec.value), rec.lam, rec.lam, 0, origin))
            elif rec.event is ScanEvent.SIGN_CHANGE_AHEAD:
                nxt = records[idx + 1]
                found.append(bisect(f, rec.lam, nxt.lam, rec.value, nxt.value, config.width_tol))
        roots.append(tuple(found))
        evaluations.append(len(records) + sum(r.iterations for r in found))
    return (*roots, match_roots(*roots, config.match_tol), tuple(evaluations))
