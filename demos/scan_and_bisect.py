"""
Scanning the characteristic function and refining brackets
==========================================================

det(lambda I - M) changes sign whenever lambda crosses a simple real
eigenvalue.  A fixed-step sweep over the Gerschgorin interval flags the
cells where that happens; bisection then shrinks each cell to the root.
Each bisection step lands on an ITP point, regula falsi pulled toward the
midpoint, so a smooth cell like the Fibonacci matrix's below takes 7 steps
to a 1e-10 bracket where halving takes 30.  The point may lag halving's
bracket by two steps, never more, so no cell costs more than two steps
over halving.
"""

import math
from pathlib import Path

from common_eig import (
    DenseMatrix,
    GridScan,
    ScanEvent,
    bisect,
    char_fn,
    emit_scan_table,
    find_real_roots,
    matrix_bounds,
    parse_matrix,
    scan,
)

data = Path(__file__).resolve().parent / "data"
a = parse_matrix((data / "A.mat").read_text())
fa = lambda x: char_fn(a, x)  # noqa: E731

interval = matrix_bounds(a)
print(f"scanning {interval} in steps of 0.1\n")

records = scan(fa, interval)
print("flagged grid points:")
for rec in records:
    if rec.event is not ScanEvent.NONE:
        print(f"  lambda = {rec.lam:6.3f}  det = {rec.value: .6f}  [{rec.event.value}]")

# A has an integer spectrum, so every root sits exactly on the tenths
# grid and is caught as a zero hit.  Irrational eigenvalues land between
# grid points instead: the Fibonacci matrix has the golden ratio and its
# conjugate as eigenvalues.
fib = DenseMatrix([[1.0, 1.0], [1.0, 0.0]])
ff = lambda x: char_fn(fib, x)  # noqa: E731
fib_records = scan(ff, matrix_bounds(fib))

print(f"\nflagged cells for the Fibonacci matrix over {matrix_bounds(fib)}:")
for i, rec in enumerate(fib_records):
    if rec.event is ScanEvent.SIGN_CHANGE_AHEAD:
        nxt = fib_records[i + 1]
        lo, hi = rec.lam, nxt.lam
        root = bisect(ff, lo, hi, rec.value, nxt.value)
        print(
            f"  [{lo:5.2f}, {hi:5.2f}] -> {root.value:.12f} "
            f"after {root.iterations} iterations (residual {root.residual:.2e})"
        )

phi = (1.0 + math.sqrt(5.0)) / 2.0
roots = find_real_roots(GridScan(ff, matrix_bounds(fib)))
print("\nrecovered spectrum vs closed form:")
print(f"  {roots[0].value:.12f}  vs  1 - phi = {1.0 - phi:.12f}")
print(f"  {roots[1].value:.12f}  vs      phi = {phi:.12f}")

table = emit_scan_table(records)
print("\nfirst rows of the scan table for A:")
for line in table.split("\n")[:6]:
    print(f"  {line}")
