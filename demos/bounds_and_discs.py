"""
Locating eigenvalues with Gerschgorin discs
===========================================

Every eigenvalue of a square matrix lies in a union of discs centred on
the diagonal entries.  For real eigenvalues only the projection of those
discs onto the real axis matters, so each matrix yields one closed
interval -- and two matrices can only share an eigenvalue where their
intervals overlap.
"""

from pathlib import Path

from common_eig import (
    Axis,
    discs_of,
    intersect,
    interval_of,
    matrix_bounds,
    parse_matrix,
    render_svg,
)

data = Path(__file__).resolve().parent / "data"
a = parse_matrix((data / "A.mat").read_text())
b = parse_matrix((data / "B.mat").read_text())

for name, m in (("A", a), ("B", b)):
    print(f"matrix {name}:")
    for disc in discs_of(m, Axis.ROW):
        print(f"  row {disc.index}: centre {disc.center:g}, radius {disc.radius:g}")
    # column discs give a second, independent enclosure
    print(f"  row interval    {interval_of(discs_of(m, Axis.ROW))}")
    print(f"  column interval {interval_of(discs_of(m, Axis.COLUMN))}")
    print(f"  combined bounds {matrix_bounds(m)}")

band = intersect(matrix_bounds(a), matrix_bounds(b))
print(f"\nshared search interval: {band}")

out = Path("discs.svg")
svg = render_svg(discs_of(a, Axis.ROW), discs_of(b, Axis.ROW), band)
out.write_text(svg, encoding="utf-8")
print(f"wrote disc diagram to {out.resolve()}")
