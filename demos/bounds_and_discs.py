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
    DenseMatrix,
    RealInterval,
    discs_of,
    intersect,
    matrix_bounds,
    parse_matrix,
    render_svg,
)


def span(discs):
    """The real-axis shadow of a disc union: [min(c - r), max(c + r)]."""
    lo = min(d.center - d.radius for d in discs)
    hi = max(d.center + d.radius for d in discs)
    return RealInterval(lo, hi)


data = Path(__file__).resolve().parent / "data"
a = parse_matrix((data / "A.mat").read_text())
b = parse_matrix((data / "B.mat").read_text())

for name, m in (("A", a), ("B", b)):
    print(f"matrix {name}:")
    rows = discs_of(m)
    for k, disc in enumerate(rows):
        print(f"  row {k}: centre {disc.center:g}, radius {disc.radius:g}")
    # the column discs, those of the transpose, give a second enclosure;
    # matrix_bounds is the intersection of the two spans
    print(f"  row interval    {span(rows)}")
    print(f"  column interval {span(discs_of(DenseMatrix(m.entries.T)))}")
    print(f"  combined bounds {matrix_bounds(m)}")

band = intersect(matrix_bounds(a), matrix_bounds(b))
print(f"\nshared search interval: {band}")

out = Path("discs.svg")
svg = render_svg(discs_of(a), discs_of(b), band)
out.write_text(svg, encoding="utf-8")
print(f"wrote disc diagram to {out}")
