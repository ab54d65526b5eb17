"""Real eigenvalue localization and common-eigenvalue detection.

The package bounds the real eigenvalues of a square matrix with
Gerschgorin discs, locates them by scanning the characteristic function
f(lambda) = det(lambda*I - M) for zeros and sign changes followed by
bisection, and detects eigenvalues shared by two matrices by searching
only the intersection of their inclusion intervals.
"""

from .gerschgorin import (
    EMPTY_INTERVAL,
    Disc,
    RealInterval,
    discs_of,
    intersect,
    matrix_bounds,
)
from .matrix import (
    DenseMatrix,
    MatrixFormatError,
    char_fn,
    parse_matrix,
)
from .pipeline import (
    AnalysisConfig,
    BenchmarkSummary,
    CommonEigenReport,
    Mode,
    common_eigenvalues,
    match_roots,
    run_benchmark,
)
from .reporting import emit_json_report, emit_scan_table, render_svg
from .rootfind import (
    RootEstimate,
    RootOrigin,
    ScanEvent,
    ScanRecord,
    bisect,
    find_real_roots,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrices and their characteristic function
    "DenseMatrix",
    "MatrixFormatError",
    "parse_matrix",
    "char_fn",
    # disc geometry
    "Disc",
    "RealInterval",
    "EMPTY_INTERVAL",
    "discs_of",
    "intersect",
    "matrix_bounds",
    # scalar root finding
    "ScanEvent",
    "ScanRecord",
    "RootOrigin",
    "RootEstimate",
    "scan",
    "bisect",
    "find_real_roots",
    # pipeline
    "Mode",
    "AnalysisConfig",
    "CommonEigenReport",
    "BenchmarkSummary",
    "common_eigenvalues",
    "match_roots",
    "run_benchmark",
    # emitters
    "render_svg",
    "emit_scan_table",
    "emit_json_report",
]
