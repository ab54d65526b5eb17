"""Exception types raised by the library.

:class:`CommonEigError` covers matrix-file problems, which share
:class:`MatrixFormatError`, and :class:`InconsistentModesError`.  A bad
argument to a function or to ``AnalysisConfig`` (an empty interval, a
step, bracket or tolerance out of range) raises ``ValueError`` instead.
"""

from __future__ import annotations

__all__ = [
    "CommonEigError",
    "MatrixFormatError",
    "EmptyInputError",
    "NonSquareError",
    "NonNumericTokenError",
    "NonFiniteValueError",
    "TrailingContentError",
    "InconsistentModesError",
]


class CommonEigError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(CommonEigError):
    """A matrix text stream violates the input format."""


class EmptyInputError(MatrixFormatError):
    """The stream contains no significant lines at all."""


class NonSquareError(MatrixFormatError):
    """Row count does not match the declared order, or a row is ragged."""


class NonNumericTokenError(MatrixFormatError):
    """A token could not be read as a number.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonFiniteValueError(MatrixFormatError):
    """An entry parsed to NaN or an infinity."""


class TrailingContentError(MatrixFormatError):
    """Significant content present after the final matrix row."""


class InconsistentModesError(CommonEigError):
    """The intersected-interval search missed a common value that the
    full-interval search found."""
