"""Exception types raised by the library.

:class:`CommonEigError` is the base of :class:`MatrixFormatError`, raised
for every bad matrix file.  A bad argument to a function or to
``AnalysisConfig`` (a step, bracket or tolerance out of range) raises
``ValueError`` instead.
"""

from __future__ import annotations

__all__ = [
    "CommonEigError",
    "MatrixFormatError",
]


class CommonEigError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(CommonEigError):
    """A matrix text stream violates the input format.

    A token that is not a number carries the 1-based ``line`` and
    ``column`` where it starts, and the message is prefixed with them;
    for every other error both are ``None``.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
