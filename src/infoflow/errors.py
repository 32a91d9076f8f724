"""Exception taxonomy.

InputError covers ingestion and argument problems (CLI exit code 2);
NumericalError covers degeneracies detected during computation (exit code 3).
"""

from __future__ import annotations


class InfoflowError(Exception):
    """Base class for all package errors."""


class InputError(InfoflowError):
    """Invalid file, column, window, or argument."""


class NumericalError(InfoflowError):
    """Numerically degenerate input or failed computation."""


# --- ingestion / series -----------------------------------------------------


class MissingColumn(InputError):
    pass


class NonFiniteValue(InputError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class LengthMismatch(InputError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyFile(InputError):
    pass


class DtMismatch(InputError):
    pass


class TooShortAfterSubsample(InputError):
    pass


class WindowOutOfRange(InputError):
    pass


class WindowTooShort(InputError):
    pass


class GridFormatError(InputError):
    pass


# --- estimation / theory / simulation ---------------------------------------


class DegenerateSeries(NumericalError):
    pass


class CollinearSeries(NumericalError):
    pass


class SingularFisher(NumericalError):
    pass


class NotHurwitz(NumericalError):
    pass


class NonPositiveVariance(NumericalError):
    pass


class DegenerateVariance(NumericalError):
    pass


class NonFiniteState(NumericalError):
    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
