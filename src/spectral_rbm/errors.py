"""Exception types shared across the package.

Everything raised for a bad input derives from ValidationError so callers
(and the CLI exit-code mapping) can catch one family. ConvergenceError is
the odd one out: the inputs were fine, the iteration just ran out of road.

check_int and check_real hold the one type rule for scalar parameters: any
Python or numpy integral or finite real counts, bool does not.
"""

import math
import numbers


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class SizeLimitError(ValidationError):
    """An exact-enumeration routine was asked to enumerate too many states."""


class DegenerateInputError(ValidationError):
    """Structurally valid input with no defined result, e.g. an all-zero row."""


class FormatError(ValidationError):
    """A serialized model, sidecar, or dataset file is malformed."""


class MissingColumnError(FormatError):
    """A required CSV column is absent."""


class CsvParseError(FormatError):
    """A CSV cell failed to parse.

    Carries the 1-based file line (header is line 1) and the column name
    when known, so the message can point at the offending cell.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ConvergenceError(RuntimeError):
    """An iterative computation did not converge within its budget.

    ``last_iterate`` holds the final iterate so callers can inspect how
    far the computation got.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def _interval(lo, hi, lo_open=False, hi_open=False):
    left = "(-inf" if lo is None else f"{'(' if lo_open else '['}{lo}"
    right = "inf)" if hi is None else f"{hi}{')' if hi_open else ']'}"
    return f"{left}, {right}"


def check_int(name, value, lo=None, hi=None):
    """Raise ValidationError unless value is an integer, not a bool, in [lo, hi].

    A bound of None leaves that side unbounded.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and int(value) < lo) or (hi is not None and int(value) > hi):
        raise ValidationError(f"{name} must lie in {_interval(lo, hi)}, got {value!r}")


def check_real(name, value, lo=None, hi=None, lo_open=False, hi_open=False):
    """Raise ValidationError unless value is a finite real, not a bool, in the interval.

    The interval is [lo, hi] with each end excluded when its *_open flag
    is set; a bound of None leaves that side unbounded.
    """
    finite = isinstance(value, numbers.Real) and (
        isinstance(value, numbers.Integral) or math.isfinite(value)
    )
    if isinstance(value, bool) or not finite:
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    below = lo is not None and (value <= lo if lo_open else value < lo)
    above = hi is not None and (value >= hi if hi_open else value > hi)
    if below or above:
        raise ValidationError(
            f"{name} must lie in {_interval(lo, hi, lo_open, hi_open)}, got {value!r}"
        )
