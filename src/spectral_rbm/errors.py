"""The package's three exception types, one per way a run can fail.

ValidationError is a bad input: an argument outside its documented range,
a row of norm 0 to normalize, a model too large to enumerate exactly.
Its subclass FormatError is a malformed file: a CSV, model or sidecar
file that does not parse or breaks an invariant; its message
names the file and, for a CSV cell, the row and the column. The CLI
exits 2 on either. ConvergenceError is the odd one out (exit 4): the
inputs were fine, the iteration just ran out of road.

check_int and check_real hold the one type rule for scalar parameters: any
Python or numpy integral or finite real counts, bool does not.

check_rows, check_vector and check_labels hold the one rule for array
arguments: the argument must convert to a rectangular array of bool,
integer or float values (integer only for labels), with the number of
dimensions, the shape and finite entries the caller asks for. They return
float64 (labels: int64) arrays. A str, object, complex or ragged argument
is a ValidationError naming it, never a numpy error or a silent cast.
"""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class FormatError(ValidationError):
    """A CSV, model or sidecar file is malformed."""


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


def _shown(value):
    """repr(value), or the bit length of an int too long for Python to write in decimal."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"


def check_int(name, value, lo=None, hi=None):
    """Raise ValidationError unless value is an integer, not a bool, in [lo, hi].

    A bound of None leaves that side unbounded.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    if (lo is not None and int(value) < lo) or (hi is not None and int(value) > hi):
        raise ValidationError(f"{name} must lie in {_interval(lo, hi)}, got {_shown(value)}")


def check_real(name, value, lo=None, hi=None, lo_open=False, hi_open=False):
    """Raise ValidationError unless value is a finite real, not a bool, in the interval.

    The interval is [lo, hi] with each end excluded when its *_open flag
    is set; a bound of None leaves that side unbounded. An integer too
    large for float() is not finite.
    """
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if isinstance(value, bool) or not finite:
        raise ValidationError(f"{name} must be a finite real number, got {_shown(value)}")
    below = lo is not None and (value <= lo if lo_open else value < lo)
    above = hi is not None and (value >= hi if hi_open else value > hi)
    if below or above:
        raise ValidationError(
            f"{name} must lie in {_interval(lo, hi, lo_open, hi_open)}, got {_shown(value)}"
        )


def not_utf8(path, exc):
    """The FormatError for a text file that holds bytes UTF-8 cannot decode."""
    return FormatError(f"{path}: not UTF-8 text ({exc.reason}: {exc.object[exc.start:exc.end]!r})")


def is_binary(arr):
    """True iff every entry is exactly 0.0 or 1.0 (vacuously true when empty)."""
    return bool(np.all((arr == 0.0) | (arr == 1.0)))


def _as_array(name, x, kinds):
    """x as an array, when it is rectangular and its dtype kind is in kinds.

    An empty array holds no value of the wrong kind, so its dtype is not checked.
    """
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None
    if arr.size and arr.dtype.kind not in kinds:
        wanted = "integer" if kinds == "iu" else "bool, integer or float"
        raise ValidationError(f"{name} must hold {wanted} values, got dtype {arr.dtype}")
    return arr


def _check_finite(name, arr):
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must have finite entries")


def check_rows(name, x, cols=None, empty_ok=False, binary=False):
    """x as a float64 matrix of finite rows, or raise ValidationError naming it.

    cols fixes the column count. Unless empty_ok, the matrix needs at
    least one row and one column. binary demands entries of exactly 0 or 1.
    """
    arr = _as_array(name, x, "biuf").astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ValidationError(f"{name} must have {cols} columns, got shape {arr.shape}")
    if not empty_ok and arr.size == 0:
        raise ValidationError(f"{name} needs at least one row and column, got shape {arr.shape}")
    if binary:
        if not is_binary(arr):
            raise ValidationError(f"{name} entries must all be 0 or 1")
    else:
        _check_finite(name, arr)
    return arr


def check_vector(name, x, length=None):
    """x as a finite float64 vector, of the given length if one is given."""
    arr = _as_array(name, x, "biuf").astype(np.float64, copy=False)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(f"{name} must have length {length}, got {arr.shape[0]}")
    _check_finite(name, arr)
    return arr


def check_labels(name, x, length=None, empty_ok=False):
    """x as an int64 vector of class labels, of the given length if one is given."""
    arr = _as_array(name, x, "iu")
    if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise ValidationError(f"{name} must fit in int64, got {arr.max()}")
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not empty_ok and arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    return arr.astype(np.int64, copy=False)
