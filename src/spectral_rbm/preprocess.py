"""Row normalization and threshold binarization.

The pipeline mirrors how raw feature rows become RBM inputs: every row is
scaled to unit Euclidean length, then each entry is cut against a
threshold placed a fraction alpha of the way from the matrix minimum to
the matrix maximum. Entries strictly below the threshold become 0, the
rest become 1, so the maximum always survives as a 1.

The scope on a BinarizationRule says which matrix the (min, max) pair is
taken over when several matrices are in play: PER_MATRIX means each class
block supplies its own statistics, GLOBAL means one pooled pair for
everything. A single call to preprocess_pipeline sees exactly one matrix,
where the two scopes coincide; the distinction is consumed by the
multi-class drivers in the CLI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError, check_real


class Scope(enum.Enum):
    """Which matrix the binarization statistics are computed over."""

    PER_MATRIX = "per-matrix"
    GLOBAL = "global"


@dataclass(frozen=True)
class BinarizationRule:
    """Threshold fraction alpha in (0, 1) plus the statistics scope."""

    alpha: float
    scope: Scope = Scope.PER_MATRIX

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, 1.0, lo_open=True, hi_open=True)
        if not isinstance(self.scope, Scope):
            raise ValidationError(f"scope must be a Scope, got {self.scope!r}")


def l2_normalize(row):
    """Scale a vector to unit Euclidean length.

    Raises DegenerateInputError for the all-zero row, whose direction is
    undefined.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or row.size == 0:
        raise ValidationError(f"expected a nonempty vector, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise ValidationError("vector entries must be finite")
    norm = float(np.sqrt(row @ row))
    if norm == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero row")
    return row / norm


def normalize_rows(matrix):
    """l2_normalize applied to every row of a 2-d array."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ValidationError(f"expected a nonempty 2-d array, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix entries must be finite")
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"cannot normalize all-zero row {int(zero[0])}")
    return matrix / norms[:, None]


def minmax(matrix):
    """(smallest entry, largest entry) of a nonempty matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise ValidationError("minmax of an empty matrix is undefined")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix entries must be finite")
    return float(matrix.min()), float(matrix.max())


def binarize(matrix, rule, lo, hi):
    """Cut entries against lo + alpha*(hi - lo): strictly below -> 0, else -> 1.

    lo and hi usually come from minmax of the same matrix, but a caller can
    pass stored statistics to binarize new data consistently; entries
    outside [lo, hi] then fall on the side the threshold puts them.
    When lo == hi the threshold offset is zero and every entry maps to 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise ValidationError("cannot binarize an empty matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix entries must be finite")
    check_real("lo", lo)
    check_real("hi", hi)
    if lo > hi:
        raise ValidationError(f"lo must not exceed hi, got ({lo}, {hi})")
    return np.where(matrix - lo < rule.alpha * (hi - lo), 0.0, 1.0)


def preprocess_pipeline(matrix, rule):
    """Normalize rows, take this matrix's (min, max), binarize.

    The single-matrix composition of the three steps above; with one
    matrix the rule's scope has nothing to distinguish.
    """
    normalized = normalize_rows(matrix)
    lo, hi = minmax(normalized)
    return binarize(normalized, rule, lo, hi)
