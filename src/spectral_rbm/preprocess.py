"""Row normalization and threshold binarization.

The pipeline mirrors how raw feature rows become RBM inputs: every row is
scaled to unit Euclidean length, then each entry is cut against a
threshold placed a fraction alpha of the way from a minimum to a maximum.
Entries strictly below the threshold become 0, the rest become 1.

There is one rule: (lo, hi) = minmax of the training rows, and every row,
training or held-out, is cut with that pair. On the training rows the
maximum always survives as a 1; a held-out row may fall outside [lo, hi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_real, check_rows


@dataclass(frozen=True)
class BinarizationRule:
    """Threshold fraction alpha in (0, 1)."""

    alpha: float

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, 1.0, lo_open=True, hi_open=True)


def normalize_rows(matrix):
    """Scale every row of a 2-d array to unit Euclidean length.

    A row cannot be normalized when its norm is 0: a row of zeros, or one
    whose squared entries all underflow (every |entry| below about 1.6e-162).
    Raises ValidationError naming the first such row as a data row counted
    from 1.
    """
    matrix = check_rows("matrix", matrix)
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(f"data row {int(zero[0]) + 1} has norm 0 and cannot be normalized")
    return matrix / norms[:, None]


def minmax(matrix):
    """(smallest entry, largest entry) of a nonempty matrix."""
    matrix = check_rows("matrix", matrix)
    return float(matrix.min()), float(matrix.max())


def binarize(matrix, rule, lo, hi):
    """Cut entries against lo + alpha*(hi - lo): strictly below -> 0, else -> 1.

    lo and hi are minmax of the training rows, whether matrix is those rows
    or new ones; entries outside [lo, hi] fall on the side the threshold
    puts them. When lo == hi the threshold offset is zero and every entry
    at or above lo maps to 1.
    """
    matrix = check_rows("matrix", matrix)
    check_real("lo", lo)
    check_real("hi", hi)
    if lo > hi:
        raise ValidationError(f"lo must not exceed hi, got ({lo}, {hi})")
    return np.where(matrix - lo < rule.alpha * (hi - lo), 0.0, 1.0)
