"""Row normalization and threshold binarization.

The pipeline mirrors how raw feature rows become RBM inputs: every row is
scaled to unit Euclidean length, then each entry is cut against a
threshold placed a fraction alpha of the way from the matrix minimum to
the matrix maximum. Entries strictly below the threshold become 0, the
rest become 1, so the maximum always survives as a 1.

The scope on a BinarizationRule says which matrix the (min, max) pair is
taken over in a labeled dataset: PER_MATRIX means each class block
supplies its own statistics, GLOBAL means one pooled pair for everything.
binarize_dataset carries that policy out and returns the statistics it
used; the pooled pair is what new data is binarized with at test time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError, check_labels, check_real, check_rows


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
    """normalize_rows of a single vector."""
    return normalize_rows([row])[0]


def normalize_rows(matrix):
    """Scale every row of a 2-d array to unit Euclidean length.

    Raises DegenerateInputError naming the first all-zero row, whose
    direction is undefined.
    """
    matrix = check_rows("matrix", matrix)
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"cannot normalize all-zero row {int(zero[0])}")
    return matrix / norms[:, None]


def minmax(matrix):
    """(smallest entry, largest entry) of a nonempty matrix."""
    matrix = check_rows("matrix", matrix)
    return float(matrix.min()), float(matrix.max())


def binarize(matrix, rule, lo, hi):
    """Cut entries against lo + alpha*(hi - lo): strictly below -> 0, else -> 1.

    lo and hi usually come from minmax of the same matrix, but a caller can
    pass stored statistics to binarize new data consistently; entries
    outside [lo, hi] then fall on the side the threshold puts them.
    When lo == hi the threshold offset is zero and every entry maps to 1.
    """
    matrix = check_rows("matrix", matrix)
    check_real("lo", lo)
    check_real("hi", hi)
    if lo > hi:
        raise ValidationError(f"lo must not exceed hi, got ({lo}, {hi})")
    return np.where(matrix - lo < rule.alpha * (hi - lo), 0.0, 1.0)


def binarize_dataset(normalized, labels, rule):
    """Binarize labeled rows under rule.scope; returns (binary, stats).

    PER_MATRIX cuts each class against its own (min, max), GLOBAL every row
    against the pooled pair. stats holds the (key, value) pairs for the
    sidecar: pooled "min" and "max" (what test data is cut with, whatever
    the scope), then "class.<id>.min"/"max" per ascending id under PER_MATRIX.
    """
    normalized = check_rows("normalized", normalized)
    labels = check_labels("labels", labels, normalized.shape[0])
    pooled_lo, pooled_hi = minmax(normalized)
    stats = [("min", pooled_lo), ("max", pooled_hi)]
    if rule.scope is Scope.GLOBAL:
        return binarize(normalized, rule, pooled_lo, pooled_hi), stats
    binary = np.empty_like(normalized)
    for c in np.unique(labels):
        idx = labels == c
        lo, hi = minmax(normalized[idx])
        binary[idx] = binarize(normalized[idx], rule, lo, hi)
        stats += [(f"class.{int(c)}.min", lo), (f"class.{int(c)}.max", hi)]
    return binary, stats
