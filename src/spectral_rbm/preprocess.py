"""Row normalization and threshold binarization.

The pipeline mirrors how raw feature rows become RBM inputs: every row is
scaled to unit Euclidean length, then each entry is cut against a
threshold placed a fraction alpha of the way from the matrix minimum to
the matrix maximum. Entries strictly below the threshold become 0, the
rest become 1, so the maximum always survives as a 1.

The scope on a BinarizationRule says which matrix the (min, max) pair is
taken over in a labeled dataset: "per-class" means each class block
supplies its own statistics, "global" means one pooled pair for everything.
binarize_dataset carries that policy out and returns the pooled pair,
which new data is binarized with at test time whatever the scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_labels, check_real, check_rows

# The binarization scopes, spelled as the CLI flag and the config file spell them.
SCOPES = ("per-class", "global")


@dataclass(frozen=True)
class BinarizationRule:
    """Threshold fraction alpha in (0, 1) plus the statistics scope, one of SCOPES."""

    alpha: float
    scope: str = "per-class"

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, 1.0, lo_open=True, hi_open=True)
        if self.scope not in SCOPES:
            raise ValidationError(f"scope must be one of {list(SCOPES)}, got {self.scope!r}")


def normalize_rows(matrix):
    """Scale every row of a 2-d array to unit Euclidean length.

    Raises ValidationError naming the first all-zero row, whose direction
    is undefined.
    """
    matrix = check_rows("matrix", matrix)
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(f"cannot normalize all-zero row {int(zero[0])}")
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
    """Binarize labeled rows under rule.scope; returns (binary, (lo, hi)).

    "per-class" cuts each class against its own (min, max), "global" every
    row against the pooled pair. (lo, hi) is that pooled pair,
    minmax(normalized), whatever the scope: what test data is cut with.
    """
    normalized = check_rows("normalized", normalized)
    labels = check_labels("labels", labels, normalized.shape[0])
    pooled = minmax(normalized)
    if rule.scope == "global":
        return binarize(normalized, rule, *pooled), pooled
    binary = np.empty_like(normalized)
    for c in np.unique(labels):
        idx = labels == c
        binary[idx] = binarize(normalized[idx], rule, *minmax(normalized[idx]))
    return binary, pooled
