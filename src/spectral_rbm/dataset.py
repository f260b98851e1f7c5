"""Labeled datasets: CSV round trips, stratified splitting, synthetic generation.

CSV layout is a header row naming every column once, one column holding
integer class labels (named "label" unless told otherwise), every other
column a finite real feature. Values are written with shortest-round-trip
float formatting, so save followed by load reproduces the array exactly;
whole numbers are written without a decimal point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvParseError,
    FormatError,
    MissingColumnError,
    ValidationError,
    check_int,
    check_labels,
    check_real,
    check_rows,
)
from .markov import MAX_SEED, SeededRng


@dataclass
class LabeledDataset:
    """Feature matrix with one integer class label per row."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple | None = None

    def __post_init__(self):
        self.features = check_rows("features", self.features, empty_ok=True)
        self.labels = check_labels("labels", self.labels, self.features.shape[0], empty_ok=True)
        if self.feature_names is not None:
            self.feature_names = tuple(str(name) for name in self.feature_names)
            if len(self.feature_names) != self.features.shape[1]:
                raise ValidationError(
                    f"{len(self.feature_names)} feature names for {self.features.shape[1]} columns"
                )

    @property
    def sample_count(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def class_ids(self):
        """Sorted distinct labels present."""
        return sorted(int(c) for c in np.unique(self.labels))

    def class_matrices(self):
        """Rows grouped by class id, original order preserved within a class."""
        return {c: self.features[self.labels == c] for c in self.class_ids()}

    def subset(self, indices):
        return LabeledDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/test split: per-class shuffle, floor(count * fraction) to train."""

    train_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_real("train_fraction", self.train_fraction, 0.0, 1.0, lo_open=True, hi_open=True)
        check_int("seed", self.seed, 0, MAX_SEED)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic binary dataset: block templates per class plus bit-flip noise.

    The first ceil(separation * dim) dimensions form the signal region,
    divided into one contiguous block per class; class c's template is 1
    exactly on its own block. Each sample copies its class template and
    flips every bit independently with probability noise. separation = 1
    with two classes makes the templates complementary halves.
    """

    classes: int = 2
    samples_per_class: int = 200
    dim: int = 100
    separation: float = 1.0
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_int("classes", self.classes, 2)
        check_int("samples_per_class", self.samples_per_class, 1)
        check_int("dim", self.dim, 1)
        check_real("separation", self.separation, 0.0, 1.0, lo_open=True)
        check_real("noise", self.noise, 0.0, 1.0)
        check_int("seed", self.seed, 0, MAX_SEED)
        # every class needs at least one dimension of its own block
        if math.ceil(self.separation * self.dim) < self.classes:
            raise ValidationError(
                f"separation {self.separation} over dim {self.dim} leaves fewer "
                f"structured dimensions than classes ({self.classes})"
            )


def _format_value(x):
    xf = float(x)
    if xf.is_integer():
        return str(int(xf))
    return repr(xf)


def load_csv(path, label_column="label"):
    """Read a labeled CSV.

    Raises FileNotFoundError for a missing file, FormatError for a header
    that names a column twice, MissingColumnError when the label column is
    absent, and CsvParseError (naming the 1-based file line and the column)
    for any cell that does not parse.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a header row") from None
        if len(set(header)) < len(header):
            name = next(name for i, name in enumerate(header) if name in header[:i])
            raise FormatError(f"{path}: header names column {name!r} more than once")
        if label_column not in header:
            raise MissingColumnError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        label_idx = header.index(label_column)
        feature_names = [name for i, name in enumerate(header) if i != label_idx]

        rows = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}",
                    line=line_no,
                )
            try:
                labels.append(int(row[label_idx].strip()))
            except ValueError:
                raise CsvParseError(
                    f"{path}: row {line_no}, column {label_column!r}: "
                    f"label {row[label_idx]!r} is not an integer",
                    line=line_no,
                    column=label_column,
                ) from None
            parsed = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                name = header[i]
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: row {line_no}, column {name!r}: {cell!r} is not a number",
                        line=line_no,
                        column=name,
                    ) from None
                if not math.isfinite(value):
                    raise CsvParseError(
                        f"{path}: row {line_no}, column {name!r}: {cell!r} is not finite",
                        line=line_no,
                        column=name,
                    )
                parsed.append(value)
            rows.append(parsed)

    if not rows:
        raise FormatError(f"{path}: no data rows after the header")
    features = np.array(rows, dtype=float).reshape(len(rows), len(feature_names))
    return LabeledDataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        feature_names=feature_names,
    )


def save_csv(ds, path, label_column="label"):
    """Write a labeled CSV that load_csv restores exactly."""
    names = ds.feature_names or [f"f{i + 1}" for i in range(ds.dim)]
    if label_column in names:
        raise ValidationError(f"label column name {label_column!r} collides with a feature name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*names, label_column])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([_format_value(x) for x in row] + [str(int(label))])


def split(ds, spec):
    """Partition a dataset into train and test halves, class by class.

    Each class is shuffled with the seeded rng (classes visited in sorted
    order) and its first floor(count * fraction) rows go to train, the
    remainder to test. A class needs at least 2 rows, and a share that
    floors to 0 training rows is a ValidationError naming the class. No
    test share is empty: fraction < 1 gives floor(count * fraction) <
    count. Row order within each side follows the original dataset.
    """
    if ds.sample_count == 0:
        raise ValidationError("cannot split an empty dataset")
    rng = SeededRng(spec.seed)
    picked = []
    for c in ds.class_ids():
        idx = np.flatnonzero(ds.labels == c)
        if idx.size < 2:
            raise ValidationError(
                f"stratified split needs >= 2 samples per class, class {c} has {idx.size}"
            )
        take = math.floor(idx.size * spec.train_fraction)
        if take == 0:
            raise ValidationError(f"train_fraction {spec.train_fraction} leaves class {c} "
                                  f"no training rows (it has {idx.size})")
        shuffled = idx[rng.permutation(idx.size)]
        picked.append(shuffled[:take])
    train_idx = np.sort(np.concatenate(picked))
    mask = np.zeros(ds.sample_count, dtype=bool)
    mask[train_idx] = True
    return ds.subset(train_idx), ds.subset(np.flatnonzero(~mask))


def _templates(spec):
    length = math.ceil(spec.separation * spec.dim)
    templates = np.zeros((spec.classes, spec.dim))
    for c in range(spec.classes):
        lo = c * length // spec.classes
        hi = (c + 1) * length // spec.classes
        templates[c, lo:hi] = 1.0
    return templates


def synth_generate(spec):
    """Generate the synthetic dataset described by a SynthSpec.

    Rows come out class-major (all of class 0, then class 1, ...); labels
    are 0 .. classes-1. The rng consumes dim uniforms per sample, in row
    order, whatever the noise level, so outputs are reproducible from the
    seed alone.
    """
    rng = SeededRng(spec.seed)
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.samples_per_class)
    templates = _templates(spec)[labels]
    flips = rng.uniforms(templates.size).reshape(templates.shape) < spec.noise
    rows = np.where(flips, 1.0 - templates, templates)
    names = [f"f{i + 1}" for i in range(spec.dim)]
    return LabeledDataset(features=rows, labels=labels, feature_names=names)
