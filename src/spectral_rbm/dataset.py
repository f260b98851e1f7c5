"""Labeled datasets: CSV round trips, stratified splitting, synthetic generation.

CSV layout is a header row naming every column once, one column named
"label" holding integer class labels, in any position, and every other
column a finite real feature. Values are written with shortest-round-trip
float formatting, so save followed by load reproduces the array exactly;
whole numbers are written without a decimal point.

load_csv scans the body's bytes once, in whole lines, and reads it on a
fast path when its bytes and lines are ones that float() and int() would
read to the same values. The scan checks every physical line's cell count
and collects its label cell, which int() then reads. A 0/1 body with the
label last, one digit and one comma per feature cell as save_csv writes
it, decodes its features from the scanned digits; any other such body
reads them in one float np.loadtxt pass. Every other body goes through a
csv.reader loop, the only code that reports a bad cell by line and
column. save_csv writes a 0/1 matrix from a uint8 byte array and any
other matrix row by row, to the same text either way.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    ValidationError,
    check_int,
    check_labels,
    check_real,
    check_rows,
    is_binary,
    not_utf8,
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
        return _distinct(self.labels)

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

    The dim dimensions are divided into one contiguous block per class;
    class c's template is 1 exactly on its own block, so two classes make
    the templates complementary halves. Each sample copies its class
    template and flips every bit independently with probability noise.
    """

    classes: int = 2
    samples_per_class: int = 200
    dim: int = 100
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_int("classes", self.classes, 2)
        check_int("samples_per_class", self.samples_per_class, 1)
        check_int("dim", self.dim, 1)
        check_real("noise", self.noise, 0.0, 1.0)
        check_int("seed", self.seed, 0, MAX_SEED)
        if self.dim < self.classes:
            raise ValidationError(f"dim {self.dim} is fewer than classes ({self.classes}): "
                                  "every class needs a dimension of its own")


# Bytes a body may hold for a fast path. Quotes, letters other than the
# exponent and control characters go to the csv.reader loop: loadtxt skips
# U+001C-U+001F as whitespace where float() refuses them.
_FAST_BYTES = b"0123456789+-.eE, \r\n"
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Bytes _scan_body reads at a time before it completes the line it stopped in:
# enough that a read's fixed cost is small, few enough that a read and its list
# of lines stay far below the size of the matrix being loaded.
_SCAN_READ = 1 << 16


def _scan_body(fh, label_idx, width):
    """(label cells, feature digits) of the rest of a binary file, or None.

    Each read takes _SCAN_READ bytes and then the rest of the line it
    stopped in, so a line, its cells and a \\r\\n always fall within one
    read. \\n, \\r and \\r\\n each end a line, as they do for csv.reader
    over a file opened with newline="".

    The label cells are the bytes of each physical line's cell label_idx.
    The feature digits are the 0/1 bytes of every line's cells before the
    label, row after row, when the label is last and every line starts
    with width - 1 one-digit cells of 0 or 1: each cell then sits at a
    fixed offset. Otherwise the digits are None.

    None at a byte outside _FAST_BYTES, at a line that does not hold
    exactly width - 1 commas (with no quotes, a row of width cells), and
    at a cell longer than csv.field_size_limit(), which csv.reader refuses
    and loadtxt does not.
    """
    limit = csv.field_size_limit()
    commas = width - 1
    fixed = b"," * commas  # the odd bytes of a 0/1 line's features
    digits = [] if label_idx == commas else None
    cells = []
    for chunk in iter(lambda: fh.read(_SCAN_READ) + fh.readline(), b""):
        if chunk.translate(None, _FAST_BYTES):
            return None
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = chunk.split(b"\n")
        if not lines[-1]:  # the read ended at a line end, not at the end of the file
            lines.pop()
        for line in lines:
            if line.count(b",") != commas or (
                    len(line) > limit and max(map(len, line.split(b","))) > limit):
                return None
            if label_idx < commas:
                cells.append(line.split(b",", label_idx + 1)[label_idx])
                continue
            cells.append(line.rpartition(b",")[2])
            if digits is not None:
                # width - 1 commas at the odd offsets leave none in the label cell
                bits = line[:2 * commas:2]
                if line[1:2 * commas:2] == fixed and not bits.translate(None, b"01"):
                    digits.append(bits)
                else:
                    digits = None
    return cells, None if digits is None else b"".join(digits)


def _fast_body(path, header_lines, label_idx, width):
    """(features, labels) of the body, or None when the csv.reader loop must read it.

    One byte scan (_scan_body) checks every line and yields the label
    cells, which int() reads as the loop does. A 0/1 body with the label
    last, as save_csv writes one, decodes its features from the scan's
    digits; any other body reads them in one np.loadtxt pass through the
    scan's handle, from the same byte offset. None unless the body holds
    only _FAST_BYTES, every physical line is a row of width cells, every
    cell parses, every label fits in int64 and every feature is finite:
    then float() and int() would have read the same values.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        offset = sum(len(fh.readline().encode("utf-8")) for _ in range(header_lines))
    with open(path, "rb") as fh:
        fh.seek(offset)
        scanned = _scan_body(fh, label_idx, width)
        if scanned is None or not scanned[0]:
            return None
        cells, digits = scanned
        try:
            labels = [int(cell) for cell in cells]  # int() strips the spaces that cell.strip() would
        except ValueError:
            return None
        if min(labels) < _INT64_MIN or max(labels) > _INT64_MAX:
            return None
        labels = np.array(labels, dtype=np.int64)
        if digits is not None:
            bits = np.frombuffer(digits, dtype=np.uint8).reshape(len(labels), width - 1)
            return (bits - ord("0")).astype(float), labels
        fh.seek(offset)
        try:
            # the scan let through ASCII only; a text wrapper reads a lone \r as a line end
            with warnings.catch_warnings(), io.TextIOWrapper(fh, encoding="ascii") as body:
                warnings.simplefilter("error")
                features = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2,
                                      usecols=[i for i in range(width) if i != label_idx])
        except (ValueError, Warning):
            return None
    # loadtxt skips a blank line, but with width > 1 every line holds a comma
    if not np.isfinite(features).all():
        return None
    return features, labels


def load_csv(path):
    """Read a labeled CSV.

    Raises FileNotFoundError for a missing file, and FormatError for a
    file that is not UTF-8, a header that names a column twice or lacks
    a "label" column, and any cell that does not parse or is longer than
    csv.field_size_limit(), a non-finite feature or a label outside int64;
    a cell's message names the 1-based file line where its record starts,
    and its column.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, which _fast_body counts as header bytes
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            records = _records(path, reader)
            first = next(records, None)
            if first is None:
                raise FormatError(f"{path}: empty file, expected a header row")
            header = [cell.strip() for cell in first[1]]
            if len(set(header)) < len(header):
                name = next(name for i, name in enumerate(header) if name in header[:i])
                raise FormatError(f"{path}: header names column {name!r} more than once")
            if "label" not in header:
                raise FormatError(f"{path}: label column 'label' not in header {header}")
            label_idx = header.index("label")
            feature_names = [name for i, name in enumerate(header) if i != label_idx]
            fast = _fast_body(path, reader.line_num, label_idx, len(header))
            if fast is None:
                features, labels = _read_body(path, records, header, label_idx)
            else:
                features, labels = fast
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    return LabeledDataset(features=features, labels=labels, feature_names=feature_names)


def _records(path, reader):
    """(file line where it starts, cells) of each record csv.reader reads.

    A quoted cell may span lines, so the start is one past the lines read
    before it. csv.Error, such as a cell over csv.field_size_limit(),
    becomes a FormatError naming that line.
    """
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise FormatError(f"{path}: row {line_no}: {exc}") from None
        yield line_no, row


def _read_body(path, records, header, label_idx):
    """(features, labels) from the csv.reader loop, the one place that names a bad cell."""
    rows = []
    labels = []
    for line_no, row in records:
        if len(row) != len(header):
            raise FormatError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
        cell = row[label_idx].strip()
        try:
            label = int(cell)
        except ValueError:
            label = None
        if label is None or not _INT64_MIN <= label <= _INT64_MAX:
            # an integer is what int() reads: an optional sign, then Unicode decimal
            # digits (\d) with single underscores between them; int() also refuses
            # one past sys.get_int_max_str_digits(), far outside int64
            unsigned = cell[1:] if cell[:1] in ("+", "-") else cell
            integer = re.fullmatch(r"\d+(_\d+)*", unsigned) is not None
            raise FormatError(
                f"{path}: row {line_no}, column 'label': label {row[label_idx]!r} "
                + ("does not fit in int64" if integer else "is not an integer")
            )
        labels.append(label)
        parsed = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            name = header[i]
            try:
                value = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: row {line_no}, column {name!r}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise FormatError(
                    f"{path}: row {line_no}, column {name!r}: {cell!r} is not finite"
                )
            parsed.append(value)
        rows.append(parsed)

    if not rows:
        raise FormatError(f"{path}: no data rows after the header")
    features = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    return features, np.array(labels, dtype=np.int64)


def _binary_body(features, label_ends):
    """Body text of a 0/1 matrix: one uint8 digit and one comma per cell, then the label."""
    width = 2 * features.shape[1]
    cells = np.full((features.shape[0], width), ord(","), dtype=np.uint8)
    cells[:, ::2] = features.astype(np.uint8) + ord("0")
    flat = cells.tobytes().decode("ascii")
    return "".join(flat[i * width:(i + 1) * width] + end for i, end in enumerate(label_ends))


def _real_lines(features, label_ends):
    """Body lines of any matrix: whole values as str(int(x)), the rest as repr(x)."""
    whole = features == np.trunc(features)
    for row, row_whole, end in zip(features, whole, label_ends):
        cells = [str(int(x)) if w else repr(x) for x, w in zip(row.tolist(), row_whole.tolist())]
        yield ",".join([*cells, end])


def save_csv(ds, path):
    """Write a labeled CSV that load_csv restores exactly.

    Whole values are written as integers (-0.0 as 0), every other value as
    its shortest round-trip repr. A header name that load_csv would refuse
    or change is refused before path is opened.
    """
    header = [*(ds.feature_names or [f"f{i + 1}" for i in range(ds.dim)]), "label"]
    seen = set()
    for name in header:
        # load_csv strips each name, drops a byte-order mark before the first and refuses a repeat
        if name != name.strip() or name in seen or (not seen and name.startswith("\ufeff")):
            raise ValidationError(f"header name {name!r} would not read back as written")
        seen.add(name)
    label_ends = [f"{label}\n" for label in ds.labels.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        if is_binary(ds.features):
            fh.write(_binary_body(ds.features, label_ends))
        else:
            fh.writelines(_real_lines(ds.features, label_ends))


def _distinct(labels):
    """Sorted distinct values of an int64 label vector, as Python ints.

    np.unique is not used: with no return_* option numpy 2 asks
    np.ma.is_masked, which imports numpy.ma (about 1.25 MB resident).
    """
    ordered = np.sort(labels)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first].tolist()


def split(ds, spec):
    """Partition a dataset into train and test halves, class by class.

    A thin wrapper over split_indices, which draws each side's rows and
    refuses a class it cannot split; row order within each side follows
    the original dataset.
    """
    train_idx, test_idx = split_indices(ds.labels, spec)
    return ds.subset(train_idx), ds.subset(test_idx)


def split_indices(labels, spec):
    """(train rows, test rows) of a stratified split of labels, each ascending.

    Each class is shuffled with the seeded rng (classes visited in sorted
    order) and its first floor(count * fraction) rows go to train, the
    remainder to test. A class needs at least 2 rows, and a share that
    floors to 0 training rows is a ValidationError naming the class. No
    test share is empty: fraction < 1 gives floor(count * fraction) <
    count. The draws depend only on the labels and spec, so a caller that
    splits several matrices over the same rows draws them once.
    """
    if labels.size == 0:
        raise ValidationError("cannot split an empty dataset")
    rng = SeededRng(spec.seed)
    picked = []
    for c in _distinct(labels):
        idx = np.flatnonzero(labels == c)
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
    mask = np.zeros(labels.size, dtype=bool)
    mask[train_idx] = True
    return train_idx, np.flatnonzero(~mask)


def synth_generate(spec):
    """Generate the synthetic dataset described by a SynthSpec.

    Rows come out class-major (all of class 0, then class 1, ...); labels
    are 0 .. classes-1. The rng consumes dim uniforms per sample, in row
    order, whatever the noise level, so outputs are reproducible from the
    seed alone.
    """
    rng = SeededRng(spec.seed)
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.samples_per_class)
    # class c's block is the columns from c * dim // classes up to (c + 1) * dim // classes
    edges = np.arange(1, spec.classes) * spec.dim // spec.classes
    block = np.searchsorted(edges, np.arange(spec.dim), side="right")
    templates = (block == labels[:, None]).astype(float)
    flips = rng.uniforms(templates.size).reshape(templates.shape) < spec.noise
    rows = np.where(flips, 1.0 - templates, templates)
    names = [f"f{i + 1}" for i in range(spec.dim)]
    return LabeledDataset(features=rows, labels=labels, feature_names=names)
