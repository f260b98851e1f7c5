"""Per-class RBM ensemble with a free-energy soft-max readout.

Each class gets its own RBM trained only on that class's rows. A vector v
is scored per class by -free_energy(v) + offset_c, and the soft-max of
those scores is the class posterior. The offsets absorb the per-model
normalization constants that free energies leave out: at the optimum they
play the role of -log(partition function) up to a shared shift, and they
are fitted by maximizing the training-set log-likelihood of the soft-max,
a concave problem solved by full-batch gradient ascent with offset 0
anchored at zero.

Per-class training seeds derive from the ensemble seed XORed with a
splitmix64 hash of the class id, so adding or removing one class never
perturbs the models of the others.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, check_int, check_real
from .rbm import (
    BinaryReader,
    RbmParams,
    TrainConfig,
    free_energy_batch,
    is_binary,
    rbm_from_bytes,
    rbm_to_bytes,
    train_rbm,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def class_seed(base_seed, class_id):
    """Training seed for one class: base seed XOR splitmix64(class id)."""
    return (int(base_seed) ^ _splitmix64(int(class_id) & _MASK64)) & _MASK64


@dataclass(frozen=True)
class OffsetFitConfig:
    """Gradient-ascent settings for fitting the soft-max offsets.

    The objective is the mean per-sample log-likelihood, whose gradient
    components are bounded by 1, so the default step of 1.0 sits well
    under the curvature limit and ascent is monotone. Iteration stops when
    the gradient infinity-norm reaches tolerance or the budget runs out.
    """

    learning_rate: float = 1.0
    iterations: int = 1000
    tolerance: float = 1e-8

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, 0.0, lo_open=True)
        check_int("iterations", self.iterations, 1)
        check_real("tolerance", self.tolerance, 0.0, lo_open=True)


@dataclass
class ClassEnsemble:
    """Trained per-class models plus their soft-max offsets.

    classes orders the class ids; models and offsets line up with it.
    train_configs records how each model was trained and is required for
    serialization; manually assembled ensembles may leave it None.
    """

    classes: list
    models: list
    offsets: np.ndarray
    train_configs: list | None = None

    def __post_init__(self):
        self.classes = [int(c) for c in self.classes]
        if len(self.classes) < 2:
            raise ValidationError(f"an ensemble needs at least 2 classes, got {len(self.classes)}")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError(f"class ids must be distinct, got {self.classes}")
        if len(self.models) != len(self.classes):
            raise ValidationError(f"{len(self.models)} models for {len(self.classes)} classes")
        for model in self.models:
            if not isinstance(model, RbmParams):
                raise ValidationError(f"models must be RbmParams, got {type(model).__name__}")
        widths = {model.num_visible for model in self.models}
        if len(widths) != 1:
            raise ValidationError(f"models disagree on visible width: {sorted(widths)}")
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.offsets.shape != (len(self.classes),):
            raise ValidationError(
                f"offsets shape {self.offsets.shape} does not match {len(self.classes)} classes"
            )
        if not np.all(np.isfinite(self.offsets)):
            raise ValidationError("offsets must be finite")
        if self.train_configs is not None and len(self.train_configs) != len(self.classes):
            raise ValidationError(
                f"{len(self.train_configs)} train configs for {len(self.classes)} classes"
            )

    @property
    def num_visible(self):
        return self.models[0].num_visible


def fit_offsets(free_energy_table, labels, fit=None):
    """Fit soft-max offsets to a precomputed free-energy table.

    free_energy_table[s, c] holds F_c(row s); labels[s] is the column index
    of row s's true class. Maximizes the mean log soft-max likelihood of
    the labels over the offset vector by exact-gradient ascent, keeping
    offset 0 pinned at zero (the objective only sees offset differences).
    Every column must be represented in labels, otherwise its offset would
    drift off to infinity.
    """
    fit = fit or OffsetFitConfig()
    table = np.asarray(free_energy_table, dtype=float)
    if table.ndim != 2 or table.shape[1] < 2:
        raise ValidationError(f"table must be 2-d with >= 2 columns, got shape {table.shape}")
    if table.shape[0] == 0:
        raise ValidationError("table must have at least one row")
    if not np.all(np.isfinite(table)):
        raise ValidationError("free energies must be finite")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != table.shape[0]:
        raise ValidationError(f"labels shape {labels.shape} does not match {table.shape[0]} rows")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    samples, k = table.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"labels must index the {k} table columns")
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValidationError(f"every class needs at least one sample; class column {missing} has none")

    target = counts / samples
    scores = -table
    beta = np.zeros(k)
    for _ in range(fit.iterations):
        logits = scores + beta
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = target - probs.mean(axis=0)
        if float(np.abs(grad).max()) <= fit.tolerance:
            break
        beta = beta + fit.learning_rate * grad
        beta = beta - beta[0]
    return beta


def train_ensemble(datasets, config, fit=None):
    """Train one RBM per class and fit the soft-max offsets.

    datasets maps class id -> binary row matrix. Classes are trained in
    sorted id order, each with seed class_seed(config.seed, id), then the
    offsets are fitted on the pooled training rows.
    """
    if len(datasets) < 2:
        raise ValidationError(f"need at least 2 classes, got {len(datasets)}")
    classes = sorted(int(c) for c in datasets)
    matrices = []
    for c in classes:
        matrix = np.asarray(datasets[c], dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValidationError(f"class {c}: training matrix must be nonempty and 2-d")
        if not is_binary(matrix):
            raise ValidationError(f"class {c}: training entries must all be 0 or 1")
        matrices.append(matrix)
    widths = {matrix.shape[1] for matrix in matrices}
    if len(widths) != 1:
        raise ValidationError(f"classes disagree on feature width: {sorted(widths)}")

    configs = [replace(config, seed=class_seed(config.seed, c)) for c in classes]
    models = [train_rbm(matrix, cfg) for matrix, cfg in zip(matrices, configs)]

    pooled = np.vstack(matrices)
    column_labels = np.concatenate(
        [np.full(matrix.shape[0], i, dtype=np.int64) for i, matrix in enumerate(matrices)]
    )
    table = np.column_stack([free_energy_batch(pooled, model) for model in models])
    offsets = fit_offsets(table, column_labels, fit)
    return ClassEnsemble(classes=classes, models=models, offsets=offsets, train_configs=configs)


def _score_batch(rows, ensemble):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != ensemble.num_visible:
        raise ValidationError(
            f"rows must be 2-d with {ensemble.num_visible} columns, got shape {rows.shape}"
        )
    scores = np.column_stack([-free_energy_batch(rows, model) for model in ensemble.models])
    return scores + ensemble.offsets


def predict_proba_batch(rows, ensemble):
    """Class posterior per row: soft-max of (-F_c + offset_c), rows x classes."""
    scores = _score_batch(rows, ensemble)
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def predict_proba(v, ensemble):
    """predict_proba_batch of a single vector, ordered like ensemble.classes."""
    return predict_proba_batch([v], ensemble)[0]


def predict_label_batch(rows, ensemble):
    """Most probable class id per row; exact ties go to the lowest class id."""
    probs = predict_proba_batch(rows, ensemble)
    class_arr = np.asarray(ensemble.classes, dtype=np.int64)
    winners = probs == probs.max(axis=1, keepdims=True)
    candidates = np.where(winners, class_arr[None, :], np.iinfo(np.int64).max)
    return candidates.min(axis=1)


def predict_label(v, ensemble):
    """predict_label_batch of a single vector, as an int."""
    return int(predict_label_batch([v], ensemble)[0])


# --- serialization ---------------------------------------------------------
#
# RBME1 layout, little-endian:
#   magic "RBME1"
#   uint32 class count
#   per class: int64 class id, float64 offset, uint64 block length,
#              then that many bytes of the class's RBM1 block.

ENSEMBLE_MAGIC = b"RBME1"
_COUNT = struct.Struct("<I")
_ENTRY = struct.Struct("<qdQ")


def ensemble_to_bytes(ensemble):
    """Serialize an ensemble (training configs required) to an RBME1 block."""
    if ensemble.train_configs is None:
        raise ValidationError("ensemble has no train_configs; cannot serialize")
    parts = [ENSEMBLE_MAGIC, _COUNT.pack(len(ensemble.classes))]
    for class_id, model, offset, cfg in zip(
        ensemble.classes, ensemble.models, ensemble.offsets, ensemble.train_configs
    ):
        block = rbm_to_bytes(model, cfg)
        parts.append(_ENTRY.pack(class_id, float(offset), len(block)))
        parts.append(block)
    return b"".join(parts)


def ensemble_from_bytes(buf):
    """Parse an RBME1 block back into a ClassEnsemble."""
    reader = BinaryReader(buf, ENSEMBLE_MAGIC)
    (count,) = _COUNT.unpack(reader.take(_COUNT.size, "class count"))
    classes = []
    models = []
    offsets = []
    configs = []
    for _ in range(count):
        class_id, class_offset, block_len = _ENTRY.unpack(reader.take(_ENTRY.size, "class entry"))
        params, cfg = rbm_from_bytes(reader.take(block_len, f"model block for class {class_id}"))
        classes.append(class_id)
        models.append(params)
        offsets.append(class_offset)
        configs.append(cfg)
    reader.finish()
    return ClassEnsemble(
        classes=classes, models=models, offsets=np.array(offsets), train_configs=configs
    )


def save_ensemble(path, ensemble):
    """Write an RBME1 file."""
    with open(path, "wb") as fh:
        fh.write(ensemble_to_bytes(ensemble))


def load_ensemble(path):
    """Read an RBME1 file back into a ClassEnsemble."""
    with open(path, "rb") as fh:
        return ensemble_from_bytes(fh.read())
