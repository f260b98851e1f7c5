"""Per-class RBM ensemble with a free-energy soft-max readout.

Each class gets its own RBM trained only on that class's rows. A vector v
is scored per class by -free_energy(v) + offset_c, and the soft-max of
those scores is the class posterior. The offsets absorb the per-model
normalization constants that free energies leave out: at the optimum they
play the role of -log(partition function) up to a shared shift, and they
are fitted by maximizing the training-set log-likelihood of the soft-max,
a concave problem solved by damped Newton with offset 0 anchored at zero.
The fit either reaches its gradient tolerance or raises ConvergenceError.

Per-class training seeds derive from the ensemble seed XORed with a
splitmix64 hash of the class id, so adding or removing one class never
perturbs the models of the others.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError, FormatError, ValidationError, check_labels, check_real, check_rows,
    check_vector,
)
from .rbm import (
    RbmParams,
    TrainConfig,
    _logsumexp,
    _train_lockstep,
    free_energy_batch,
    train_rbm,  # not called here; perfbench's tracer test expects classifier.train_rbm
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


# Offset fit: Newton steps allowed, backtracking halvings allowed per step,
# Armijo's sufficient-increase fraction, and the curvature ridge relative
# to the gradient's infinity-norm.
_NEWTON_STEPS = 100
_HALVINGS = 30
_ARMIJO = 1e-4
_RIDGE = 1e-4


@dataclass(frozen=True)
class OffsetFitConfig:
    """Stopping rule for fitting the soft-max offsets.

    The fit returns once the infinity-norm of the mean log-likelihood's
    gradient is at most tolerance. Newton converges quadratically, so the
    step size and the step budget are fixed inside fit_offsets rather
    than being options. train_ensemble, and so the CLI, always fits to the
    default; a direct fit_offsets call may pass another. The gradient is
    only computed to its rounding floor (about 1e-16 on small tables), so a
    tolerance near machine epsilon is met or missed by rounding.
    """

    tolerance: float = 1e-8

    def __post_init__(self):
        check_real("tolerance", self.tolerance, 0.0, lo_open=True)


@dataclass
class ClassEnsemble:
    """Trained per-class models plus their soft-max offsets.

    classes orders the class ids; models and offsets line up with it.
    config is the TrainConfig given to train_ensemble, which trained class
    c's model with seed class_seed(config.seed, c). Serialization requires
    it; manually assembled ensembles may leave it None. Given, its
    hidden_units must be every model's width.
    """

    classes: list
    models: list
    offsets: np.ndarray
    config: TrainConfig | None = None

    def __post_init__(self):
        self.classes = check_labels("classes", self.classes).tolist()
        if len(self.classes) < 2:
            raise ValidationError(f"an ensemble needs at least 2 classes, got {len(self.classes)}")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError(f"class ids must be distinct, got {self.classes}")
        if len(self.models) != len(self.classes):
            raise ValidationError(f"{len(self.models)} models for {len(self.classes)} classes")
        if self.config is not None and not isinstance(self.config, TrainConfig):
            raise ValidationError(f"config must be a TrainConfig, got {type(self.config).__name__}")
        for class_id, model in zip(self.classes, self.models):
            if not isinstance(model, RbmParams):
                raise ValidationError(f"models must be RbmParams, got {type(model).__name__}")
            if self.config is not None and model.num_hidden != self.config.hidden_units:
                raise ValidationError(f"class {class_id}: config.hidden_units="
                                      f"{self.config.hidden_units} does not match the "
                                      f"{model.num_hidden} hidden columns of its weights")
        widths = {model.num_visible for model in self.models}
        if len(widths) != 1:
            raise ValidationError(f"models disagree on visible width: {sorted(widths)}")
        self.offsets = check_vector("offsets", self.offsets, len(self.classes))

    @property
    def num_visible(self):
        return self.models[0].num_visible


def _log_likelihood_gain(log_probs, target, delta):
    """Change of the mean log-likelihood when the offsets move by delta.

    Per row the change is delta[label] - log(sum_c p_c exp(delta_c)). A
    move within [-1, 1] goes through log1p/expm1, so a gain far below the
    rounding of the log-likelihood itself keeps its sign; a larger move
    goes through the log domain, where a probability that underflows to
    0 keeps its weight.
    """
    if np.abs(delta).max() <= 1.0:
        shift = np.log1p(np.exp(log_probs) @ np.expm1(delta))
    else:
        shift = _logsumexp(log_probs + delta)
    return float(target @ delta - shift.mean())


# Finite tables can still overflow in the fit; where that matters it is checked for.
@np.errstate(over="ignore", invalid="ignore")
def fit_offsets(free_energy_table, labels, fit=None):
    """Fit soft-max offsets to a precomputed free-energy table.

    free_energy_table[s, c] holds F_c(row s); labels[s] is the column index
    of row s's true class. Maximizes the mean log soft-max likelihood of
    the labels over the offset vector, keeping offset 0 pinned at zero
    (the objective only sees offset differences). Every column must be
    represented in labels, otherwise its offset would drift off to
    infinity.

    The fit starts at zero offsets and returns them untouched when they
    already meet the tolerance, as on a table whose classes separate.
    Otherwise it first moves to the offsets that line up the column means
    if that raises the likelihood. Each Newton step then solves the free
    block of the ridged curvature diag(p) - P'P/s + 1e-4 |g|_inf I against
    the gradient g, and halves the step until the Armijo condition holds.
    Returns the offsets once |g|_inf <= fit.tolerance; raises
    ConvergenceError carrying the last iterate when 100 steps, or 30
    halvings of one step, do not get there.

    A finite table neither warns nor yields non-finite offsets. The column
    means are taken of the table divided by a power of two above twice the
    row count, so they cannot overflow; scaled back, they are the plain
    means bit for bit wherever those are finite and no scaled entry is
    subnormal. Scores plus offsets that reach +inf raise ConvergenceError.
    """
    fit = fit or OffsetFitConfig()
    table = check_rows("free_energy_table", free_energy_table)
    samples, k = table.shape
    if k < 2:
        raise ValidationError(f"free_energy_table needs >= 2 columns, got shape {table.shape}")
    labels = check_labels("labels", labels, samples)
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"labels must index the {k} table columns")
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValidationError(f"every class needs at least one sample; class column {missing} has none")

    target = counts / samples
    scores = -table
    # Separately trained models' free energies can sit hundreds apart. That
    # saturates the soft-max at zero offsets and leaves Newton almost no
    # curvature, so the first move is to the offsets that line up the
    # column means, whenever that raises the likelihood. A centring past
    # float range gains NaN or -inf, so it is never taken.
    scale = 2.0 ** (samples.bit_length() + 1)
    means = (table / scale).mean(axis=0)
    centred = (means - means[0]) * scale
    beta = np.zeros(k)
    for taken in range(_NEWTON_STEPS + 1):
        logits = scores + beta
        log_probs = logits - _logsumexp(logits)[:, None]
        probs = np.exp(log_probs)
        mean_probs = probs.mean(axis=0)
        grad = target - mean_probs
        grad_max = float(np.abs(grad).max())
        if not np.isfinite(grad_max):
            raise ConvergenceError(f"offset fit stopped after {taken} steps: the scores plus "
                                   "offsets overflow float64", last_iterate=beta)
        if grad_max <= fit.tolerance:
            return beta
        if taken == _NEWTON_STEPS:
            break
        if taken == 0 and _log_likelihood_gain(log_probs, target, centred) > 0:
            beta = centred
            continue
        curvature = np.diag(mean_probs + _RIDGE * grad_max) - probs.T @ probs / samples
        step = np.zeros(k)
        try:
            step[1:] = np.linalg.solve(curvature[1:, 1:], grad[1:])
        except np.linalg.LinAlgError:  # singular to working precision
            break
        rate = 1.0
        for _ in range(_HALVINGS):
            if _log_likelihood_gain(log_probs, target, rate * step) >= _ARMIJO * rate * (grad @ step):
                break
            rate /= 2
        else:
            break
        beta = beta + rate * step
    raise ConvergenceError(
        f"offset fit stopped after {taken} steps at gradient {grad_max:.3g}, "
        f"above tolerance {fit.tolerance:g}",
        last_iterate=beta,
    )


def train_ensemble(datasets, config):
    """Train one RBM per class and fit the soft-max offsets.

    datasets maps class id -> binary row matrix. Each class's RBM is
    trained with seed class_seed(config.seed, id), and the classes train
    side by side: in groups sized to the model, the classes of a group
    make each update together, and every model comes out bit for bit as
    if trained alone. A group stops at its first failure and is trained
    again one class at a time, so the error raised is the one training
    the classes alone in id order would raise first: ValidationError for
    an init draw that overflows, or ConvergenceError carrying that class's
    last_iterate for non-finite parameters, a NaN probability included;
    its message starts with "class <id>: ". A failing group costs up to
    twice its training work. The offsets are then fitted on the pooled
    training rows to OffsetFitConfig's default tolerance; a model that
    gives one of them a non-finite free energy raises ConvergenceError
    naming the first such class.
    """
    if len(datasets) < 2:
        raise ValidationError(f"need at least 2 classes, got {len(datasets)}")
    classes = sorted(check_labels("class ids", list(datasets)).tolist())
    matrices = [check_rows(f"class {c} training rows", datasets[c], binary=True) for c in classes]
    widths = {matrix.shape[1] for matrix in matrices}
    if len(widths) != 1:
        raise ValidationError(f"classes disagree on feature width: {sorted(widths)}")

    pooled = np.vstack(matrices)
    counts = [matrix.shape[0] for matrix in matrices]
    starts = np.cumsum([0, *counts[:-1]]).tolist()
    models = _train_lockstep(pooled, list(zip(starts, counts)), config,
                             [class_seed(config.seed, c) for c in classes], classes)

    column_labels = np.repeat(np.arange(len(classes), dtype=np.int64), counts)
    table = _free_energy_table(pooled, classes, models, ConvergenceError)
    offsets = fit_offsets(table, column_labels)
    return ClassEnsemble(classes=classes, models=models, offsets=offsets, config=config)


def _refuse_non_finite(table, classes, error, quantity):
    """table (rows x classes), or error naming the first class with a non-finite entry."""
    bad = ~np.isfinite(table)
    if bad.any():
        column = int(np.flatnonzero(bad.any(axis=0))[0])
        raise error(f"class {classes[column]}: the model gives {int(bad[:, column].sum())} of "
                    f"{len(table)} rows a non-finite {quantity}")
    return table


def _free_energy_table(rows, classes, models, error):
    """F_c(row), rows x classes; raises error naming the first class with a non-finite entry.

    Finite parameters can still overflow a free energy, or give inf - inf, so both are ignored
    and checked for.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.column_stack([free_energy_batch(rows, model) for model in models])
    return _refuse_non_finite(table, classes, error, "free energy")


def predict_proba_batch(rows, ensemble):
    """Class posterior per row: soft-max of (-F_c + offset_c), rows x classes.

    A non-finite free energy, or a finite one whose score -F_c + offset_c
    overflows, is a ValidationError naming the first such class. A score
    far enough below its row's best underflows to probability 0.
    """
    table = _free_energy_table(rows, ensemble.classes, ensemble.models, ValidationError)
    with np.errstate(over="ignore"):
        scores = _refuse_non_finite(ensemble.offsets - table, ensemble.classes, ValidationError,
                                    "score")
        scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def predict_label_batch(rows, ensemble):
    """Most probable class id per row; exact ties go to the lowest class id."""
    probs = predict_proba_batch(rows, ensemble)
    class_arr = np.asarray(ensemble.classes, dtype=np.int64)
    winners = probs == probs.max(axis=1, keepdims=True)
    candidates = np.where(winners, class_arr[None, :], np.iinfo(np.int64).max)
    return candidates.min(axis=1)


# --- serialization ---------------------------------------------------------
#
# RBME1 layout, little-endian: magic "RBME1", uint32 class count, then one
# block per class, every block the size block 0 fixes. A block is the class's
# entry: int64 class id, float64 offset, uint64 length of the RBM1 part from
# its magic on, magic "RBM1", uint32 m and n, the class's training config
# (float64 learning_rate, momentum, weight_decay, init_weight_scale, uint32
# epochs, hidden_units, uint64 class seed); then float64[m*n] weights
# row-major, float64[m] visible_bias, float64[n] hidden_bias.
# Round trips are bit-exact: arrays are dumped and restored as raw float64.

ENSEMBLE_MAGIC = b"RBME1"
_MODEL_MAGIC = b"RBM1"
_COUNT = struct.Struct("<I")
_HEADER = len(ENSEMBLE_MAGIC) + _COUNT.size
# one class's entry up to its arrays; the block length counts from the RBM1 magic on
_ENTRY = struct.Struct("<qdQ4sIIddddIIQ")
_RBM1_HEADER = _ENTRY.size - 24  # all but the id, offset and length
_CONFIG_FIELDS = ("learning_rate", "momentum", "weight_decay", "init_weight_scale", "epochs",
                  "hidden_units", "seed")
_CHECKED_FIELDS = ("length", "magic", "m", "n", *_CONFIG_FIELDS)  # the entry past id and offset
_ARRAYS = ("weights", "visible_bias", "hidden_bias")


def _entry(class_id, offset, m, config):
    """Class class_id's entry up to its arrays: m x config.hidden_units weights, and config
    stored with the class's seed."""
    n = config.hidden_units
    fields = [getattr(config, name) for name in _CONFIG_FIELDS[:-1]]
    return _ENTRY.pack(class_id, offset, _RBM1_HEADER + 8 * (m * n + m + n), _MODEL_MAGIC, m, n,
                       *fields, class_seed(config.seed, class_id))


def ensemble_to_bytes(ensemble):
    """Serialize an ensemble (its config required) to an RBME1 block."""
    if ensemble.config is None:
        raise ValidationError("ensemble has no config; cannot serialize")
    parts = [ENSEMBLE_MAGIC, _COUNT.pack(len(ensemble.classes))]
    for class_id, model, offset in zip(ensemble.classes, ensemble.models, ensemble.offsets):
        parts.append(_entry(class_id, float(offset), model.num_visible, ensemble.config))
        parts.extend(np.ascontiguousarray(getattr(model, name), dtype="<f8").tobytes()
                     for name in _ARRAYS)
    return b"".join(parts)


def ensemble_from_bytes(buf):
    """Parse an RBME1 block back into a ClassEnsemble.

    Block 0 fixes every block's size: its width m and stored hidden_units n.
    The file's length is checked against that once, and the blocks are read
    through one record view. Block 0 also gives the base config: class_seed
    undoes itself for a fixed class id, so class_seed(stored seed, id) is
    the base seed. Each entry must be the one the writer gives its id and
    offset; a FormatError names the class and the first field that differs.
    Offsets and arrays need only be finite. Every refusal is a FormatError.
    """
    if buf[: len(ENSEMBLE_MAGIC)] != ENSEMBLE_MAGIC:
        raise FormatError(f"bad magic: expected {ENSEMBLE_MAGIC!r}")
    if len(buf) < _HEADER + _ENTRY.size:
        raise FormatError(f"truncated RBME1 file: {len(buf)} bytes hold no class entry")
    (count,) = _COUNT.unpack_from(buf, len(ENSEMBLE_MAGIC))
    first_id, _, _, _, m, _, *fields = _ENTRY.unpack_from(buf, _HEADER)
    stored = dict(zip(_CONFIG_FIELDS, fields))
    n = stored["hidden_units"]
    size = _HEADER + count * (_ENTRY.size + 8 * (m * n + m + n))
    if len(buf) != size:
        raise FormatError(f"{count} classes of {m} x {n} weights take {size} bytes, got {len(buf)}")
    try:
        config = TrainConfig(**{**stored, "seed": class_seed(stored["seed"], first_id)})
    except ValidationError as exc:
        raise FormatError(f"class {first_id}: stored training config: {exc}") from None
    layout = np.dtype([("entry", f"V{_ENTRY.size}"), ("weights", "<f8", (m, n)),
                       ("visible_bias", "<f8", (m,)), ("hidden_bias", "<f8", (n,))])
    classes, models, offsets = [], [], []
    for record in np.frombuffer(buf, layout, count, _HEADER):
        class_id, offset, *got = _ENTRY.unpack(record["entry"].tobytes())
        want = _ENTRY.unpack(_entry(class_id, offset, m, config))[2:]
        # the config refuses NaN, so want holds none and reprs differ exactly where bytes do
        for name, value, expected in zip(_CHECKED_FIELDS, got, want):
            if repr(value) != repr(expected):
                raise FormatError(f"class {class_id}: {name}={value!r}, expected {expected!r}")
        try:  # the view is read-only and unaligned, so each array is copied out
            models.append(RbmParams(*(record[name].copy() for name in _ARRAYS)))
        except ValidationError as exc:
            raise FormatError(f"class {class_id}: {exc}") from None
        classes.append(class_id)
        offsets.append(offset)
    try:
        return ClassEnsemble(classes, models, np.array(offsets), config)
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def save_ensemble(path, ensemble):
    """Write an RBME1 file."""
    Path(path).write_bytes(ensemble_to_bytes(ensemble))


def load_ensemble(path):
    """Read an RBME1 file back into a ClassEnsemble; a refusal is a FormatError naming path."""
    buf = Path(path).read_bytes()
    try:
        return ensemble_from_bytes(buf)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None
