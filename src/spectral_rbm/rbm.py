"""Binary restricted Boltzmann machine: energy model, CD-1 training, exact oracles.

Conventions used throughout:

* ``weights`` has shape (m, n): entry [i, j] couples visible unit i to
  hidden unit j. ``visible_bias`` has length m, ``hidden_bias`` length n.
* binary vectors are float64 arrays whose entries are exactly 0.0 or 1.0,
  so they drop straight into matrix arithmetic.
* the joint energy is
  E(v, h) = -v.W.h - v.visible_bias - h.hidden_bias,
  and both conditionals factor into independent logistic units.

Training is plain online CD-1 with momentum and L2 weight decay; one
update per data row, rows visited in order. All stochastic choices flow
through a SeededRng created from TrainConfig.seed, so a config determines
the trained model bit for bit.

The exact_* functions brute-force the state space and exist to keep the
fast paths honest; they refuse models with more than 24 total units.
exact_gibbs_kernel is the oracle for the sampler itself: the exact
transition matrix of the block-Gibbs chain CD-1 takes one step of.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    FormatError,
    SizeLimitError,
    ValidationError,
    check_int,
    check_real,
)
from .markov import MAX_SEED, SeededRng

# Exact enumeration walks 2**(m+n) states; past this it is no longer a desk check.
ENUMERATION_LIMIT = 24

# Above this the linear-domain exp would overflow; switch to the shifted form.
_LOG1P_EXP_CUTOFF = 30.0

# epochs and hidden_units are stored as uint32 in RBM1 blocks.
UINT32_MAX = 2**32 - 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for CD-1 training.

    The defaults are the reference operating point for the full-scale
    task, with weights initialized from a standard normal.
    init_weight_scale multiplies that initial normal draw; small synthetic
    problems often want 0.01 instead of 1.0. epochs and hidden_units must
    fit the uint32 fields of the RBM1 format.
    """

    learning_rate: float = 0.1
    momentum: float = 0.5
    epochs: int = 50
    hidden_units: int = 100
    weight_decay: float = 2e-4
    seed: int = 0
    init_weight_scale: float = 1.0

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, 0.0, lo_open=True)
        check_real("momentum", self.momentum, 0.0, 1.0, hi_open=True)
        check_int("epochs", self.epochs, 1, UINT32_MAX)
        check_int("hidden_units", self.hidden_units, 1, UINT32_MAX)
        check_real("weight_decay", self.weight_decay, 0.0)
        check_int("seed", self.seed, 0, MAX_SEED)
        check_real("init_weight_scale", self.init_weight_scale, 0.0, lo_open=True)


@dataclass
class RbmParams:
    """Weights and biases of one binary RBM."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.visible_bias = np.asarray(self.visible_bias, dtype=float)
        self.hidden_bias = np.asarray(self.hidden_bias, dtype=float)
        if self.weights.ndim != 2:
            raise ValidationError(f"weights must be 2-d, got shape {self.weights.shape}")
        m, n = self.weights.shape
        if m < 1:
            raise ValidationError("need at least one visible unit")
        if self.visible_bias.shape != (m,):
            raise ValidationError(
                f"visible_bias shape {self.visible_bias.shape} does not match {m} visible units"
            )
        if self.hidden_bias.shape != (n,):
            raise ValidationError(
                f"hidden_bias shape {self.hidden_bias.shape} does not match {n} hidden units"
            )
        for name, arr in (("weights", self.weights), ("visible_bias", self.visible_bias), ("hidden_bias", self.hidden_bias)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")

    @property
    def num_visible(self):
        return self.weights.shape[0]

    @property
    def num_hidden(self):
        return self.weights.shape[1]


@dataclass
class GradientEstimate:
    """One CD-1 gradient estimate, shaped like the parameters it updates."""

    d_weights: np.ndarray
    d_visible_bias: np.ndarray
    d_hidden_bias: np.ndarray


def _as_vector(x, length, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != length:
        raise ValidationError(f"{name} must be a vector of length {length}, got shape {v.shape}")
    return v


def is_binary(arr):
    """True iff every entry is exactly 0.0 or 1.0 (vacuously true when empty)."""
    return bool(np.all((arr == 0.0) | (arr == 1.0)))


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), overflow-safe across float64.

    Scalars in, float out; arrays in, array out. The two-branch form never
    exponentiates a positive argument, so |x| in the hundreds is fine.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def _log1p_exp(x):
    """log(1 + exp(x)) elementwise without overflow.

    For x above the cutoff, uses x + log1p(exp(-x)); below it the direct
    form is already safe (exp underflows harmlessly for very negative x).
    """
    x = np.asarray(x, dtype=float)
    big = x > _LOG1P_EXP_CUTOFF
    out = np.empty_like(x)
    out[big] = x[big] + np.log1p(np.exp(-x[big]))
    out[~big] = np.log1p(np.exp(x[~big]))
    return out


def _logsumexp(values):
    a = np.asarray(values, dtype=float).ravel()
    hi = float(a.max())
    if not np.isfinite(hi):
        return hi
    return hi + float(np.log(np.exp(a - hi).sum()))


def energy(v, h, params):
    """Joint energy E(v, h) = -v.W.h - v.visible_bias - h.hidden_bias."""
    v = _as_vector(v, params.num_visible, "visible vector")
    h = _as_vector(h, params.num_hidden, "hidden vector")
    return float(-(v @ params.weights @ h) - v @ params.visible_bias - h @ params.hidden_bias)


def hidden_probs(v, params):
    """p(h_j = 1 | v) for every hidden unit j."""
    v = _as_vector(v, params.num_visible, "visible vector")
    return sigmoid(params.hidden_bias + v @ params.weights)


def visible_probs(h, params):
    """p(v_i = 1 | h) for every visible unit i."""
    h = _as_vector(h, params.num_hidden, "hidden vector")
    return sigmoid(params.visible_bias + params.weights @ h)


def sample_bits(probs, rng):
    """Independent Bernoulli draw per component: bit i is 1 iff u_i < probs[i].

    Consumes exactly len(probs) uniforms from rng, in order, regardless of
    the probabilities. Returns a float64 0/1 vector.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValidationError(f"probabilities must form a vector, got shape {p.shape}")
    if p.size and (not np.all(np.isfinite(p)) or float(p.min()) < 0.0 or float(p.max()) > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    return (rng.uniforms(p.size) < p).astype(float)


def cd1(v1, params, rng):
    """Single-step contrastive divergence gradient estimate at one data row.

    Chain: p1 = p(h|v1), h1 ~ p1, v2 ~ p(v|h1), p2 = p(h|v2). The weight
    gradient pairs the data term outer(v1, p1) against the reconstruction
    term outer(v2, p2); bias gradients are v1 - v2 and p1 - p2. The caller
    applies the learning rate. Consumes n then m uniforms from rng.
    """
    v1 = _as_vector(v1, params.num_visible, "visible vector")
    p1 = hidden_probs(v1, params)
    h1 = sample_bits(p1, rng)
    v2 = sample_bits(visible_probs(h1, params), rng)
    p2 = hidden_probs(v2, params)
    return GradientEstimate(
        d_weights=np.outer(v1, p1) - np.outer(v2, p2),
        d_visible_bias=v1 - v2,
        d_hidden_bias=p1 - p2,
    )


def train_rbm(data, config):
    """Train one RBM on binary rows with online CD-1.

    Weights start from scaled standard-normal draws, biases from zero, and
    each row triggers one momentum update:

        velocity = momentum * velocity + learning_rate * gradient
        params  += velocity

    with L2 weight decay folded into the weight gradient only. The RNG is
    seeded from config.seed and consumed in a fixed order (the init draw,
    then per row n + m uniforms), so identical inputs give bit-identical
    parameters.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
        raise ValidationError(f"training data must be a nonempty 2-d array, got shape {data.shape}")
    if not is_binary(data):
        raise ValidationError("training data entries must all be 0 or 1")

    m = data.shape[1]
    n = config.hidden_units
    rng = SeededRng(config.seed)
    params = RbmParams(
        weights=rng.normals((m, n)) * config.init_weight_scale,
        visible_bias=np.zeros(m),
        hidden_bias=np.zeros(n),
    )
    vel_w = np.zeros((m, n))
    vel_c = np.zeros(m)
    vel_b = np.zeros(n)

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            for row in data:
                grad = cd1(row, params, rng)
                vel_w = config.momentum * vel_w + config.learning_rate * (
                    grad.d_weights - config.weight_decay * params.weights
                )
                vel_c = config.momentum * vel_c + config.learning_rate * grad.d_visible_bias
                vel_b = config.momentum * vel_b + config.learning_rate * grad.d_hidden_bias
                params.weights += vel_w
                params.visible_bias += vel_c
                params.hidden_bias += vel_b
                # parameters must stay finite after every update step
                if not (
                    np.all(np.isfinite(params.weights))
                    and np.all(np.isfinite(params.visible_bias))
                    and np.all(np.isfinite(params.hidden_bias))
                ):
                    raise ConvergenceError(
                        "training diverged to non-finite parameters", last_iterate=params
                    )
    return params


def free_energy(v, params):
    """free_energy_batch of a single visible vector."""
    v = _as_vector(v, params.num_visible, "visible vector")
    return float(free_energy_batch(v[None, :], params)[0])


def free_energy_batch(rows, params):
    """Free energy F(v) = -v.visible_bias - sum_j log(1 + exp(x_j)) of every row.

    x_j = hidden_bias[j] + v.W[:, j]. Equals -log sum_h exp(-E(v, h)) with
    the hidden units marginalized analytically; the log1p branch keeps it
    finite for arbitrarily large x_j.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != params.num_visible:
        raise ValidationError(
            f"rows must be 2-d with {params.num_visible} columns, got shape {rows.shape}"
        )
    x = params.hidden_bias + rows @ params.weights
    return -(rows @ params.visible_bias) - _log1p_exp(x).sum(axis=1)


def _enumerate_bits(k):
    """All 2**k binary vectors of length k, rows in ascending binary order."""
    ints = np.arange(2**k, dtype=np.int64)
    return ((ints[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(float)


def _check_enumerable(total, formula="m + n"):
    if total > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"exact enumeration needs {formula} <= {ENUMERATION_LIMIT}, got {total}"
        )


def exact_log_partition_function(params):
    """log of the partition function by brute force over every (v, h) pair.

    Enumerates all 2**m visible times 2**n hidden configurations, forms
    -E(v, h) for each pair, and log-sum-exps the lot. Deliberately does not
    reuse free_energy, so the two routes stay independent cross-checks.
    """
    _check_enumerable(params.num_visible + params.num_hidden)
    vis = _enumerate_bits(params.num_visible)
    hid = _enumerate_bits(params.num_hidden)
    neg_energy = (
        vis @ params.weights @ hid.T
        + (vis @ params.visible_bias)[:, None]
        + (hid @ params.hidden_bias)[None, :]
    )
    return _logsumexp(neg_energy)


def exact_partition_function(params):
    """Partition function sum_{v,h} exp(-E(v, h)), via the log-domain form."""
    return float(np.exp(exact_log_partition_function(params)))


def exact_log_likelihood(data, params):
    """Exact log-likelihood of binary rows: sum_rows [-F(row) - log Z]."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValidationError(f"data must be a nonempty 2-d array, got shape {data.shape}")
    if not is_binary(data):
        raise ValidationError("data entries must all be 0 or 1")
    log_z = exact_log_partition_function(params)
    return float(-free_energy_batch(data, params).sum() - data.shape[0] * log_z)


def _state_probs(states, probs):
    """Probability of each row of states when bit i is 1 with probability probs[i]."""
    return np.where(states == 1.0, probs, 1.0 - probs).prod(axis=1)


def exact_gibbs_kernel(params):
    """Exact block-Gibbs transition matrix K[v, v'] = sum_h p(h|v) p(v'|h).

    The chain CD-1 takes one step of; its stationary distribution is the
    model marginal exp(-F(v)) / Z. Visible states are in ascending binary
    order. It walks 2**(2m + n) (v, h, v') triples, so 2m + n is held to
    the enumeration limit.
    """
    _check_enumerable(2 * params.num_visible + params.num_hidden, "2m + n")
    vis = _enumerate_bits(params.num_visible)
    hid = _enumerate_bits(params.num_hidden)
    h_given_v = np.array([_state_probs(hid, hidden_probs(v, params)) for v in vis])
    v_given_h = np.array([_state_probs(vis, visible_probs(h, params)) for h in hid])
    return h_given_v @ v_given_h


# --- serialization ---------------------------------------------------------
#
# RBM1 layout, little-endian throughout:
#   magic "RBM1"
#   uint32 m, uint32 n
#   float64 learning_rate, momentum, weight_decay, init_weight_scale
#   uint32 epochs, uint32 hidden_units, uint64 seed
#   float64[m*n] weights row-major, float64[m] visible_bias, float64[n] hidden_bias
#
# Round trips are bit-exact: arrays are dumped and restored as raw float64.

RBM_MAGIC = b"RBM1"
_DIMS = struct.Struct("<II")
_CONFIG = struct.Struct("<ddddIIQ")


class BinaryReader:
    """Sequential reader over one magic-tagged block of a binary format.

    Every read is bounds-checked: running past the end, a wrong magic and
    bytes left over at the end are FormatErrors naming the format.
    """

    def __init__(self, buf, magic):
        if buf[: len(magic)] != magic:
            raise FormatError(f"bad magic: expected {magic!r}")
        self._buf = buf
        self._pos = len(magic)
        self._name = magic.decode("ascii")

    def take(self, size, what):
        """The next size bytes."""
        end = self._pos + size
        if end > len(self._buf):
            raise FormatError(f"truncated {self._name} block while reading {what}")
        piece = self._buf[self._pos : end]
        self._pos = end
        return piece

    def floats(self, count, what):
        """The next count little-endian float64 values, as a fresh array."""
        return np.frombuffer(self.take(8 * count, what), dtype="<f8").copy()

    def finish(self):
        """Refuse bytes left over after the block."""
        if self._pos != len(self._buf):
            extra = len(self._buf) - self._pos
            raise FormatError(f"{extra} trailing bytes after {self._name} block")


def rbm_to_bytes(params, config):
    """Serialize parameters plus their training config to an RBM1 block."""
    if not isinstance(config, TrainConfig):
        raise ValidationError(f"config must be a TrainConfig, got {type(config).__name__}")
    if config.hidden_units != params.num_hidden:
        raise ValidationError(
            f"config.hidden_units={config.hidden_units} does not match "
            f"the {params.num_hidden} hidden columns of the weights"
        )
    parts = [
        RBM_MAGIC,
        _DIMS.pack(params.num_visible, params.num_hidden),
        _CONFIG.pack(
            config.learning_rate,
            config.momentum,
            config.weight_decay,
            config.init_weight_scale,
            config.epochs,
            config.hidden_units,
            config.seed,
        ),
        np.ascontiguousarray(params.weights, dtype="<f8").tobytes(),
        np.ascontiguousarray(params.visible_bias, dtype="<f8").tobytes(),
        np.ascontiguousarray(params.hidden_bias, dtype="<f8").tobytes(),
    ]
    return b"".join(parts)


def rbm_from_bytes(buf):
    """Parse an RBM1 block back into (RbmParams, TrainConfig)."""
    reader = BinaryReader(buf, RBM_MAGIC)
    m, n = _DIMS.unpack(reader.take(_DIMS.size, "dimensions"))
    lr, momentum, weight_decay, init_scale, epochs, hidden_units, seed = _CONFIG.unpack(
        reader.take(_CONFIG.size, "training config")
    )
    if hidden_units != n:
        raise FormatError(f"RBM1 block stores {n} hidden columns but hidden_units={hidden_units}")
    weights = reader.floats(m * n, "weights").reshape(m, n)
    visible_bias = reader.floats(m, "visible bias")
    hidden_bias = reader.floats(n, "hidden bias")
    reader.finish()
    config = TrainConfig(
        learning_rate=lr,
        momentum=momentum,
        epochs=epochs,
        hidden_units=hidden_units,
        weight_decay=weight_decay,
        seed=seed,
        init_weight_scale=init_scale,
    )
    return RbmParams(weights=weights, visible_bias=visible_bias, hidden_bias=hidden_bias), config

