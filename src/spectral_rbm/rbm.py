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
the trained model bit for bit. The chain itself (p1, v2, p2 from given
uniforms) is written once, in _chain_step, and the update once, in
_lockstep_group: the loop that trains k RBMs side by side on stacked
(k, m, n) arrays, each with its own stream, as train_ensemble does for
its classes; train_rbm is its k = 1 case. The RBMs are stacked
longest-running first, so one that finishes leaves by slicing every
array to the rows still running, a view of the models' own storage.
The loop draws its uniforms a block of rows at a time, in the order cd1
would. It makes no per-update check. Every failure, an overflow or a NaN
probability (see _chain_step), leaves some parameter non-finite, and an
update only adds to a parameter, so it stays non-finite: one finiteness
check at the end of each block finds every failure, as a divergence. A
group that fails is trained again class by class with every update
checked, so the error raised is the one training the classes alone in
order raises, at the cost of up to twice a failing group's work.

The exact_* functions brute-force the state space and exist to keep the
fast paths honest; they refuse models with more than 24 total units.
exact_gibbs_kernel is the oracle for the sampler itself: the exact
transition matrix of the block-Gibbs chain CD-1 takes one step of. The
model file that stores RbmParams and TrainConfig is classifier's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    ValidationError,
    check_int,
    check_real,
    check_rows,
    check_vector,
)
from .markov import MAX_SEED, SeededRng

# Exact enumeration walks 2**(m+n) states; past this it is no longer a desk check.
ENUMERATION_LIMIT = 24

# Above this the linear-domain exp would overflow; switch to the shifted form.
_LOG1P_EXP_CUTOFF = 30.0

# epochs and hidden_units are stored as uint32 in the model file.
UINT32_MAX = 2**32 - 1

# Most uniforms that the classes training together hold at once (128 KiB of
# float64); a block holds as many whole rows' draws as fit, and at least one row's.
# Each class's stream is the same whatever the block size: a smaller block holds
# less memory through training for more draw calls and block-end finiteness checks.
_UNIFORM_BLOCK = 2**14

# Bytes of weight-sized arrays that classes trained in lockstep may share,
# about one core's L2 cache. On a 2-core Xeon VM with 2 MiB of L2 per core,
# three classes at 500 x 100 (4.8 MB) took 1.28 ms a step together against
# 0.94 ms one at a time.
_STACK_BYTES = 2**21


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for CD-1 training.

    The defaults are the reference operating point for the full-scale
    task, with weights initialized from a standard normal.
    init_weight_scale multiplies that initial normal draw; small synthetic
    problems often want 0.01 instead of 1.0. epochs and hidden_units must
    fit the uint32 fields of the model file. train_ensemble trains every
    class c with this one config, but with seed class_seed(seed, c).
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
        # zero hidden units are allowed: the model is then independent visible units
        self.weights = check_rows("weights", self.weights, empty_ok=True)
        m, n = self.weights.shape
        if m < 1:
            raise ValidationError("need at least one visible unit")
        self.visible_bias = check_vector("visible_bias", self.visible_bias, m)
        self.hidden_bias = check_vector("hidden_bias", self.hidden_bias, n)

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


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)) of a float64 array, overflow-safe.

    Computed as exp(min(x, 0)) / (1 + exp(-|x|)): that is 1 / (1 + exp(-x))
    for x >= 0 and exp(x) / (1 + exp(x)) below, the same operations as the
    two-branch form and so the same bits, with no positive argument
    exponentiated and no mask. +-inf map to exactly 1 and 0, and only a
    NaN argument gives NaN.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _log1p_exp(x):
    """log(1 + exp(x)) elementwise without overflow.

    Takes log1p(exp(x)) everywhere, then redoes the entries above the
    cutoff as x + log1p(exp(-x)); below it the direct form is already
    safe (exp underflows harmlessly for very negative x), and above it
    the overflowed direct values are overwritten.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(x)
    np.log1p(out, out=out)
    big = x > _LOG1P_EXP_CUTOFF
    if big.any():
        out[big] = x[big] + np.log1p(np.exp(-x[big]))
    return out


def _logsumexp(x):
    """log(sum(exp(x))) of each row of x, shifted by the row maximum."""
    top = x.max(axis=1)
    return top + np.log(np.exp(x - top[:, None]).sum(axis=1))


def energy(v, h, params):
    """Joint energy E(v, h) = -v.W.h - v.visible_bias - h.hidden_bias."""
    v = check_vector("visible vector", v, params.num_visible)
    h = check_vector("hidden vector", h, params.num_hidden)
    return float(-(v @ params.weights @ h) - v @ params.visible_bias - h @ params.hidden_bias)


def hidden_probs(v, params):
    """p(h_j = 1 | v) for every hidden unit j, one row per visible state in v."""
    v = check_rows("visible states", v, params.num_visible, empty_ok=True)
    return sigmoid(params.hidden_bias + v @ params.weights)


def visible_probs(h, params):
    """p(v_i = 1 | h) for every visible unit i, one row per hidden state in h."""
    h = check_rows("hidden states", h, params.num_hidden, empty_ok=True)
    return sigmoid(params.visible_bias + h @ params.weights.T)


def _chain_step(v1, weights, visible_bias, hidden_bias, u_hidden, u_visible):
    """One CD-1 chain from data row v1, sampling with the given uniforms.

    p1 = p(h|v1), h1 = [u_hidden < p1], v2 = [u_visible < p(v|h1)],
    p2 = p(h|v2); returns (p1, v2, p2). Every argument may carry a leading
    axis of k chains, one RBM each; np.matmul then steps them all at once,
    bit for bit as it steps each alone. A NaN probability (finite
    parameters can still overflow a pre-activation to inf - inf) is
    returned, not refused: a NaN in p1 or p2 reaches the hidden bias
    through p1 - p2. v2 is sampled as ceil(p(v|h1) - u_visible): the
    values of the comparison, so no model or output byte differs, but
    -0.0 where p(v|h1) < u_visible, and NaN where p(v|h1) is NaN, so such
    a NaN reaches the visible bias instead of turning into a 0 bit.
    """
    p1 = sigmoid(hidden_bias + np.matmul(v1[..., None, :], weights)[..., 0, :])
    h1 = (u_hidden < p1).astype(float)
    pv = sigmoid(visible_bias + np.matmul(weights, h1[..., None])[..., 0])
    v2 = np.ceil(pv - u_visible)
    p2 = sigmoid(hidden_bias + np.matmul(v2[..., None, :], weights)[..., 0, :])
    return p1, v2, p2


def cd1(v1, params, rng):
    """Single-step contrastive divergence gradient estimate at one data row.

    Chain: p1 = p(h|v1), h1 ~ p1, v2 ~ p(v|h1), p2 = p(h|v2). The weight
    gradient pairs the data term outer(v1, p1) against the reconstruction
    term outer(v2, p2); bias gradients are v1 - v2 and p1 - p2. The caller
    applies the learning rate. Consumes n then m uniforms from rng.
    """
    v1 = check_vector("visible vector", v1, params.num_visible)
    u_hidden = rng.uniforms(params.num_hidden)
    u_visible = rng.uniforms(params.num_visible)
    p1, v2, p2 = _chain_step(
        v1, params.weights, params.visible_bias, params.hidden_bias, u_hidden, u_visible
    )
    return GradientEstimate(
        d_weights=np.outer(v1, p1) - np.outer(v2, p2),
        d_visible_bias=v1 - v2,
        d_hidden_bias=p1 - p2,
    )


def _all_finite(weights, visible_bias, hidden_bias):
    """True iff every entry of the three parameter arrays is finite.

    A plain scan: training calls it once per uniform block, and once per
    update only when it trains a failed group again, checked.
    """
    return all(np.isfinite(a).all() for a in (weights, visible_bias, hidden_bias))


def train_rbm(data, config):
    """Train one RBM on binary rows with online CD-1.

    Weights start from scaled standard-normal draws, biases from zero, and
    each row triggers one momentum update:

        velocity = momentum * velocity + learning_rate * gradient
        params  += velocity

    with L2 weight decay folded into the weight gradient only. The RNG is
    seeded from config.seed and consumed in a fixed order (the init draw,
    then per row n + m uniforms, exactly what cd1 draws), so identical
    inputs give bit-identical parameters. An init draw that overflows
    raises ValidationError; the first update that leaves a parameter
    non-finite (a NaN probability included) raises ConvergenceError with
    the parameters just after it as last_iterate. This is the one-class
    case of the lockstep loop train_ensemble runs: trained unchecked,
    then, only if that fails, again with every update checked.
    """
    data = check_rows("training data", data, binary=True)
    return _train_lockstep(data, [(0, data.shape[0])], config, [config.seed])[0]


def _train_lockstep(rows, spans, config, seeds, classes=None):
    """Train one RBM per (start, count) span of rows, in lockstep; a list of RbmParams.

    RBM i learns rows[start:start + count] for config.epochs epochs with
    its own SeededRng(seeds[i]), and gets the bits train_rbm would give it
    alone: same init draw, same uniforms in the same order, same rounding.
    The classes run in groups, in order, each group stepping together on
    (k, m, n) arrays so that one update pays numpy's per-call cost once
    for all k classes. A group holds as many classes as fit their four
    weight-sized arrays (weights, velocity, two scratch buffers) in
    _STACK_BYTES: past that, each elementwise weight pass streams from a
    slower cache and costs more than the calls it saves.

    Each group is trained unchecked, which finds a failure by the end of
    the block it happens in: ValidationError for an init draw that
    overflows (before any update), ConvergenceError for any other. A
    failed group, of one class or more, is then trained again one class
    at a time, checked, so the first class in id order to fail raises the
    error training it alone raises, with its own parameters as
    last_iterate, and later groups never start. A failing group thus
    costs up to twice its work; a group that succeeds is trained once.
    Given classes (the class id of each span), the error raised names its
    class: "class <id>: " leads its message.
    """
    group = max(1, _STACK_BYTES // (32 * rows.shape[1] * config.hidden_units))
    models = []
    for lo in range(0, len(seeds), group):
        try:
            models += _lockstep_group(rows, spans[lo:lo + group], seeds[lo:lo + group], config,
                                      checked=False)
            continue
        except (ValidationError, ConvergenceError):
            pass
        for i in range(lo, min(lo + group, len(seeds))):
            try:
                models += _lockstep_group(rows, [spans[i]], [seeds[i]], config, checked=True)
            except (ValidationError, ConvergenceError) as exc:
                if classes is not None:
                    exc.args = (f"class {classes[i]}: {exc}",)
                raise
    return models


def _lockstep_group(rows, spans, seeds, config, checked):
    """_train_lockstep for one group of k classes: the CD-1 update loop; models in span order.

    Raises at the group's first failure found, whichever class it is in,
    with the first stacked class as a ConvergenceError's last_iterate. The
    classes are stacked by update count, longest first (a stable sort),
    so the classes still running are always the first k: a class leaves
    at the end of the block in which its epochs * count updates are done,
    when every state array is sliced to its first k rows, a view. So the
    models view live parameters from the init draw to the last update.
    The k classes hold at most _UNIFORM_BLOCK uniforms between them: each
    draws blocks of max(1, _UNIFORM_BLOCK // (k * (n + m))) rows' worth,
    and the blocks grow as classes leave.

    The parameters are checked for finiteness at the end of every block,
    before finished classes leave, and nowhere else. Every failure, a NaN
    probability included (see _chain_step), leaves a parameter non-finite
    for good, so it is found at the end of its block. Checked, every block
    is one update long: the first failing update raises, with the
    parameters just after it, as training each class alone does.
    """
    m, n, k = rows.shape[1], config.hidden_units, len(seeds)
    first, count = (np.array(column, dtype=np.int64) for column in zip(*spans))
    order = np.argsort(-count, kind="stable")
    first, count = first[order], count[order]
    ends = config.epochs * count
    rngs = [SeededRng(seeds[i]) for i in order]
    w = np.empty((k, m, n))
    with np.errstate(over="ignore"):
        for w_i, rng in zip(w, rngs):
            np.multiply(rng.normals((m, n)), config.init_weight_scale, out=w_i)
    c, b = np.zeros((k, m)), np.zeros((k, n))
    # refuses an init draw that overflowed; each model views its class's row of w, c and b
    models = [RbmParams(w[j], c[j], b[j]) for j in np.argsort(order)]
    lr, momentum, decay = config.learning_rate, config.momentum, config.weight_decay

    vel_w, vel_c, vel_b = np.zeros_like(w), np.zeros_like(c), np.zeros_like(b)
    d_w, decay_w = np.empty_like(w), np.empty_like(w)
    pair_v, pair_p = np.empty((k, m, 2)), np.empty((k, 2, n))
    t = 0  # updates made by every class still running
    with np.errstate(over="ignore", invalid="ignore"):
        while k:
            steps = 1 if checked else min(max(1, _UNIFORM_BLOCK // (k * (n + m))),
                                          int(ends[k - 1]) - t)
            u = np.empty((k, steps, n + m))
            for block, rng in zip(u, rngs):
                block[...] = rng.uniforms(steps * (n + m)).reshape(steps, n + m)
            row_at = first[:k, None] + (t + np.arange(steps)) % count[:k, None]
            for s in range(steps):
                v1 = rows[row_at[:, s]]
                p1, v2, p2 = _chain_step(v1, w, c, b, u[:, s, :n], u[:, s, n:])
                # velocity = momentum * velocity + lr * (gradient - decay * w), rounded
                # step by step as one class alone; [v1 v2] @ [p1; -p2] is
                # outer(v1, p1) - outer(v2, p2) bit for bit for 0/1 rows
                pair_v[:, :, 0], pair_v[:, :, 1] = v1, v2
                pair_p[:, 0] = p1
                np.negative(p2, out=pair_p[:, 1])
                np.matmul(pair_v, pair_p, out=d_w)
                np.multiply(decay, w, out=decay_w)
                d_w -= decay_w
                d_w *= lr
                vel_w *= momentum
                vel_w += d_w
                vel_c *= momentum
                vel_c += (v1 - v2) * lr
                vel_b *= momentum
                vel_b += (p1 - p2) * lr
                w += vel_w
                c += vel_c
                b += vel_b
            # a failed update leaves a parameter non-finite for good, so this finds it
            if not _all_finite(w, c, b):
                raise ConvergenceError("training diverged to non-finite parameters",
                                       last_iterate=models[order[0]])
            t += steps
            k = int(np.count_nonzero(ends > t))
            w, c, b, vel_w, vel_c, vel_b, d_w, decay_w, pair_v, pair_p = (
                a[:k] for a in (w, c, b, vel_w, vel_c, vel_b, d_w, decay_w, pair_v, pair_p)
            )
    return models


def free_energy_batch(rows, params):
    """Free energy F(v) = -v.visible_bias - sum_j log(1 + exp(x_j)) of every row.

    x_j = hidden_bias[j] + v.W[:, j]. Equals -log sum_h exp(-E(v, h)) with
    the hidden units marginalized analytically; the log1p branch keeps it
    finite for arbitrarily large x_j.
    """
    rows = check_rows("rows", rows, params.num_visible, empty_ok=True)
    x = params.hidden_bias + rows @ params.weights
    return -(rows @ params.visible_bias) - _log1p_exp(x).sum(axis=1)


def _enumerate_bits(k):
    """All 2**k binary vectors of length k, rows in ascending binary order."""
    ints = np.arange(2**k, dtype=np.int64)
    return ((ints[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(float)


def _check_enumerable(total, formula="m + n"):
    if total > ENUMERATION_LIMIT:
        raise ValidationError(
            f"exact enumeration needs {formula} <= {ENUMERATION_LIMIT}, got {total}"
        )


def exact_log_partition_function(params):
    """log of the partition function by brute force over every (v, h) pair.

    Enumerates all 2**m visible times 2**n hidden configurations, forms
    -E(v, h) for each pair, and log-sum-exps the lot. Deliberately does not
    reuse free_energy_batch, so the two routes stay independent cross-checks.
    """
    _check_enumerable(params.num_visible + params.num_hidden)
    vis = _enumerate_bits(params.num_visible)
    hid = _enumerate_bits(params.num_hidden)
    neg_energy = (
        vis @ params.weights @ hid.T
        + (vis @ params.visible_bias)[:, None]
        + (hid @ params.hidden_bias)[None, :]
    )
    top = float(neg_energy.max())
    if not np.isfinite(top):
        return top
    return float(_logsumexp(neg_energy.reshape(1, -1))[0])


def exact_log_likelihood(data, params):
    """Exact log-likelihood of binary rows: sum_rows [-F(row) - log Z]."""
    data = check_rows("data", data, params.num_visible, binary=True)
    log_z = exact_log_partition_function(params)
    return float(-free_energy_batch(data, params).sum() - data.shape[0] * log_z)


def _state_probs(states, probs):
    """P[r, s]: probability of states[s] when bit i is 1 with probability probs[r, i].

    Multiplies in one unit at a time, so it holds only P, not a bit table per state.
    """
    out = np.ones((probs.shape[0], states.shape[0]))
    for bits, p in zip(states.T, probs.T):
        out *= np.where(bits == 1.0, p[:, None], 1.0 - p[:, None])
    return out


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
    h_given_v = _state_probs(hid, hidden_probs(vis, params))
    return h_given_v @ _state_probs(vis, visible_probs(hid, params))

