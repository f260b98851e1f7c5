"""Seeded random streams and the stationary distribution of a finite chain.

Randomness is threaded explicitly through SeededRng so every caller owns
its stream. Two instances built from the same seed produce identical draw
sequences, which is what the reproducibility guarantees elsewhere in the
package are built on.

TransitionMatrix (validated once, at construction), is_regular and
equilibrium_vector check rbm.exact_gibbs_kernel: the stationary vector of
the sampler's exact kernel must equal the enumerated model distribution.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError, check_int, check_real

# Construction-time tolerance on row-stochasticity.
ROW_SUM_TOL = 1e-12

# Seeds are 64-bit unsigned integers.
MAX_SEED = 2**64 - 1


class SeededRng:
    """Deterministic random stream with an explicit 64-bit unsigned seed.

    Backed by numpy's PCG64 bit generator. The generator algorithm is part
    of this package's reproducibility contract: equal seeds give equal
    sequences across runs and machines, so seeds recorded in manifests and
    model files replay exactly.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed):
        check_int("seed", seed, 0, MAX_SEED)
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, n):
        """Vector of n uniform draws from [0, 1)."""
        return self._gen.random(int(n))

    def normals(self, shape):
        """Array of standard-normal draws, filled in C order."""
        return self._gen.standard_normal(shape)

    def permutation(self, n):
        """Random permutation of range(n)."""
        return self._gen.permutation(int(n))

    def __repr__(self):
        return f"SeededRng(seed={self.seed})"


class TransitionMatrix:
    """Square row-stochastic matrix of transition probabilities."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"transition matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise ValidationError("transition matrix needs at least one state")
        if not np.all(np.isfinite(m)):
            raise ValidationError("transition matrix entries must be finite")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise ValidationError("transition probabilities must lie in [0, 1]")
        worst = float(np.abs(m.sum(axis=1) - 1.0).max())
        if worst > ROW_SUM_TOL:
            raise ValidationError(
                f"rows must each sum to 1 within {ROW_SUM_TOL:g}, worst deviation {worst:.3e}"
            )
        self.entries = m

    @property
    def n_states(self):
        return self.entries.shape[0]

    def __repr__(self):
        return f"TransitionMatrix(n_states={self.n_states})"


def is_regular(t, max_power):
    """True iff some T^k with k <= max_power has all entries strictly positive."""
    check_int("max_power", max_power, 1)
    power = t.entries
    for _ in range(int(max_power)):
        if np.all(power > 0.0):
            return True
        power = power @ t.entries
    return False


def equilibrium_vector(t, tol=1e-12, max_iters=200_000):
    """Stationary distribution of a regular chain by power iteration.

    Starts from the uniform distribution and iterates V <- V.T until the
    residual max|V.T - V| drops to tol; the returned float64 vector
    satisfies that bound. Chains for which uniform is already stationary
    (the identity matrix being the degenerate extreme) converge in zero steps.

    Raises ConvergenceError, carrying the last iterate, if max_iters passes
    without the residual reaching tol.
    """
    check_real("tol", tol, 0.0, lo_open=True)
    check_int("max_iters", max_iters, 1)
    matrix = t.entries
    v = np.full(t.n_states, 1.0 / t.n_states)
    for _ in range(int(max_iters)):
        nxt = v @ matrix
        if float(np.abs(nxt - v).max()) <= tol:
            return v
        # renormalize so float drift cannot accumulate over long runs
        v = nxt / nxt.sum()
    residual = float(np.abs(v @ matrix - v).max())
    raise ConvergenceError(
        f"power iteration did not reach tol={tol:g} in {max_iters} iterations (residual {residual:.3e})",
        last_iterate=v,
    )

