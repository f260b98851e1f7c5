"""The seeded random stream every stochastic step draws from.

Randomness is threaded explicitly through SeededRng so every caller owns
its stream. Two instances built from the same seed produce identical draw
sequences, which is what the reproducibility guarantees elsewhere in the
package are built on.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int

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
