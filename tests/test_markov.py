"""The seeded stream: equal seeds replay, seeds are validated, draws lie in [0, 1)."""

import numpy as np
import pytest

from spectral_rbm.errors import ValidationError
from spectral_rbm.markov import SeededRng


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a, b = SeededRng(42), SeededRng(42)
        np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))
        np.testing.assert_array_equal(a.normals((3, 4)), b.normals((3, 4)))
        np.testing.assert_array_equal(a.permutation(50), b.permutation(50))

    def test_different_seeds_differ(self):
        a, b = SeededRng(42), SeededRng(43)
        assert not np.array_equal(a.uniforms(20), b.uniforms(20))

    def test_rejects_bad_seed(self):
        for bad in (-1, 2**64, 1.5, "7"):
            with pytest.raises(ValidationError):
                SeededRng(bad)

    def test_uniform_range(self):
        rng = SeededRng(5)
        draws = rng.uniforms(10_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0
