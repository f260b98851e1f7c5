"""Markov chain utilities: validation, regularity, equilibrium; the seeded stream."""

import numpy as np
import pytest

from spectral_rbm.errors import ConvergenceError, ValidationError
from spectral_rbm.markov import SeededRng, TransitionMatrix, equilibrium_vector, is_regular


def random_chain(rng, n_states):
    """Random strictly-positive row-stochastic matrix."""
    raw = rng.random((n_states, n_states)) + 0.05
    return TransitionMatrix(raw / raw.sum(axis=1, keepdims=True))


def stationary(t, tol, max_iters):
    """equilibrium_vector, checked to be a float64 probability vector over t's states."""
    v = equilibrium_vector(t, tol, max_iters)
    assert v.dtype == np.float64 and v.shape == (t.n_states,)
    assert np.all(v >= 0.0)
    assert abs(v.sum() - 1.0) <= 1e-12
    return v


class TestTransitionMatrix:
    def test_valid_matrix_accepted(self):
        t = TransitionMatrix([[0.9, 0.1], [0.5, 0.5]])
        assert t.n_states == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[0.5, 0.5]])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_entry_above_one(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[0.6, 0.3], [0.5, 0.5]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[np.nan, 1.0], [0.5, 0.5]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TransitionMatrix(np.zeros((0, 0)))

    def test_row_sum_tolerance_is_tight(self):
        # a 1e-9 deviation must not slip through the 1e-12 gate
        with pytest.raises(ValidationError):
            TransitionMatrix([[0.5 + 1e-9, 0.5], [0.5, 0.5]])


class TestIsRegular:
    def test_strictly_positive_matrix_is_regular_at_one(self):
        t = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert is_regular(t, 1) is True

    def test_identity_never_regular(self):
        t = TransitionMatrix(np.eye(3))
        assert is_regular(t, 100) is False

    def test_zero_entry_chain_regular_by_second_power(self):
        t = TransitionMatrix([[0.0, 1.0], [0.5, 0.5]])
        assert is_regular(t, 3) is True
        # the first power has a zero, so a budget of 1 is not enough
        assert is_regular(t, 1) is False

    def test_periodic_swap_never_regular(self):
        t = TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert is_regular(t, 50) is False

    def test_rejects_bad_budget(self):
        t = TransitionMatrix(np.eye(2))
        with pytest.raises(ValidationError):
            is_regular(t, 0)


class TestEquilibriumVector:
    def test_symmetric_two_state(self):
        t = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        v = stationary(t, 1e-12, 1000)
        np.testing.assert_allclose(v, [0.5, 0.5], atol=1e-12)

    def test_two_state_closed_form(self):
        # for [[1-a, a], [b, 1-b]] the stationary vector is [b, a] / (a+b)
        t = TransitionMatrix([[0.9, 0.1], [0.5, 0.5]])
        v = stationary(t, 1e-12, 100_000)
        np.testing.assert_allclose(v, [5.0 / 6.0, 1.0 / 6.0], atol=1e-10)

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            t = random_chain(rng, int(rng.integers(2, 8)))
            v = stationary(t, 1e-12, 100_000)
            residual = np.abs(v @ t.entries - v).max()
            assert residual <= 1e-12

    def test_identity_converges_to_uniform(self):
        # uniform is a fixed point of the identity chain, documented degenerate case
        t = TransitionMatrix(np.eye(3))
        v = stationary(t, 1e-12, 10)
        np.testing.assert_allclose(v, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_start_point_does_not_matter_for_regular_chains(self):
        rng = np.random.default_rng(19)
        t = random_chain(rng, 4)
        v = stationary(t, 1e-13, 100_000)
        for trial in range(5):
            raw = rng.random(4) + 0.01
            w = raw / raw.sum()
            for _ in range(20_000):
                w = w @ t.entries
            np.testing.assert_allclose(w, v, atol=1e-10)

    def test_non_convergence_carries_last_iterate(self):
        # slowly mixing chain, starved iteration budget
        t = TransitionMatrix([[0.99, 0.01], [0.005, 0.995]])
        with pytest.raises(ConvergenceError) as excinfo:
            equilibrium_vector(t, 1e-12, 3)
        last = excinfo.value.last_iterate
        assert last is not None and last.shape == (2,)
        np.testing.assert_allclose(last.sum(), 1.0, atol=1e-12)

    def test_rejects_bad_tol(self):
        t = TransitionMatrix(np.eye(2))
        with pytest.raises(ValidationError):
            equilibrium_vector(t, 0.0, 100)
        with pytest.raises(ValidationError):
            equilibrium_vector(t, 1e-12, 0)


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
