"""RBM core: energy model, conditionals, CD-1, free energy, exact oracles, Gibbs kernel."""

import itertools
import math
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from nan_faults import class_rows, nan_on_all_ones_rows, one_all_ones_row_datasets, random_params

from spectral_rbm import classifier, rbm
from spectral_rbm.classifier import class_seed, train_ensemble
from spectral_rbm.errors import ConvergenceError, ValidationError
from spectral_rbm.markov import SeededRng
from spectral_rbm.rbm import (
    GradientEstimate,
    RbmParams,
    TrainConfig,
    cd1,
    energy,
    exact_gibbs_kernel,
    exact_log_likelihood,
    exact_log_partition_function,
    free_energy_batch,
    hidden_probs,
    sigmoid,
    train_rbm,
    visible_probs,
)


def all_bit_vectors(k):
    """Brute-force enumeration used by the oracles below."""
    return [np.array(bits, dtype=float) for bits in itertools.product((0.0, 1.0), repeat=k)]


def energy_oracle(v, h, params):
    """Triple-loop energy summation, independent of any matrix algebra."""
    acc = 0.0
    for i in range(len(v)):
        for j in range(len(h)):
            acc -= v[i] * params.weights[i, j] * h[j]
    for i in range(len(v)):
        acc -= v[i] * params.visible_bias[i]
    for j in range(len(h)):
        acc -= h[j] * params.hidden_bias[j]
    return acc


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.3, 1.0, 3.0, 17.5):
            assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-40.0, 40.0, 401)
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) >= 0.0)

    def test_extreme_arguments_do_not_overflow(self):
        with np.errstate(over="raise"):
            hi = sigmoid(700.0)
            lo = sigmoid(-700.0)
        assert hi == 1.0  # saturates cleanly in float64
        assert 0.0 < lo < 1e-300

    def test_vector_input(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert abs(out[0] + out[2] - 1.0) <= 1e-15

    def test_matches_two_branch_form_bit_for_bit(self):
        # 1 / (1 + exp(-x)) on x >= 0, exp(x) / (1 + exp(x)) below
        x = np.concatenate([
            np.random.default_rng(30).standard_normal(10_000) * 40.0,
            [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf],
        ])
        pos = x >= 0.0
        want = np.empty_like(x)
        with np.errstate(over="ignore"):
            want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        got = sigmoid(x)
        assert got.tobytes() == want.tobytes()
        assert sigmoid(-np.inf) == 0.0 and sigmoid(np.inf) == 1.0
        assert np.isnan(sigmoid(np.nan))
        assert sigmoid(-0.0) == 0.5


class TestEnergy:
    def test_all_zero_state_has_zero_energy(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 4, 3)
        assert energy(np.zeros(4), np.zeros(3), params) == 0.0

    def test_single_visible_unit_reads_its_bias(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 4, 3)
        v = np.zeros(4)
        v[2] = 1.0
        assert abs(energy(v, np.zeros(3), params) - (-params.visible_bias[2])) <= 1e-15

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            params = random_params(rng, 4, 3)
            v = (rng.random(4) < 0.5).astype(float)
            h = (rng.random(3) < 0.5).astype(float)
            assert abs(energy(v, h, params) - energy_oracle(v, h, params)) <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 4, 3)
        with pytest.raises(ValidationError):
            energy(np.zeros(5), np.zeros(3), params)
        with pytest.raises(ValidationError):
            energy(np.zeros(4), np.zeros(2), params)


class TestConditionals:
    def test_zero_params_give_half_everywhere(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        vis, hid = all_bit_vectors(3), all_bit_vectors(2)
        np.testing.assert_array_equal(hidden_probs(vis, params), np.full((8, 2), 0.5))
        np.testing.assert_array_equal(visible_probs(hid, params), np.full((4, 3), 0.5))

    def test_zero_visible_reads_hidden_bias(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 3, 2)
        got = hidden_probs(np.zeros((1, 3)), params)[0]
        np.testing.assert_allclose(got, sigmoid(params.hidden_bias), atol=1e-15)

    def test_hidden_probs_match_two_state_boltzmann_ratio(self):
        # flipping h_j with the other hidden units pinned at zero
        rng = np.random.default_rng(5)
        for trial in range(10):
            params = random_params(rng, 4, 3)
            v = (rng.random(4) < 0.5).astype(float)
            probs = hidden_probs(v[None], params)[0]
            for j in range(3):
                h0 = np.zeros(3)
                h1 = np.zeros(3)
                h1[j] = 1.0
                w0 = np.exp(-energy(v, h0, params))
                w1 = np.exp(-energy(v, h1, params))
                assert abs(probs[j] - w1 / (w0 + w1)) <= 1e-12

    def test_hidden_probs_match_full_joint_enumeration(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            params = random_params(rng, m, n)
            vis, hid = np.array(all_bit_vectors(m)), np.array(all_bit_vectors(n))
            # weights[a, b] = exp(-E(vis[a], hid[b]))
            weights = np.array([[np.exp(-energy(v, h, params)) for h in hid] for v in vis])
            marginal = weights @ hid / weights.sum(axis=1)[:, None]
            np.testing.assert_allclose(hidden_probs(vis, params), marginal, atol=1e-10)

    def test_visible_probs_match_full_joint_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            params = random_params(rng, m, n)
            vis, hid = np.array(all_bit_vectors(m)), np.array(all_bit_vectors(n))
            # weights[b, a] = exp(-E(vis[a], hid[b]))
            weights = np.array([[np.exp(-energy(v, h, params)) for v in vis] for h in hid])
            marginal = weights @ vis / weights.sum(axis=1)[:, None]
            np.testing.assert_allclose(visible_probs(hid, params), marginal, atol=1e-10)

    def test_rows_of_states_match_one_state_at_a_time(self):
        rng = np.random.default_rng(26)
        params = random_params(rng, 4, 3)
        vis = (rng.random((6, 4)) < 0.5).astype(float)
        hid = (rng.random((5, 3)) < 0.5).astype(float)
        np.testing.assert_allclose(hidden_probs(vis, params),
                                   [hidden_probs(v[None], params)[0] for v in vis], atol=1e-15)
        np.testing.assert_allclose(visible_probs(hid, params),
                                   [visible_probs(h[None], params)[0] for h in hid], atol=1e-15)

    def test_dimension_mismatch(self):
        # a single state is a vector, not a matrix of states, and is refused too
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((1, 1, 3)), 1.0):
            with pytest.raises(ValidationError):
                hidden_probs(bad, params)
        for bad in (np.zeros(2), np.zeros((4, 3)), np.zeros((1, 1, 2)), 1.0):
            with pytest.raises(ValidationError):
                visible_probs(bad, params)


class TestCd1:
    def test_zero_params_leave_hidden_gradient_zero(self):
        # p(h|v) is exactly 0.5 before and after reconstruction, so p1 - p2 == 0
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        rng = SeededRng(5)
        for _ in range(50):
            grad = cd1(np.array([1.0, 0.0, 1.0]), params, rng)
            np.testing.assert_array_equal(grad.d_hidden_bias, np.zeros(2))

    def test_saturated_params_give_near_zero_gradient(self):
        # +-60 couplings make the reconstruction reproduce v1 almost surely
        m = 3
        weights = 60.0 * np.eye(m)
        params = RbmParams(weights, np.full(m, -30.0), np.full(m, -30.0))
        rng = SeededRng(6)
        v1 = np.array([1.0, 0.0, 1.0])
        grad = cd1(v1, params, rng)
        assert np.abs(grad.d_weights).max() <= 1e-10
        assert np.abs(grad.d_visible_bias).max() <= 1e-10
        assert np.abs(grad.d_hidden_bias).max() <= 1e-10

    def test_monte_carlo_mean_matches_exact_one_step_kernel(self):
        """Average many CD-1 draws against the exactly enumerated one-step kernel."""
        rng_np = np.random.default_rng(8)
        m, n = 3, 2
        params = random_params(rng_np, m, n)
        v1 = np.array([1.0, 0.0, 1.0])

        p1 = hidden_probs(v1[None], params)[0]
        exp_vh = np.zeros((m, n))
        exp_v = np.zeros(m)
        exp_h = np.zeros(n)
        for h1 in all_bit_vectors(n):
            w_h1 = float(np.prod(np.where(h1 == 1.0, p1, 1.0 - p1)))
            pv = visible_probs(h1[None], params)[0]
            for v2 in all_bit_vectors(m):
                w_v2 = float(np.prod(np.where(v2 == 1.0, pv, 1.0 - pv)))
                weight = w_h1 * w_v2
                p2 = hidden_probs(v2[None], params)[0]
                exp_vh += weight * np.outer(v2, p2)
                exp_v += weight * v2
                exp_h += weight * p2
        exact = GradientEstimate(
            d_weights=np.outer(v1, p1) - exp_vh,
            d_visible_bias=v1 - exp_v,
            d_hidden_bias=p1 - exp_h,
        )

        draws = 30_000
        rng = SeededRng(7)
        sum_w = np.zeros((m, n))
        sumsq_w = np.zeros((m, n))
        sum_c = np.zeros(m)
        sumsq_c = np.zeros(m)
        sum_b = np.zeros(n)
        sumsq_b = np.zeros(n)
        for _ in range(draws):
            grad = cd1(v1, params, rng)
            sum_w += grad.d_weights
            sumsq_w += grad.d_weights**2
            sum_c += grad.d_visible_bias
            sumsq_c += grad.d_visible_bias**2
            sum_b += grad.d_hidden_bias
            sumsq_b += grad.d_hidden_bias**2

        for total, totalsq, target in (
            (sum_w, sumsq_w, exact.d_weights),
            (sum_c, sumsq_c, exact.d_visible_bias),
            (sum_b, sumsq_b, exact.d_hidden_bias),
        ):
            mean = total / draws
            var = np.maximum(totalsq / draws - mean**2, 0.0)
            bound = 3.0 * np.sqrt(var / draws) + 1e-12
            assert np.all(np.abs(mean - target) <= bound)

    def test_gradient_shapes(self):
        rng_np = np.random.default_rng(9)
        params = random_params(rng_np, 5, 4)
        grad = cd1((np.arange(5) % 2).astype(float), params, SeededRng(10))
        assert grad.d_weights.shape == (5, 4)
        assert grad.d_visible_bias.shape == (5,)
        assert grad.d_hidden_bias.shape == (4,)

    def test_dimension_mismatch(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValidationError):
            cd1(np.zeros(4), params, SeededRng(11))


def free_energy_of(v, params):
    """free_energy_batch of one visible vector."""
    return free_energy_batch(v[None, :], params)[0]


class TestFreeEnergy:
    def test_zero_params_give_minus_n_log_two(self):
        params = RbmParams(np.zeros((3, 4)), np.zeros(3), np.zeros(4))
        expected = -4.0 * np.log(2.0)
        assert abs(free_energy_of(np.array([1.0, 0.0, 1.0]), params) - expected) <= 1e-12

    def test_zero_visible_reads_hidden_bias_only(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 3, 4)
        expected = -np.log1p(np.exp(params.hidden_bias)).sum()
        assert abs(free_energy_of(np.zeros(3), params) - expected) <= 1e-12

    def test_matches_hidden_state_enumeration(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            params = random_params(rng, m, n)
            v = (rng.random(m) < 0.5).astype(float)
            brute = -np.log(sum(np.exp(-energy(v, h, params)) for h in all_bit_vectors(n)))
            assert abs(free_energy_of(v, params) - brute) <= 1e-10

    def test_large_inputs_stay_finite(self):
        params = RbmParams(np.zeros((2, 3)), np.zeros(2), np.full(3, 500.0))
        with np.errstate(over="raise"):
            got = free_energy_of(np.array([1.0, 0.0]), params)
        assert abs(got - (-1500.0)) <= 1e-9

    def test_batch_agrees_with_scalar(self):
        # each row against the closed form summed unit by unit in Python floats
        rng = np.random.default_rng(14)
        params = random_params(rng, 5, 3)
        rows = (rng.random((10, 5)) < 0.5).astype(float)
        singles = [
            -sum(v[i] * params.visible_bias[i] for i in range(5))
            - sum(math.log1p(math.exp(params.hidden_bias[j]
                                      + sum(v[i] * params.weights[i, j] for i in range(5))))
                  for j in range(3))
            for v in rows
        ]
        np.testing.assert_allclose(free_energy_batch(rows, params), singles, atol=1e-12)

    def test_batch_rejects_wrong_width(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValidationError):
            free_energy_batch(np.zeros((4, 2)), params)

    def test_log1p_exp_matches_two_mask_form_bit_for_bit(self):
        # log1p(exp(x)) at x <= 30, x + log1p(exp(-x)) above, each computed on its own mask
        x = np.concatenate([
            np.random.default_rng(15).standard_normal(10_000) * 40.0,
            [np.nextafter(30.0, 0.0), 30.0, np.nextafter(30.0, 99.0), 709.78, 710.0, -745.0,
             np.inf, -np.inf, np.nan, 0.0, -0.0],
        ])
        big = x > 30.0
        want = np.empty_like(x)
        want[big] = x[big] + np.log1p(np.exp(-x[big]))
        want[~big] = np.log1p(np.exp(x[~big]))
        with np.errstate(over="raise"):  # the overflowed direct values are never seen
            got = rbm._log1p_exp(x)
        assert got.tobytes() == want.tobytes()
        small = x[np.abs(x) <= 30.0]  # no entry above the cutoff: nothing to redo
        assert rbm._log1p_exp(small).tobytes() == np.log1p(np.exp(small)).tobytes()


class TestExactPartitionFunction:
    def test_zero_params_count_states(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        assert abs(exact_log_partition_function(params) - np.log(32.0)) <= 1e-12

    def test_no_hidden_units_closed_form(self):
        t = 0.7
        params = RbmParams(np.zeros((1, 0)), np.array([t]), np.zeros(0))
        assert abs(exact_log_partition_function(params) - np.log1p(np.exp(t))) <= 1e-12

    def test_matches_pairwise_energy_enumeration(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            params = random_params(rng, 3, 3)
            brute = sum(
                np.exp(-energy(v, h, params))
                for v in all_bit_vectors(3)
                for h in all_bit_vectors(3)
            )
            assert abs(exact_log_partition_function(params) - np.log(brute)) <= 1e-10

    def test_two_enumeration_orders_agree(self):
        # pairwise energy sum vs analytic marginalization through free_energy_batch
        rng = np.random.default_rng(16)
        for trial in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            params = random_params(rng, m, n)
            via_free_energy = np.logaddexp.reduce(
                -free_energy_batch(np.array(all_bit_vectors(m)), params)
            )
            assert abs(exact_log_partition_function(params) - via_free_energy) <= 1e-9

    def test_size_guard(self):
        params = RbmParams(np.zeros((13, 12)), np.zeros(13), np.zeros(12))
        with pytest.raises(ValidationError, match="exact enumeration needs m \\+ n"):
            exact_log_partition_function(params)


class TestExactLogLikelihood:
    def test_zero_params_uniform_model(self):
        # p(v) is uniform over 2**m states, so one row scores -m*log(2)
        params = RbmParams(np.zeros((2, 1)), np.zeros(2), np.zeros(1))
        got = exact_log_likelihood(np.array([[0.0, 1.0]]), params)
        assert abs(got - (-2.0 * np.log(2.0))) <= 1e-12

    def test_row_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            params = random_params(rng, 3, 3)
            total = sum(
                np.exp(exact_log_likelihood(v[None, :], params)) for v in all_bit_vectors(3)
            )
            assert abs(total - 1.0) <= 1e-10

    def test_sums_over_rows(self):
        rng = np.random.default_rng(18)
        params = random_params(rng, 3, 2)
        rows = (rng.random((4, 3)) < 0.5).astype(float)
        total = exact_log_likelihood(rows, params)
        singles = sum(exact_log_likelihood(row[None, :], params) for row in rows)
        assert abs(total - singles) <= 1e-10

    def test_rejects_non_binary(self):
        params = RbmParams(np.zeros((2, 1)), np.zeros(2), np.zeros(1))
        with pytest.raises(ValidationError):
            exact_log_likelihood(np.array([[0.5, 1.0]]), params)

    def test_size_guard(self):
        params = RbmParams(np.zeros((20, 20)), np.zeros(20), np.zeros(20))
        with pytest.raises(ValidationError, match="exact enumeration needs m \\+ n"):
            exact_log_likelihood(np.zeros((1, 20)), params)


class TestExactGibbsKernel:
    def test_matches_joint_enumeration(self):
        # both conditionals read off the joint weights exp(-E(v, h)) by brute force
        rng = np.random.default_rng(23)
        for trial in range(5):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            params = random_params(rng, m, n)
            joint = np.array([
                [np.exp(-energy_oracle(v, h, params)) for h in all_bit_vectors(n)]
                for v in all_bit_vectors(m)
            ])
            h_given_v = joint / joint.sum(axis=1, keepdims=True)
            v_given_h = (joint / joint.sum(axis=0, keepdims=True)).T
            np.testing.assert_allclose(exact_gibbs_kernel(params), h_given_v @ v_given_h, atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(24)
        kernel = exact_gibbs_kernel(random_params(rng, 4, 3, scale=3.0))
        assert kernel.shape == (16, 16) and np.all(kernel >= 0.0)
        assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-12

    def test_model_marginal_is_stationary(self):
        rng = np.random.default_rng(25)
        for trial in range(5):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            params = random_params(rng, m, n)
            rows = np.array(all_bit_vectors(m))
            marginal = np.exp(-free_energy_batch(rows, params) - exact_log_partition_function(params))
            np.testing.assert_allclose(marginal @ exact_gibbs_kernel(params), marginal, atol=1e-12)

    def test_size_guard(self):
        # m + n = 13 is enumerable, but the kernel walks 2**(2m + n) triples
        params = RbmParams(np.zeros((12, 1)), np.zeros(12), np.zeros(1))
        with pytest.raises(ValidationError, match="2m \\+ n"):
            exact_gibbs_kernel(params)


class TestTrainConfig:
    def test_defaults_are_reference_operating_point(self):
        config = TrainConfig()
        assert config.learning_rate == 0.1
        assert config.momentum == 0.5
        assert config.epochs == 50
        assert config.hidden_units == 100
        assert config.weight_decay == 2e-4
        assert config.init_weight_scale == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(hidden_units=0)
        with pytest.raises(ValidationError):
            TrainConfig(weight_decay=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(seed=-1)
        with pytest.raises(ValidationError):
            TrainConfig(init_weight_scale=0.0)


def replay(data, config):
    """Online CD-1 stepped by hand through public cd1, stopping at the first non-finite update.

    Returns (weights, visible_bias, hidden_bias) after the last update made, and how
    many updates that was.
    """
    twin = SeededRng(config.seed)
    weights = twin.normals((data.shape[1], config.hidden_units)) * config.init_weight_scale
    vbias = np.zeros(data.shape[1])
    hbias = np.zeros(config.hidden_units)
    vel_w, vel_c, vel_b = np.zeros_like(weights), np.zeros_like(vbias), np.zeros_like(hbias)
    lr, mom, wd = config.learning_rate, config.momentum, config.weight_decay
    updates = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for row in itertools.chain.from_iterable([data] * config.epochs):
            grad = cd1(row, RbmParams(weights.copy(), vbias.copy(), hbias.copy()), twin)
            vel_w = mom * vel_w + lr * (grad.d_weights - wd * weights)
            vel_c = mom * vel_c + lr * grad.d_visible_bias
            vel_b = mom * vel_b + lr * grad.d_hidden_bias
            weights = weights + vel_w
            vbias = vbias + vel_c
            hbias = hbias + vel_b
            updates += 1
            if not all(np.all(np.isfinite(a)) for a in (weights, vbias, hbias)):
                break
    return (weights, vbias, hbias), updates


class TestTrainRbm:
    def test_single_update_matches_hand_stepped_oracle(self):
        """One row, one epoch: replay the rng and apply the update rule by hand."""
        v = np.array([1.0, 0.0, 1.0, 1.0])
        config = TrainConfig(
            learning_rate=0.1,
            momentum=0.5,
            epochs=1,
            hidden_units=3,
            weight_decay=2e-4,
            seed=99,
            init_weight_scale=0.01,
        )

        twin = SeededRng(99)
        w0 = twin.normals((4, 3)) * 0.01
        params0 = RbmParams(w0.copy(), np.zeros(4), np.zeros(3))
        grad = cd1(v, params0, twin)
        expected_w = w0 + 0.1 * (grad.d_weights - 2e-4 * w0)
        expected_c = 0.1 * grad.d_visible_bias
        expected_b = 0.1 * grad.d_hidden_bias

        got = train_rbm(v[None, :], config)
        np.testing.assert_array_equal(got.weights, expected_w)
        np.testing.assert_array_equal(got.visible_bias, expected_c)
        np.testing.assert_array_equal(got.hidden_bias, expected_b)

    def test_two_epochs_accumulate_momentum_like_oracle(self):
        rows = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        config = TrainConfig(
            learning_rate=0.2,
            momentum=0.7,
            epochs=2,
            hidden_units=2,
            weight_decay=1e-3,
            seed=123,
            init_weight_scale=0.05,
        )

        twin = SeededRng(123)
        weights = twin.normals((3, 2)) * 0.05
        vbias = np.zeros(3)
        hbias = np.zeros(2)
        vel_w = np.zeros((3, 2))
        vel_c = np.zeros(3)
        vel_b = np.zeros(2)
        for _ in range(2):
            for row in rows:
                params = RbmParams(weights.copy(), vbias.copy(), hbias.copy())
                grad = cd1(row, params, twin)
                vel_w = 0.7 * vel_w + 0.2 * (grad.d_weights - 1e-3 * weights)
                vel_c = 0.7 * vel_c + 0.2 * grad.d_visible_bias
                vel_b = 0.7 * vel_b + 0.2 * grad.d_hidden_bias
                weights = weights + vel_w
                vbias = vbias + vel_c
                hbias = hbias + vel_b

        got = train_rbm(rows, config)
        np.testing.assert_array_equal(got.weights, weights)
        np.testing.assert_array_equal(got.visible_bias, vbias)
        np.testing.assert_array_equal(got.hidden_bias, hbias)

    def test_replay_across_uniform_blocks_is_bit_equal(self):
        """Step cd1 by hand over more rows than one block of uniforms holds."""
        m, n = 120, 40
        rows = rbm._UNIFORM_BLOCK // (n + m) + 7
        data = (np.random.default_rng(32).random((rows, m)) < 0.3).astype(float)
        config = TrainConfig(epochs=2, hidden_units=n, seed=33, init_weight_scale=0.1)
        (weights, vbias, hbias), _ = replay(data, config)
        got = train_rbm(data, config)
        assert got.weights.tobytes() == weights.tobytes()
        assert got.visible_bias.tobytes() == vbias.tobytes()
        assert got.hidden_bias.tobytes() == hbias.tobytes()

    def test_divergence_stops_at_the_first_non_finite_update(self):
        data = (np.random.default_rng(31).random((6, 5)) < 0.5).astype(float)
        config = TrainConfig(learning_rate=1e100, momentum=0.9, epochs=4, hidden_units=4, seed=5)
        (weights, vbias, hbias), updates = replay(data, config)
        assert updates == 4  # partway through the first epoch
        with pytest.raises(ConvergenceError) as info:
            train_rbm(data, config)
        got = info.value.last_iterate
        assert np.array_equal(got.weights, weights, equal_nan=True)
        assert np.array_equal(got.visible_bias, vbias, equal_nan=True)
        assert np.array_equal(got.hidden_bias, hbias, equal_nan=True)
        assert not np.all(np.isfinite(got.weights))

    def test_learns_the_all_ones_pattern(self):
        data = np.ones((30, 5))
        config = TrainConfig(epochs=50, hidden_units=4, seed=7, init_weight_scale=0.01)
        params = train_rbm(data, config)
        h = (SeededRng(8).uniforms(4) < hidden_probs(np.ones((1, 5)), params)).astype(float)
        assert np.all(visible_probs(h, params) > 0.9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        data = (rng.random((12, 6)) < 0.4).astype(float)
        config = TrainConfig(epochs=3, hidden_units=4, seed=55, init_weight_scale=0.01)
        a = train_rbm(data, config)
        b = train_rbm(data, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.visible_bias, b.visible_bias)
        assert np.array_equal(a.hidden_bias, b.hidden_bias)

    def test_seed_changes_result(self):
        data = np.ones((5, 4))
        a = train_rbm(data, TrainConfig(epochs=1, hidden_units=3, seed=1))
        b = train_rbm(data, TrainConfig(epochs=1, hidden_units=3, seed=2))
        assert not np.array_equal(a.weights, b.weights)

    def test_parameters_stay_finite_with_reference_config(self):
        rng = np.random.default_rng(24)
        data = (rng.random((20, 8)) < 0.5).astype(float)
        params = train_rbm(data, TrainConfig(epochs=10, hidden_units=6, seed=3))
        assert np.all(np.isfinite(params.weights))
        assert np.all(np.isfinite(params.visible_bias))
        assert np.all(np.isfinite(params.hidden_bias))

    def test_rejects_bad_data(self):
        config = TrainConfig(epochs=1, hidden_units=2)
        with pytest.raises(ValidationError):
            train_rbm(np.zeros((0, 3)), config)
        with pytest.raises(ValidationError):
            train_rbm(np.array([[0.0, 0.5, 1.0]]), config)
        with pytest.raises(ValidationError):
            train_rbm(np.zeros(3), config)


def serial_outcome(data, config):
    """Training one class alone, by replay: ("ok" or "diverged", arrays), or the ValidationError it raises.

    The only ValidationError training raises is for an init draw that overflows: a NaN
    probability is carried into the parameters, so it is a divergence.
    """
    try:
        arrays, _ = replay(data, config)
    except ValidationError as exc:
        return exc
    finite = all(np.all(np.isfinite(a)) for a in arrays)
    return ("ok" if finite else "diverged"), arrays


def zero_offsets(table, labels, fit=None):
    """Stands in for fit_offsets, so a table of diverged free energies cannot fail the fit."""
    return np.zeros(table.shape[1])


def zero_table(rows, classes, models, error):
    """Stands in for _free_energy_table, so an overflowing free energy cannot fail the run."""
    return np.zeros((len(rows), len(models)))


@st.composite
def lockstep_cases(draw):
    """Class datasets of uneven sizes (1-row classes too), a config that may diverge, and
    group and uniform-block sizes small enough to split the lockstep loop."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    ids = draw(st.lists(st.integers(-3, 40), min_size=len(sizes), max_size=len(sizes), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = {c: (rng.random((r, m)) < rng.random()).astype(float) for c, r in zip(ids, sizes)}
    config = TrainConfig(
        learning_rate=draw(st.sampled_from([0.01, 0.1, 2.0, 1e100, 1e307, 3e307, 1e308])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        epochs=draw(st.integers(1, 3)),
        hidden_units=n,
        weight_decay=draw(st.sampled_from([0.0, 2e-4, 0.5])),
        seed=draw(st.integers(0, 2**64 - 1)),
        init_weight_scale=draw(st.sampled_from([0.01, 1.0, 1e300, 6e307, 1e308])),
    )
    stack_bytes = draw(st.sampled_from([1, 64 * m * n, 96 * m * n, rbm._STACK_BYTES]))
    uniform_block = draw(st.sampled_from([1, 3 * (n + m), rbm._UNIFORM_BLOCK]))
    return datasets, config, stack_bytes, uniform_block


class TestLockstepTraining:
    """train_ensemble steps the classes together; each must come out as if trained alone."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lockstep_cases())
    # class 2 diverges at update 15, mid-way through the block at whose end it leaves the stack
    @example(case=(class_rows(20, ((0, 6), (1, 3), (2, 4)), 5),
                   TrainConfig(learning_rate=1e307, momentum=0.9, epochs=4, hidden_units=4,
                               weight_decay=0.0, seed=7),
                   rbm._STACK_BYTES, rbm._UNIFORM_BLOCK))
    # class 0 trains; the init draw of class 1 overflows
    @example(case=(class_rows(0, ((0, 3), (1, 2)), 1),
                   TrainConfig(epochs=2, hidden_units=1, seed=11, init_weight_scale=1e308),
                   rbm._STACK_BYTES, rbm._UNIFORM_BLOCK))
    # the 1-row class 0 diverges at update 2, class 1 at update 3
    @example(case=(class_rows(1, ((0, 1), (1, 4)), 4),
                   TrainConfig(learning_rate=1e308, momentum=0.9, epochs=3, hidden_units=3,
                               weight_decay=0.0, seed=0),
                   rbm._STACK_BYTES, rbm._UNIFORM_BLOCK))
    def test_models_match_training_each_class_alone(self, case):
        datasets, config, stack_bytes, uniform_block = case
        with mock.patch.object(rbm, "_STACK_BYTES", stack_bytes), \
                mock.patch.object(rbm, "_UNIFORM_BLOCK", uniform_block), \
                mock.patch.object(classifier, "fit_offsets", zero_offsets), \
                mock.patch.object(classifier, "_free_energy_table", zero_table), \
                np.errstate(all="ignore"):
            outcomes = [serial_outcome(datasets[c], replace(config, seed=class_seed(config.seed, c)))
                        for c in sorted(datasets)]
            failed = [(c, o) for c, o in zip(sorted(datasets), outcomes)
                      if isinstance(o, Exception) or o[0] == "diverged"]
            if not failed:
                with mock.patch.object(rbm, "_lockstep_group", wraps=rbm._lockstep_group) as group:
                    ensemble = train_ensemble(datasets, config)
                for model, (_, arrays) in zip(ensemble.models, outcomes):
                    got = (model.weights, model.visible_bias, model.hidden_bias)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]
                # a run that succeeds trains each group once: no class is replayed
                m = next(iter(datasets.values())).shape[1]
                size = max(1, stack_bytes // (32 * m * config.hidden_units))
                assert group.call_count == -(-len(datasets) // size)
                return
            failed_class, first = failed[0]
            want_type = type(first) if isinstance(first, Exception) else ConvergenceError
            with pytest.raises(want_type) as info:
                train_ensemble(datasets, config)
        if isinstance(first, Exception):
            assert str(info.value) == f"class {failed_class}: {first}"
        else:
            assert str(info.value) == f"class {failed_class}: training diverged to non-finite parameters"
            got = info.value.last_iterate
            for a, b in zip((got.weights, got.visible_bias, got.hidden_bias), first[1]):
                assert np.array_equal(a, b, equal_nan=True)

    def test_first_class_in_id_order_raises_though_later_ones_fail_sooner(self):
        rng = np.random.default_rng(10)
        datasets = {c: (rng.random((r, 5)) < 0.5).astype(float) for c, r in ((0, 6), (1, 3), (2, 4))}
        config = TrainConfig(learning_rate=1e308, momentum=0.9, epochs=4, hidden_units=4,
                             weight_decay=0.0, seed=7)
        replays = [replay(datasets[c], replace(config, seed=class_seed(7, c))) for c in range(3)]
        assert [updates for _, updates in replays] == [4, 3, 2]  # every class diverges, the last first
        with pytest.raises(ConvergenceError) as info:
            train_ensemble(datasets, config)
        got = info.value.last_iterate
        for a, b in zip((got.weights, got.visible_bias, got.hidden_bias), replays[0][0]):
            assert np.array_equal(a, b, equal_nan=True)
        assert not np.all(np.isfinite(got.weights))

    def test_a_class_that_diverges_last_in_the_stack_is_caught(self):
        # class 1 finishes after 12 updates; class 2 then sits behind class 0 and diverges at 15
        rng = np.random.default_rng(20)
        datasets = {c: (rng.random((r, 5)) < 0.5).astype(float) for c, r in ((0, 6), (1, 3), (2, 4))}
        config = TrainConfig(learning_rate=1e307, momentum=0.9, epochs=4, hidden_units=4,
                             weight_decay=0.0, seed=7)
        with np.errstate(all="ignore"):
            replays = [replay(datasets[c], replace(config, seed=class_seed(7, c))) for c in range(3)]
            assert [updates for _, updates in replays] == [24, 12, 15]
            with pytest.raises(ConvergenceError) as info:
                train_ensemble(datasets, config)
        got = info.value.last_iterate
        for a, b in zip((got.weights, got.visible_bias, got.hidden_bias), replays[2][0]):
            assert np.array_equal(a, b, equal_nan=True)

    def test_a_class_left_alone_in_its_group_raises_with_its_live_parameters(self):
        # the 2-row class leaves after 2 updates; the guard then fails at the 4-row class's
        # 4th update, its 2nd alone in the stack, as it does when that class trains alone
        rows = (np.random.default_rng(41).random((8, 5)) < 0.5).astype(float)
        config = TrainConfig(epochs=1, hidden_units=3, seed=0, init_weight_scale=0.1)

        def raised(spans, seeds):
            calls = itertools.count(1)
            with mock.patch.object(rbm, "_all_finite", lambda *arrays: next(calls) != 4), \
                    pytest.raises(ConvergenceError) as info:
                rbm._lockstep_group(rows, spans, seeds, config, checked=True)
            return info.value.last_iterate

        together, alone = raised([(0, 2), (2, 6)], [5, 6]), raised([(2, 6)], [6])
        assert together.weights.tobytes() == alone.weights.tobytes()

    def test_models_come_back_in_span_order_when_a_later_span_is_longer(self):
        rows = (np.random.default_rng(42).random((8, 5)) < 0.5).astype(float)
        config = TrainConfig(epochs=2, hidden_units=3, seed=0, init_weight_scale=0.1)
        spans, seeds = [(0, 2), (2, 6)], [5, 6]
        together = rbm._lockstep_group(rows, spans, seeds, config, checked=False)
        for model, span, seed in zip(together, spans, seeds):
            [alone] = rbm._lockstep_group(rows, [span], [seed], config, checked=False)
            for a, b in zip((model.weights, model.visible_bias, model.hidden_bias),
                            (alone.weights, alone.visible_bias, alone.hidden_bias)):
                assert a.tobytes() == b.tobytes()

    def test_an_init_draw_that_overflows_fails_its_class_alone(self):
        # class 1's scaled init overflows, which training it alone refuses before any update;
        # class 0, trained first in id order, diverges, so its error is the one raised
        rng = np.random.default_rng(0)
        datasets = {0: (rng.random((2, 3)) < 0.5).astype(float),
                    1: (rng.random((1, 3)) < 0.5).astype(float)}
        config = TrainConfig(learning_rate=1e308, momentum=0.9, epochs=2, hidden_units=2, seed=0,
                             init_weight_scale=1e308)
        with np.errstate(all="ignore"):
            first, second = (serial_outcome(datasets[c], replace(config, seed=class_seed(0, c)))
                             for c in (0, 1))
            assert first[0] == "diverged"
            assert str(second) == "weights must have finite entries"
            with pytest.raises(ConvergenceError) as info:
                train_ensemble(datasets, config)
        got = info.value.last_iterate
        for a, b in zip((got.weights, got.visible_bias, got.hidden_bias), first[1]):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("learning_rate", [0.1, 1e308])
    def test_class_0_replayed_alone_steps_from_the_same_weights(self, learning_rate):
        # A NaN probability needs a pre-activation of inf - inf, which no small model reaches on
        # purpose, so here p(h|v1) is NaN on every all-ones row: class 1's, from its first update.
        # That fails the stacked group at the end of its first block, and the group is trained
        # again class by class. The chain logs the weights that every one-chain call on a row
        # that is not all ones steps from: in the replay those are all class 0's, and in the
        # ensemble too, as class 1's rows are all ones and class 2 is never replayed.
        def logging(log):
            original = rbm._chain_step

            def chain(v1, weights, *rest):
                out = original(v1, weights, *rest)
                if weights.size == weights.shape[-2] * weights.shape[-1] and not np.all(v1 == 1.0):
                    log.append(weights.tobytes())
                return out
            return chain

        rng = np.random.default_rng(10)
        datasets = {c: (rng.random((r, 5)) < 0.5).astype(float) for c, r in ((0, 6), (1, 3), (2, 4))}
        datasets[0][:, 0] = datasets[2][:, 0] = 0.0
        datasets[1][:] = 1.0
        config = TrainConfig(learning_rate=learning_rate, momentum=0.9, epochs=4, hidden_units=4,
                             weight_decay=0.0, seed=7)
        alone, together = [], []
        with np.errstate(all="ignore"), nan_on_all_ones_rows(0):
            with mock.patch.object(rbm, "_chain_step", logging(alone)):
                arrays, updates = replay(datasets[0], replace(config, seed=class_seed(7, 0)))
            # class 0 runs all its updates unless it diverges, at update 3
            assert updates == (24 if learning_rate == 0.1 else 3)
            with mock.patch.object(rbm, "_chain_step", logging(together)):
                with pytest.raises(ConvergenceError) as info:
                    train_ensemble(datasets, config)
            class_1, _ = replay(datasets[1], replace(config, seed=class_seed(7, 1)))
        assert together == alone
        if learning_rate == 0.1:
            # class 1, replayed next, diverges at its first update
            assert str(info.value) == "class 1: training diverged to non-finite parameters"
            arrays = class_1
        else:  # class 0 fails later, but has the lower id
            assert str(info.value) == "class 0: training diverged to non-finite parameters"
        got = info.value.last_iterate
        for a, b in zip((got.weights, got.visible_bias, got.hidden_bias), arrays):
            assert np.array_equal(a, b, equal_nan=True)

    def test_a_group_whose_every_init_draw_overflows(self):
        rng = np.random.default_rng(0)
        datasets = {c: (rng.random((2, 10)) < 0.5).astype(float) for c in (3, 5)}
        config = TrainConfig(epochs=1, hidden_units=10, seed=0, init_weight_scale=1e308)
        with np.errstate(all="ignore"):
            for c in datasets:
                assert str(serial_outcome(datasets[c], replace(config, seed=class_seed(0, c)))) \
                    == "weights must have finite entries"
            with pytest.raises(ValidationError, match="weights must have finite entries"):
                train_ensemble(datasets, config)
            with pytest.raises(ValidationError, match="weights must have finite entries"):
                train_rbm(datasets[3], config)

    def test_an_init_draw_that_overflows_warns_nothing(self):
        data = (np.random.default_rng(0).random((2, 10)) < 0.5).astype(float)
        config = TrainConfig(epochs=1, hidden_units=10, seed=0, init_weight_scale=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^weights must have finite entries$"):
                train_rbm(data, config)
            with pytest.raises(ValidationError, match="^class 2: weights must have finite entries$"):
                train_ensemble({2: data, 7: data}, config)

    @pytest.mark.parametrize("conditional", [0, 1, 2])
    def test_a_nan_probability_diverges_like_training_alone(self, conditional):
        # only class 1 has an all-ones row, its 2nd: the NaN comes mid-way through the stacked
        # group's first block, and the checked replay of class 1 finds it at that update; a NaN
        # in p(v|h1) reaches the parameters only because v2 is sampled as ceil(pv - u)
        datasets = one_all_ones_row_datasets()
        config = TrainConfig(momentum=0.9, epochs=2, hidden_units=4, seed=7, init_weight_scale=0.1)
        with nan_on_all_ones_rows(conditional):
            outcomes = [serial_outcome(datasets[c], replace(config, seed=class_seed(7, c)))
                        for c in (0, 2)]
            assert [kind for kind, _ in outcomes] == ["ok", "ok"]
            arrays, updates = replay(datasets[1], replace(config, seed=class_seed(7, 1)))
            assert updates == 2
            with pytest.raises(ConvergenceError) as info:
                train_ensemble(datasets, config)
        assert str(info.value) == "class 1: training diverged to non-finite parameters"
        got = info.value.last_iterate
        for a, b in zip((got.weights, got.visible_bias, got.hidden_bias), arrays):
            assert np.array_equal(a, b, equal_nan=True)

    def test_a_failing_group_is_trained_again_checked_and_a_good_one_once(self):
        data = (np.random.default_rng(31).random((6, 5)) < 0.5).astype(float)
        good = TrainConfig(epochs=4, hidden_units=4, seed=5)
        diverging = replace(good, learning_rate=1e100, momentum=0.9)
        with mock.patch.object(rbm, "_lockstep_group", wraps=rbm._lockstep_group) as group:
            train_rbm(data, good)
            assert [call.kwargs["checked"] for call in group.call_args_list] == [False]
            group.reset_mock()
            with pytest.raises(ConvergenceError):
                train_rbm(data, diverging)
            assert [call.kwargs["checked"] for call in group.call_args_list] == [False, True]

    def test_classes_together_hold_at_most_one_uniform_block(self, monkeypatch):
        draws = []  # (stream seed, size) of every uniforms call
        live = {"now": 0, "peak": 0}
        original = SeededRng.uniforms

        def forget(size):
            live["now"] -= size

        def uniforms(rng, size):
            out = original(rng, size)
            draws.append((rng.seed, out.size))
            live["now"] += out.size
            live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(out, forget, out.size)
            return out

        monkeypatch.setattr(SeededRng, "uniforms", uniforms)
        m, n, epochs = 60, 40, 10
        rng = np.random.default_rng(36)
        sizes = {0: 90, 1: 120, 2: 150, 3: 40}
        datasets = {c: (rng.random((r, m)) < 0.4).astype(float) for c, r in sizes.items()}
        config = TrainConfig(epochs=epochs, hidden_units=n, seed=37, init_weight_scale=0.1)
        train_ensemble(datasets, config)

        assert live["peak"] <= rbm._UNIFORM_BLOCK
        # each class draws once per block, so a block ends where a stream draws again
        block, in_block = 0, set()
        for stream, size in draws:
            if stream in in_block:
                block, in_block = 0, set()
            in_block.add(stream)
            block += size
            assert block <= rbm._UNIFORM_BLOCK
        totals = {}
        for stream, size in draws:
            totals[stream] = totals.get(stream, 0) + size
        assert totals == {class_seed(37, c): epochs * r * (n + m) for c, r in sizes.items()}


class TestTrainingInternals:
    def test_pair_product_is_the_outer_product_difference_bit_for_bit(self):
        # training writes the weight gradient as [v1 v2] @ [p1; -p2], k classes at once
        rng = np.random.default_rng(34)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            v1, v2 = (rng.random((2, k, 7)) < rng.random()).astype(float)
            p1, p2 = rng.random((2, k, 5))
            p1[rng.random((k, 5)) < 0.2] = 0.0
            p2[rng.random((k, 5)) < 0.2] = 1.0
            got = np.matmul(np.stack([v1, v2], axis=-1), np.stack([p1, -p2], axis=1))
            for j in range(k):
                want = np.outer(v1[j], p1[j]) - np.outer(v2[j], p2[j])
                assert got[j].tobytes() == want.tobytes()

    def test_pair_product_spreads_a_nan_like_the_outer_product(self):
        v1 = np.array([1.0, 0.0, 1.0])
        v2 = np.array([0.0, 1.0, 0.0])
        p1 = np.array([0.2, 0.7])
        p2 = np.array([np.nan, 0.4])
        with np.errstate(invalid="ignore"):
            want = np.outer(v1, p1) - np.outer(v2, p2)
            got = np.matmul(np.stack([v1, v2], axis=-1), np.stack([p1, -p2]))
        assert np.isnan(got[:, 0]).all()
        assert np.array_equal(got, want, equal_nan=True)

    def test_stacked_chain_step_matches_each_chain_alone(self):
        rng = np.random.default_rng(35)
        for k, m, n in ((1, 4, 3), (3, 7, 5), (8, 100, 50), (2, 500, 100)):
            v1 = (rng.random((k, m)) < 0.5).astype(float)
            w, c, b = rng.standard_normal((k, m, n)), rng.standard_normal((k, m)), rng.standard_normal((k, n))
            u_hidden, u_visible = rng.random((k, n)), rng.random((k, m))
            stacked = rbm._chain_step(v1, w, c, b, u_hidden, u_visible)
            for j in range(k):
                alone = rbm._chain_step(v1[j], w[j], c[j], b[j], u_hidden[j], u_visible[j])
                assert [a[j].tobytes() for a in stacked] == [a.tobytes() for a in alone]

    def test_ceil_sampler_is_the_comparison_with_nan_kept(self):
        # _chain_step samples v2 as ceil(pv - u): the values of u < pv, -0.0 where pv < u,
        # and NaN exactly where pv is NaN
        rng = np.random.default_rng(39)
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        below_one = np.nextafter(1.0, 0.0)  # the largest uniform
        edges = [(0.5, 0.5), (0.0, 0.0), (0.0, 0.3), (0.0, below_one), (1.0, 0.0), (1.0, below_one),
                 (0.3, 0.0), (tiny, 0.0), (tiny, tiny), (tiny, 2 * tiny), (2 * tiny, tiny),
                 (np.nan, 0.0), (np.nan, 0.5), (np.nan, below_one)]
        pv = rng.random(10_000)
        u = np.where(rng.random(10_000) < 0.1, pv, rng.random(10_000))
        u[::7] = np.nextafter(pv[::7], rng.choice([0.0, 1.0], pv[::7].size))
        pv, u = np.concatenate([pv, [e[0] for e in edges]]), np.concatenate([u, [e[1] for e in edges]])
        got = np.ceil(pv - u)
        nan = np.isnan(pv)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan], (u < pv)[~nan].astype(float))
        assert np.array_equal(np.signbit(got[~nan]), (pv < u)[~nan])

    @pytest.mark.parametrize("where", ["weights", "visible_bias", "hidden_bias"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_finite_guard_catches_every_non_finite_entry(self, where, bad):
        arrays = {"weights": np.zeros((3, 2)), "visible_bias": np.zeros(3), "hidden_bias": np.zeros(2)}
        arrays[where].flat[-1] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            assert not rbm._all_finite(**arrays)

    def test_finite_guard_accepts_finite_entries_whose_sum_overflows(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert rbm._all_finite(np.full((2, 2), 1e308), np.full(3, -1e308), np.zeros(2))
            assert rbm._all_finite(np.zeros((2, 2)), np.full(4, 1e308), np.full(2, -1e308))

    @pytest.mark.parametrize("nan_in", ["weights", "hidden_bias", "visible_bias"])
    def test_chain_step_refuses_a_nan_probability(self, nan_in):
        # the NaN is not refused: it comes back in p1, or in v2 for a NaN visible bias, and
        # the update carries it into the parameters
        m, n = 4, 3
        arrays = {"weights": np.zeros((m, n)), "visible_bias": np.zeros(m), "hidden_bias": np.zeros(n)}
        if nan_in == "weights":
            arrays["weights"][:, 1] = np.nan  # a weight column: p1[1] is NaN
        else:
            arrays[nan_in][2] = np.nan  # p1[2] is NaN, or p1 is finite and p(v|h1)[2] is NaN
        p1, v2, _ = rbm._chain_step(np.ones(m), **arrays, u_hidden=np.full(n, 0.5),
                                    u_visible=np.full(m, 0.5))
        if nan_in == "visible_bias":
            assert np.isfinite(p1).all()
            assert np.isnan(v2[2])
        else:
            assert np.isnan(p1[{"weights": 1, "hidden_bias": 2}[nan_in]])


class TestRbmParamsValidation:
    def test_rejects_mismatched_biases(self):
        with pytest.raises(ValidationError):
            RbmParams(np.zeros((3, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError):
            RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            RbmParams(np.full((2, 2), np.inf), np.zeros(2), np.zeros(2))

    def test_unit_counts(self):
        params = RbmParams(np.zeros((5, 3)), np.zeros(5), np.zeros(3))
        assert params.num_visible == 5
        assert params.num_hidden == 3
