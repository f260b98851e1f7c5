"""RBM core: energy model, conditionals, sampling, CD-1, free energy, exact oracles, Gibbs kernel."""

import itertools

import numpy as np
import pytest

from spectral_rbm.errors import SizeLimitError, ValidationError
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
    exact_partition_function,
    free_energy,
    free_energy_batch,
    hidden_probs,
    sample_bits,
    sigmoid,
    train_rbm,
    visible_probs,
)


def random_params(rng, m, n, scale=1.0):
    return RbmParams(
        weights=rng.standard_normal((m, n)) * scale,
        visible_bias=rng.standard_normal(m) * scale,
        hidden_bias=rng.standard_normal(n) * scale,
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
        np.testing.assert_array_equal(hidden_probs(np.array([1.0, 0.0, 1.0]), params), [0.5, 0.5])
        np.testing.assert_array_equal(visible_probs(np.array([1.0, 0.0]), params), [0.5, 0.5, 0.5])

    def test_zero_visible_reads_hidden_bias(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 3, 2)
        got = hidden_probs(np.zeros(3), params)
        np.testing.assert_allclose(got, sigmoid(params.hidden_bias), atol=1e-15)

    def test_hidden_probs_match_two_state_boltzmann_ratio(self):
        # flipping h_j with the other hidden units pinned at zero
        rng = np.random.default_rng(5)
        for trial in range(10):
            params = random_params(rng, 4, 3)
            v = (rng.random(4) < 0.5).astype(float)
            probs = hidden_probs(v, params)
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
            v = (rng.random(m) < 0.5).astype(float)
            weights = np.array([np.exp(-energy(v, h, params)) for h in all_bit_vectors(n)])
            total = weights.sum()
            marginal = np.zeros(n)
            for h, w in zip(all_bit_vectors(n), weights):
                marginal += h * w
            np.testing.assert_allclose(hidden_probs(v, params), marginal / total, atol=1e-10)

    def test_visible_probs_match_full_joint_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            params = random_params(rng, m, n)
            h = (rng.random(n) < 0.5).astype(float)
            weights = np.array([np.exp(-energy(v, h, params)) for v in all_bit_vectors(m)])
            total = weights.sum()
            marginal = np.zeros(m)
            for v, w in zip(all_bit_vectors(m), weights):
                marginal += v * w
            np.testing.assert_allclose(visible_probs(h, params), marginal / total, atol=1e-10)

    def test_dimension_mismatch(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValidationError):
            hidden_probs(np.zeros(2), params)
        with pytest.raises(ValidationError):
            visible_probs(np.zeros(3), params)


class TestSampleBits:
    def test_degenerate_probabilities(self):
        rng = SeededRng(0)
        np.testing.assert_array_equal(sample_bits(np.zeros(6), rng), np.zeros(6))
        np.testing.assert_array_equal(sample_bits(np.ones(6), rng), np.ones(6))

    def test_marginals_within_three_sigma(self):
        rng = SeededRng(1)
        probs = np.array([0.2, 0.8])
        draws = np.stack([sample_bits(probs, rng) for _ in range(10_000)])
        means = draws.mean(axis=0)
        sigma = np.sqrt(probs * (1 - probs) / 10_000)
        assert np.all(np.abs(means - probs) <= 3 * sigma)

    def test_components_uncorrelated(self):
        rng = SeededRng(2)
        probs = np.array([0.2, 0.8])
        draws = np.stack([sample_bits(probs, rng) for _ in range(10_000)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(10_000)

    def test_output_is_binary_float(self):
        rng = SeededRng(3)
        out = sample_bits(np.full(100, 0.5), rng)
        assert out.dtype == np.float64
        assert np.all((out == 0.0) | (out == 1.0))

    def test_rejects_bad_probabilities(self):
        rng = SeededRng(4)
        for bad in ([-0.1, 0.5], [0.5, 1.1], [np.nan, 0.5]):
            with pytest.raises(ValidationError):
                sample_bits(np.array(bad), rng)


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

        p1 = hidden_probs(v1, params)
        exp_vh = np.zeros((m, n))
        exp_v = np.zeros(m)
        exp_h = np.zeros(n)
        for h1 in all_bit_vectors(n):
            w_h1 = float(np.prod(np.where(h1 == 1.0, p1, 1.0 - p1)))
            pv = visible_probs(h1, params)
            for v2 in all_bit_vectors(m):
                w_v2 = float(np.prod(np.where(v2 == 1.0, pv, 1.0 - pv)))
                weight = w_h1 * w_v2
                p2 = hidden_probs(v2, params)
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


class TestFreeEnergy:
    def test_zero_params_give_minus_n_log_two(self):
        params = RbmParams(np.zeros((3, 4)), np.zeros(3), np.zeros(4))
        expected = -4.0 * np.log(2.0)
        assert abs(free_energy(np.array([1.0, 0.0, 1.0]), params) - expected) <= 1e-12

    def test_zero_visible_reads_hidden_bias_only(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 3, 4)
        expected = -np.log1p(np.exp(params.hidden_bias)).sum()
        assert abs(free_energy(np.zeros(3), params) - expected) <= 1e-12

    def test_matches_hidden_state_enumeration(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            params = random_params(rng, m, n)
            v = (rng.random(m) < 0.5).astype(float)
            brute = -np.log(sum(np.exp(-energy(v, h, params)) for h in all_bit_vectors(n)))
            assert abs(free_energy(v, params) - brute) <= 1e-10

    def test_large_inputs_stay_finite(self):
        params = RbmParams(np.zeros((2, 3)), np.zeros(2), np.full(3, 500.0))
        with np.errstate(over="raise"):
            got = free_energy(np.array([1.0, 0.0]), params)
        assert abs(got - (-1500.0)) <= 1e-9

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(14)
        params = random_params(rng, 5, 3)
        rows = (rng.random((10, 5)) < 0.5).astype(float)
        batch = free_energy_batch(rows, params)
        singles = np.array([free_energy(row, params) for row in rows])
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_batch_rejects_wrong_width(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValidationError):
            free_energy_batch(np.zeros((4, 2)), params)


class TestExactPartitionFunction:
    def test_zero_params_count_states(self):
        params = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        assert abs(exact_partition_function(params) - 32.0) <= 1e-9

    def test_no_hidden_units_closed_form(self):
        t = 0.7
        params = RbmParams(np.zeros((1, 0)), np.array([t]), np.zeros(0))
        assert abs(exact_partition_function(params) - (1.0 + np.exp(t))) <= 1e-12

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
        # pairwise energy sum vs analytic marginalization through free_energy
        rng = np.random.default_rng(16)
        for trial in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            params = random_params(rng, m, n)
            via_free_energy = np.logaddexp.reduce(
                [-free_energy(v, params) for v in all_bit_vectors(m)]
            )
            assert abs(exact_log_partition_function(params) - via_free_energy) <= 1e-9

    def test_size_guard(self):
        params = RbmParams(np.zeros((13, 12)), np.zeros(13), np.zeros(12))
        with pytest.raises(SizeLimitError):
            exact_log_partition_function(params)
        with pytest.raises(SizeLimitError):
            exact_partition_function(params)


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
        with pytest.raises(SizeLimitError):
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
        with pytest.raises(SizeLimitError, match="2m \\+ n"):
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
        np.testing.assert_allclose(got.weights, weights, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got.visible_bias, vbias, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got.hidden_bias, hbias, rtol=0, atol=1e-14)

    def test_learns_the_all_ones_pattern(self):
        data = np.ones((30, 5))
        config = TrainConfig(epochs=50, hidden_units=4, seed=7, init_weight_scale=0.01)
        params = train_rbm(data, config)
        h = sample_bits(hidden_probs(np.ones(5), params), SeededRng(8))
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
