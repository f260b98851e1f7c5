"""Classifier ensemble: offset fitting, posterior computation, label prediction."""

import itertools

import numpy as np
import pytest

from spectral_rbm.classifier import (
    ClassEnsemble,
    OffsetFitConfig,
    class_seed,
    fit_offsets,
    predict_label,
    predict_label_batch,
    predict_proba,
    predict_proba_batch,
    train_ensemble,
)
from spectral_rbm.dataset import SplitSpec, SynthSpec, split, synth_generate
from spectral_rbm.errors import ValidationError
from spectral_rbm.metrics import evaluate
from spectral_rbm.rbm import (
    RbmParams,
    TrainConfig,
    exact_log_partition_function,
    free_energy,
    train_rbm,
)


def random_params(rng, m, n):
    return RbmParams(
        weights=rng.standard_normal((m, n)),
        visible_bias=rng.standard_normal(m),
        hidden_bias=rng.standard_normal(n),
    )


def mean_log_likelihood(table, labels, beta):
    """Objective that fit_offsets maximizes, recomputed independently."""
    logits = beta - table
    logits = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return float(log_probs[np.arange(len(labels)), labels].mean())


class TestFitOffsets:
    def test_symmetric_table_converges_to_equal_offsets(self):
        table = np.array([[1.0, 1.0]] * 10)
        labels = np.array([0] * 5 + [1] * 5)
        beta = fit_offsets(table, labels, OffsetFitConfig(tolerance=1e-10))
        assert abs(beta[0] - beta[1]) <= 1e-9
        assert beta[0] == 0.0  # anchored

    def test_objective_increases_monotonically(self):
        # imbalanced classes force real movement; iterate budgets give the trajectory
        rng = np.random.default_rng(0)
        table = rng.standard_normal((40, 3))
        labels = np.array([0] * 20 + [1] * 12 + [2] * 8)
        values = []
        for budget in range(1, 40):
            beta = fit_offsets(table, labels, OffsetFitConfig(
                learning_rate=0.5, iterations=budget, tolerance=1e-12))
            values.append(mean_log_likelihood(table, labels, beta))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_gradient_reaches_tolerance(self):
        rng = np.random.default_rng(1)
        table = rng.standard_normal((60, 2))
        labels = (rng.random(60) < 0.4).astype(np.int64)
        labels[0], labels[1] = 0, 1  # both classes present
        tol = 1e-9
        beta = fit_offsets(table, labels, OffsetFitConfig(iterations=50_000, tolerance=tol))
        logits = beta - table
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        target = np.bincount(labels, minlength=2) / len(labels)
        grad = target - probs.mean(axis=0)
        assert np.abs(grad).max() <= tol

    def test_offsets_track_class_priors_for_identical_columns(self):
        # identical free energies leave only the priors to explain the labels
        table = np.zeros((100, 2))
        labels = np.array([0] * 75 + [1] * 25)
        beta = fit_offsets(table, labels, OffsetFitConfig(iterations=20_000, tolerance=1e-12))
        assert abs((beta[1] - beta[0]) - np.log(25 / 75)) <= 1e-6

    def test_rejects_absent_class(self):
        table = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            fit_offsets(table, np.array([0, 0, 0, 0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            fit_offsets(np.zeros((4, 2)), np.array([0, 1, 0]))
        with pytest.raises(ValidationError):
            fit_offsets(np.zeros((4, 1)), np.array([0, 0, 0, 0]))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValidationError):
            fit_offsets(np.zeros((2, 2)), np.array([0, 2]))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OffsetFitConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            OffsetFitConfig(iterations=0)
        with pytest.raises(ValidationError):
            OffsetFitConfig(tolerance=0.0)


class TestPredictProba:
    def _two_model_ensemble(self, seed=2, offsets=(0.0, 0.0)):
        rng = np.random.default_rng(seed)
        return ClassEnsemble(
            classes=[0, 1],
            models=[random_params(rng, 5, 3), random_params(rng, 5, 3)],
            offsets=np.array(offsets, dtype=float),
        )

    def test_identical_models_split_evenly(self):
        rng = np.random.default_rng(3)
        model = random_params(rng, 4, 2)
        twin = RbmParams(model.weights.copy(), model.visible_bias.copy(), model.hidden_bias.copy())
        ensemble = ClassEnsemble(classes=[0, 1], models=[model, twin], offsets=np.zeros(2))
        probs = predict_proba(np.array([1.0, 0.0, 1.0, 0.0]), ensemble)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_sums_to_one(self):
        ensemble = self._two_model_ensemble()
        rng = np.random.default_rng(4)
        rows = (rng.random((200, 5)) < 0.5).astype(float)
        probs = predict_proba_batch(rows, ensemble)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_offsets_do_not_overflow(self):
        ensemble = self._two_model_ensemble(offsets=(1000.0, -1000.0))
        with np.errstate(over="raise"):
            probs = predict_proba(np.array([1.0, 1.0, 0.0, 0.0, 1.0]), ensemble)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs[0] > 0.999999

    def test_matches_exact_class_likelihood_mixture(self):
        # with offsets beta_c, the posterior must equal
        # p(v|c) * exp(beta_c + log Z_c) normalized over classes
        rng = np.random.default_rng(5)
        models = [random_params(rng, 4, 3), random_params(rng, 4, 3)]
        offsets = np.array([0.3, -0.8])
        ensemble = ClassEnsemble(classes=[0, 1], models=models, offsets=offsets)
        log_z = np.array([exact_log_partition_function(m) for m in models])
        for bits in itertools.product((0.0, 1.0), repeat=4):
            v = np.array(bits)
            log_like = np.array([-free_energy(v, m) for m in models]) - log_z
            mix = np.exp(log_like + offsets + log_z)
            expected = mix / mix.sum()
            np.testing.assert_allclose(predict_proba(v, ensemble), expected, atol=1e-12)

    def test_offset_shift_invariance(self):
        base = self._two_model_ensemble(seed=6)
        shifted = ClassEnsemble(
            classes=base.classes, models=base.models, offsets=base.offsets + 123.0)
        rng = np.random.default_rng(7)
        rows = (rng.random((50, 5)) < 0.5).astype(float)
        np.testing.assert_allclose(
            predict_proba_batch(rows, base),
            predict_proba_batch(rows, shifted),
            atol=1e-12,
        )

    def test_rejects_wrong_width(self):
        ensemble = self._two_model_ensemble()
        with pytest.raises(ValidationError):
            predict_proba(np.zeros(4), ensemble)

    def test_single_vector_wrappers_reject_matrices(self):
        # the batch functions' 2-d check is the wrappers' only shape check
        ensemble = self._two_model_ensemble()
        for bad in (np.zeros((2, 5)), 1.0):
            with pytest.raises(ValidationError):
                predict_proba(bad, ensemble)
            with pytest.raises(ValidationError):
                predict_label(bad, ensemble)


class TestPredictLabel:
    def test_bayes_agreement_on_enumerable_models(self):
        # offsets set to -log Z_c turn the scores into exact log-likelihoods,
        # so prediction must match the Bayes rule under uniform priors
        rng = np.random.default_rng(8)
        for trial in range(5):
            models = [random_params(rng, 5, 3) for _ in range(3)]
            offsets = np.array([-exact_log_partition_function(m) for m in models])
            ensemble = ClassEnsemble(classes=[0, 1, 2], models=models, offsets=offsets)
            for bits in itertools.product((0.0, 1.0), repeat=5):
                v = np.array(bits)
                log_like = np.array(
                    [-free_energy(v, m) - exact_log_partition_function(m) for m in models]
                )
                assert predict_label(v, ensemble) == int(np.argmax(log_like))

    def test_exact_tie_goes_to_lowest_class_id(self):
        rng = np.random.default_rng(9)
        model = random_params(rng, 4, 2)
        twin = RbmParams(model.weights.copy(), model.visible_bias.copy(), model.hidden_bias.copy())
        ensemble = ClassEnsemble(classes=[7, 3], models=[model, twin], offsets=np.zeros(2))
        assert predict_label(np.array([1.0, 0.0, 0.0, 1.0]), ensemble) == 3

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        models = [random_params(rng, 6, 3), random_params(rng, 6, 3)]
        ensemble = ClassEnsemble(classes=[0, 1], models=models, offsets=np.array([0.1, -0.2]))
        rows = (rng.random((40, 6)) < 0.5).astype(float)
        batch = predict_label_batch(rows, ensemble)
        singles = np.array([predict_label(row, ensemble) for row in rows])
        np.testing.assert_array_equal(batch, singles)


class TestTrainEnsemble:
    def test_separable_classes_classify_training_data(self):
        spec = SynthSpec(classes=2, samples_per_class=40, dim=30, separation=1.0,
                         noise=0.03, seed=5)
        ds = synth_generate(spec)
        config = TrainConfig(epochs=15, hidden_units=12, seed=1, init_weight_scale=0.01)
        ensemble = train_ensemble(ds.class_matrices(), config)
        predictions = predict_label_batch(ds.features, ensemble)
        report = evaluate(predictions, ds.labels)
        assert report.accuracy >= 0.99

    def test_separable_classes_generalize_to_held_out_half(self):
        ds = synth_generate(SynthSpec(classes=2, samples_per_class=60, dim=24,
                                      separation=1.0, noise=0.05, seed=6))
        train_ds, test_ds = split(ds, SplitSpec(train_fraction=0.5, seed=3))
        config = TrainConfig(epochs=20, hidden_units=10, seed=2, init_weight_scale=0.01)
        ensemble = train_ensemble(train_ds.class_matrices(), config)
        report = evaluate(predict_label_batch(test_ds.features, ensemble), test_ds.labels)
        assert report.accuracy >= 0.95

    def test_deterministic(self):
        ds = synth_generate(SynthSpec(classes=2, samples_per_class=10, dim=12, seed=7))
        config = TrainConfig(epochs=2, hidden_units=5, seed=9, init_weight_scale=0.01)
        a = train_ensemble(ds.class_matrices(), config)
        b = train_ensemble(ds.class_matrices(), config)
        assert np.array_equal(a.offsets, b.offsets)
        for ma, mb in zip(a.models, b.models):
            assert np.array_equal(ma.weights, mb.weights)

    def test_class_seeds_differ_and_are_stable(self):
        seeds = {class_seed(42, c) for c in range(10)}
        assert len(seeds) == 10  # distinct per class
        assert class_seed(42, 3) == class_seed(42, 3)
        assert class_seed(42, 3) != class_seed(43, 3)

    def test_adding_a_class_does_not_perturb_existing_models(self):
        ds = synth_generate(SynthSpec(classes=3, samples_per_class=8, dim=10, seed=11))
        groups = ds.class_matrices()
        config = TrainConfig(epochs=2, hidden_units=4, seed=13, init_weight_scale=0.01)
        two = train_ensemble({c: groups[c] for c in (0, 1)}, config)
        three = train_ensemble(groups, config)
        for idx in (0, 1):
            assert np.array_equal(two.models[idx].weights, three.models[idx].weights)

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            train_ensemble({0: np.zeros((4, 3))}, TrainConfig(epochs=1, hidden_units=2))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValidationError):
            train_ensemble(
                {0: np.zeros((4, 3)), 1: np.zeros((4, 5))},
                TrainConfig(epochs=1, hidden_units=2),
            )

    def test_rejects_non_binary_rows(self):
        with pytest.raises(ValidationError):
            train_ensemble(
                {0: np.full((4, 3), 0.5), 1: np.zeros((4, 3))},
                TrainConfig(epochs=1, hidden_units=2),
            )


class TestClassEnsembleValidation:
    def test_rejects_single_class(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValidationError):
            ClassEnsemble(classes=[0], models=[random_params(rng, 3, 2)], offsets=np.zeros(1))

    def test_rejects_duplicate_ids(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValidationError):
            ClassEnsemble(
                classes=[1, 1],
                models=[random_params(rng, 3, 2), random_params(rng, 3, 2)],
                offsets=np.zeros(2),
            )

    def test_rejects_width_disagreement(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValidationError):
            ClassEnsemble(
                classes=[0, 1],
                models=[random_params(rng, 3, 2), random_params(rng, 4, 2)],
                offsets=np.zeros(2),
            )

    def test_rejects_non_finite_offsets(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValidationError):
            ClassEnsemble(
                classes=[0, 1],
                models=[random_params(rng, 3, 2), random_params(rng, 3, 2)],
                offsets=np.array([0.0, np.inf]),
            )
