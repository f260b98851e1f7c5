"""Classifier ensemble: offset fitting, posterior computation, label prediction."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from nan_faults import random_params

from spectral_rbm import classifier
from spectral_rbm.classifier import (
    ClassEnsemble,
    OffsetFitConfig,
    class_seed,
    fit_offsets,
    predict_label_batch,
    predict_proba_batch,
    train_ensemble,
)
from spectral_rbm.dataset import SplitSpec, SynthSpec, split, synth_generate
from spectral_rbm.errors import ConvergenceError, ValidationError
from spectral_rbm.metrics import evaluate
from spectral_rbm.rbm import (
    RbmParams,
    TrainConfig,
    exact_log_partition_function,
    free_energy_batch,
    train_rbm,
)


def log_posteriors(table, beta):
    logits = beta - table
    logits = logits - logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def mean_log_likelihood(table, labels, beta):
    """Objective that fit_offsets maximizes, recomputed independently."""
    return float(log_posteriors(table, beta)[np.arange(len(labels)), labels].mean())


def gradient(table, labels, beta):
    """The objective's gradient: label frequencies minus mean posteriors."""
    target = np.bincount(labels, minlength=table.shape[1]) / len(labels)
    return target - np.exp(log_posteriors(table, beta)).mean(axis=0)


class TestFitOffsets:
    def test_symmetric_table_converges_to_equal_offsets(self):
        table = np.array([[1.0, 1.0]] * 10)
        labels = np.array([0] * 5 + [1] * 5)
        beta = fit_offsets(table, labels, OffsetFitConfig(tolerance=1e-10))
        assert abs(beta[0] - beta[1]) <= 1e-9
        assert beta[0] == 0.0  # anchored

    def test_objective_increases_monotonically(self, monkeypatch):
        # imbalanced classes force real movement; capping the step budget
        # and reading last_iterate gives the Newton trajectory
        rng = np.random.default_rng(0)
        table = rng.standard_normal((40, 3))
        labels = np.array([0] * 20 + [1] * 12 + [2] * 8)
        values = []
        for budget in range(0, 8):
            monkeypatch.setattr(classifier, "_NEWTON_STEPS", budget)
            try:
                beta = fit_offsets(table, labels, OffsetFitConfig(tolerance=1e-12))
            except ConvergenceError as exc:
                beta = exc.last_iterate
            values.append(mean_log_likelihood(table, labels, beta))
        assert values[1] > values[0]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("tolerance", [1e-8, 1e-12])
    def test_random_tables_reach_a_maximum(self, k, tolerance):
        rng = np.random.default_rng(k)
        for scale in (0.1, 1.0, 3.0):
            table = rng.standard_normal((60, k)) * scale
            labels = np.concatenate([np.arange(k), rng.integers(0, k, 60 - k)])
            beta = fit_offsets(table, labels, OffsetFitConfig(tolerance=tolerance))
            assert beta[0] == 0.0
            assert np.abs(gradient(table, labels, beta)).max() <= tolerance
            best = mean_log_likelihood(table, labels, beta)
            for j, move in itertools.product(range(1, k), (1e-6, -1e-6)):
                moved = beta.copy()
                moved[j] += move
                assert mean_log_likelihood(table, labels, moved) <= best

    def test_saturated_table_converges(self):
        # at zero offsets column 1 takes every row, so the curvature is
        # nearly singular there
        table = np.random.default_rng(3).standard_normal((80, 4)) * 3
        table[:, 1] -= 200
        labels = np.repeat(np.arange(4), 20)
        beta = fit_offsets(table, labels)
        assert np.abs(gradient(table, labels, beta)).max() <= OffsetFitConfig().tolerance
        assert -210 < beta[1] < -190

    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_nearly_separable_tables_converge(self, seed):
        # the curvature all but vanishes; without the ridge the line search
        # runs out of halvings within a few Newton steps
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((24, 3)) * 300
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, 21)])
        beta = fit_offsets(table, labels)
        assert np.abs(gradient(table, labels, beta)).max() <= OffsetFitConfig().tolerance

    def test_columns_thousands_apart_converge(self):
        # per-model shifts dwarf the row noise; from zero offsets alone the
        # steps zig-zag between saturated columns and use up the budget
        rng = np.random.default_rng(3)
        shifts = rng.uniform(-1e4, 1e4, 8)
        table = rng.standard_normal((40, 8)) * 0.5 + shifts
        labels = np.repeat(np.arange(8), 5)
        beta = fit_offsets(table, labels)
        assert np.abs(gradient(table, labels, beta)).max() <= OffsetFitConfig().tolerance
        np.testing.assert_allclose(beta, shifts - shifts[0], atol=10)

    def test_zero_gradient_at_the_start_returns_zero_offsets(self):
        # each row's own column wins outright, so the soft-max already fits
        # the labels exactly and the flat optimum is left where it starts
        table = np.full((6, 3), 1000.0)
        labels = np.array([0, 1, 2, 0, 1, 2])
        table[np.arange(6), labels] = 0.0
        beta = fit_offsets(table, labels)
        assert np.array_equal(beta, np.zeros(3))

    @pytest.mark.parametrize("seed, shape, scale", [
        (4, (50, 3), 1.0),
        # separates so sharply that the curvature turns singular in rounding
        (26, (12, 8), 1000.0),
    ])
    def test_unreachable_tolerance_raises_with_a_finite_iterate(self, seed, shape, scale):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal(shape) * scale
        k = shape[1]
        labels = np.concatenate([np.arange(k), rng.integers(0, k, shape[0] - k)])
        with pytest.raises(ConvergenceError) as excinfo:
            fit_offsets(table, labels, OffsetFitConfig(tolerance=1e-300))
        beta = excinfo.value.last_iterate
        assert beta.shape == (k,) and np.all(np.isfinite(beta)) and beta[0] == 0.0
        assert np.abs(gradient(table, labels, beta)).max() <= 1e-8

    def test_a_table_near_the_float_limit_neither_overflows_nor_warns(self):
        # the plain column mean of the first column overflows to inf; any
        # leaked RuntimeWarning fails the test
        beta = fit_offsets([[1e308, -1e308], [1.5e308, 0], [0, 1.7e308]], [0, 1, 1])
        assert np.array_equal(beta, np.zeros(2))

    def test_column_sums_past_the_float_limit_still_centre(self):
        # 30 entries of about -3e307 sum past -1.8e308; the centring still
        # lines the columns up, and that already meets the tolerance
        rng = np.random.default_rng(3)
        table = -rng.uniform(1.0, 4.5, (30, 3)) * 1e307
        beta = fit_offsets(table, np.repeat(np.arange(3), 10))
        assert beta[0] == 0.0 and np.all(np.isfinite(beta)) and np.abs(beta).max() > 1e306

    def test_a_centring_past_float_range_is_not_taken(self):
        # the column means differ by 3.4e308; Newton alone cannot move that far
        table = np.tile([-1.7e308, 1.7e308], (4, 1))
        with pytest.raises(ConvergenceError, match="stopped after 100 steps at gradient 0.5,"):
            fit_offsets(table, [0, 1, 0, 1])

    def test_scores_plus_offsets_past_float_range_raise(self):
        # the centring raises the likelihood, but row 2's class 2 score of
        # 1.5e308 plus its new offset of 4.7e307 is +inf
        table = np.array([[-0.7, 1.7e308, 8.3e306],
                          [-1.4e308, 7.2e307, 9.0e307],
                          [-5.3e307, 8.1e307, -1.5e308]])
        with pytest.raises(ConvergenceError, match="^offset fit stopped after 1 steps: the scores "
                                                   "plus offsets overflow float64$") as excinfo:
            fit_offsets(table, [0, 1, 2])
        assert np.all(np.isfinite(excinfo.value.last_iterate))

    def test_gradient_reaches_tolerance(self):
        rng = np.random.default_rng(1)
        table = rng.standard_normal((60, 2))
        labels = (rng.random(60) < 0.4).astype(np.int64)
        labels[0], labels[1] = 0, 1  # both classes present
        tol = 1e-9
        beta = fit_offsets(table, labels, OffsetFitConfig(tolerance=tol))
        assert np.abs(gradient(table, labels, beta)).max() <= tol

    def test_offsets_track_class_priors_for_identical_columns(self):
        # identical free energies leave only the priors to explain the labels
        table = np.zeros((100, 2))
        labels = np.array([0] * 75 + [1] * 25)
        beta = fit_offsets(table, labels, OffsetFitConfig(tolerance=1e-12))
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
        probs = predict_proba_batch([[1.0, 0.0, 1.0, 0.0]], ensemble)[0]
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
            probs = predict_proba_batch([[1.0, 1.0, 0.0, 0.0, 1.0]], ensemble)[0]
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
        states = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
        log_like = np.column_stack([-free_energy_batch(states, m) for m in models]) - log_z
        mix = np.exp(log_like + offsets + log_z)
        expected = mix / mix.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(predict_proba_batch(states, ensemble), expected, atol=1e-12)

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

    def test_a_free_energy_that_overflows_names_its_class(self):
        # finite weights of 1e308 overflow the free energy of any row with a 1
        rng = np.random.default_rng(8)
        huge = RbmParams(np.full((6, 3), 1e308), np.zeros(6), np.zeros(3))
        ensemble = ClassEnsemble(classes=[0, 1], models=[random_params(rng, 6, 3), huge],
                                 offsets=np.zeros(2))
        rows = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 1.0, 0, 0, 0], [0.0] * 6])
        message = "^class 1: the model gives 2 of 3 rows a non-finite free energy$"
        with pytest.raises(ValidationError, match=message):
            predict_proba_batch(rows, ensemble)
        with pytest.raises(ValidationError, match=message):
            predict_label_batch(rows, ensemble)

    def test_a_score_that_overflows_names_its_class(self):
        # offset 1e308 minus a free energy of -1e308 is past float range
        models = [RbmParams(np.zeros((3, 2)), np.array([1e308, 0, 0]), np.zeros(2)),
                  RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))]
        ensemble = ClassEnsemble(classes=[0, 1], models=models, offsets=np.array([1e308, 0]))
        message = "^class 0: the model gives 1 of 2 rows a non-finite score$"
        rows = np.array([[1.0, 0, 0], [0.0, 1, 1]])
        with pytest.raises(ValidationError, match=message):
            predict_proba_batch(rows, ensemble)
        with pytest.raises(ValidationError, match=message):
            predict_label_batch(rows, ensemble)

    def test_a_score_past_float_range_below_its_best_gets_probability_zero(self):
        models = [RbmParams(np.zeros((3, 2)), np.array([1e308, 0, 0]), np.zeros(2)),
                  RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))]
        ensemble = ClassEnsemble(classes=[0, 1], models=models, offsets=np.array([0, -1e308]))
        probs = predict_proba_batch(np.array([[1.0, 0, 0], [0.0, 0, 0]]), ensemble)
        np.testing.assert_array_equal(probs, [[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_wrong_width(self):
        ensemble = self._two_model_ensemble()
        with pytest.raises(ValidationError):
            predict_proba_batch(np.zeros((1, 4)), ensemble)
        with pytest.raises(ValidationError):
            predict_label_batch(np.zeros((1, 4)), ensemble)

    def test_single_vector_wrappers_reject_matrices(self):
        # one row is scored as [v]; a matrix or a scalar in its place is refused
        ensemble = self._two_model_ensemble()
        for bad in (np.zeros((2, 5)), 1.0):
            with pytest.raises(ValidationError):
                predict_proba_batch([bad], ensemble)
            with pytest.raises(ValidationError):
                predict_label_batch([bad], ensemble)


class TestPredictLabel:
    def test_bayes_agreement_on_enumerable_models(self):
        # offsets set to -log Z_c turn the scores into exact log-likelihoods,
        # so prediction must match the Bayes rule under uniform priors
        rng = np.random.default_rng(8)
        states = np.array(list(itertools.product((0.0, 1.0), repeat=5)))
        for trial in range(5):
            models = [random_params(rng, 5, 3) for _ in range(3)]
            offsets = np.array([-exact_log_partition_function(m) for m in models])
            ensemble = ClassEnsemble(classes=[0, 1, 2], models=models, offsets=offsets)
            log_like = np.column_stack(
                [-free_energy_batch(states, m) - exact_log_partition_function(m) for m in models]
            )
            np.testing.assert_array_equal(predict_label_batch(states, ensemble),
                                          np.argmax(log_like, axis=1))

    def test_exact_tie_goes_to_lowest_class_id(self):
        rng = np.random.default_rng(9)
        model = random_params(rng, 4, 2)
        twin = RbmParams(model.weights.copy(), model.visible_bias.copy(), model.hidden_bias.copy())
        ensemble = ClassEnsemble(classes=[7, 3], models=[model, twin], offsets=np.zeros(2))
        assert predict_label_batch([[1.0, 0.0, 0.0, 1.0]], ensemble)[0] == 3

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        models = [random_params(rng, 6, 3), random_params(rng, 6, 3)]
        ensemble = ClassEnsemble(classes=[0, 1], models=models, offsets=np.array([0.1, -0.2]))
        rows = (rng.random((40, 6)) < 0.5).astype(float)
        batch = predict_label_batch(rows, ensemble)
        singles = np.array([predict_label_batch([row], ensemble)[0] for row in rows])
        np.testing.assert_array_equal(batch, singles)


class TestTrainEnsemble:
    def test_separable_classes_classify_training_data(self):
        spec = SynthSpec(classes=2, samples_per_class=40, dim=30, noise=0.03, seed=5)
        ds = synth_generate(spec)
        config = TrainConfig(epochs=15, hidden_units=12, seed=1, init_weight_scale=0.01)
        ensemble = train_ensemble(ds.class_matrices(), config)
        predictions = predict_label_batch(ds.features, ensemble)
        report = evaluate(predictions, ds.labels)
        assert report.accuracy >= 0.99

    def test_separable_classes_generalize_to_held_out_half(self):
        ds = synth_generate(SynthSpec(classes=2, samples_per_class=60, dim=24,
                                      noise=0.05, seed=6))
        train_ds, test_ds = split(ds, SplitSpec(train_fraction=0.5, seed=3))
        config = TrainConfig(epochs=20, hidden_units=10, seed=2, init_weight_scale=0.01)
        ensemble = train_ensemble(train_ds.class_matrices(), config)
        report = evaluate(predict_label_batch(test_ds.features, ensemble), test_ds.labels)
        assert report.accuracy >= 0.95

    def test_a_training_row_with_a_non_finite_free_energy_names_its_class(self):
        # training keeps the weights finite, but class 1's model overflows the
        # free energy of 3 of the 30 pooled rows
        ds = synth_generate(SynthSpec(classes=3, samples_per_class=10, dim=100, seed=1))
        config = TrainConfig(hidden_units=50, epochs=3, init_weight_scale=1e306)
        with pytest.raises(ConvergenceError,
                           match="^class 1: the model gives 3 of 30 rows a non-finite free energy$"):
            train_ensemble(ds.class_matrices(), config)

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


# --- finite arithmetic ------------------------------------------------------
#
# Finite inputs at any scale: scoring gives a class id or a ValidationError,
# the offset fit finite offsets or the package's own error, and neither warns
# (the test configuration turns a warning into a failure).

_MAX = np.finfo(float).max


# A finite float of magnitude 10^e, e in [-300, 308], of either sign, or zero.
_SCALED = st.builds(lambda sign, m, e: sign * min(m * 10.0**e, _MAX), st.sampled_from([-1.0, 1.0]),
                    st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 308)) | st.just(0.0)


def _vectors(n):
    return st.lists(_SCALED, min_size=n, max_size=n).map(np.array)


@st.composite
def _ensembles(draw):
    k, m, n = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    models = [RbmParams(draw(_vectors(m * n)).reshape(m, n), draw(_vectors(m)), draw(_vectors(n)))
              for _ in range(k)]
    classes = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k, unique=True))
    return ClassEnsemble(classes=classes, models=models, offsets=draw(_vectors(k)))


@st.composite
def _labeled_tables(draw):
    k, extra = draw(st.integers(2, 3)), draw(st.integers(0, 5))
    labels = np.array(list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=extra,
                                                     max_size=extra)))
    return draw(_vectors(len(labels) * k)).reshape(len(labels), k), labels


_OVERFLOWING_SCORE = ClassEnsemble(
    classes=[0, 1],
    models=[RbmParams(np.zeros((3, 2)), np.array([1e308, 0, 0]), np.zeros(2)),
            RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))],
    offsets=np.array([1e308, 0]),
)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(ensemble=_ensembles(), bits=st.lists(st.booleans(), max_size=12))
@example(ensemble=_OVERFLOWING_SCORE, bits=[True, False, False])
def test_scoring_gives_a_class_id_or_a_validation_error(ensemble, bits):
    m = ensemble.num_visible
    rows = np.array(bits[:len(bits) // m * m], dtype=float).reshape(-1, m)
    try:
        labels = predict_label_batch(rows, ensemble)
    except ValidationError as exc:
        assert str(exc).startswith("class ")
        return
    assert labels.shape == (len(rows),) and set(labels.tolist()) <= set(ensemble.classes)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(case=_labeled_tables())
@example(case=(np.array([[1e308, -1e308], [1.5e308, 0], [0, 1.7e308]]), np.array([0, 1, 1])))
def test_offset_fit_gives_finite_offsets_or_its_own_error(case):
    table, labels = case
    try:
        beta = fit_offsets(table, labels)
    except (ConvergenceError, ValidationError):
        return
    assert beta.shape == (table.shape[1],) and np.all(np.isfinite(beta)) and beta[0] == 0.0
