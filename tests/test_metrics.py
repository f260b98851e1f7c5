"""Confusion matrices, accuracy, per-class recall."""

import numpy as np
import pytest

from spectral_rbm.errors import ValidationError
from spectral_rbm.metrics import EvalReport, evaluate


class TestEvaluate:
    def test_perfect_predictions(self):
        truth = np.array([0, 1, 0, 1, 2])
        report = evaluate(truth.copy(), truth)
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(report.per_class_recall, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(report.confusion,
                                      [[2, 0, 0], [0, 2, 0], [0, 0, 1]])

    def test_imbalanced_degenerate_predictor(self):
        # predictor that always says 0 on a 3409/104 mix
        truth = np.array([0] * 3409 + [1] * 104)
        predicted = np.zeros(3513, dtype=np.int64)
        report = evaluate(predicted, truth)
        assert report.accuracy == 3409 / 3513
        assert report.recall_for(0) == 1.0
        assert report.recall_for(1) == 0.0
        np.testing.assert_array_equal(report.confusion, [[3409, 0], [104, 0]])

    def test_confusion_counts_match_pair_loop(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 500)
        predicted = rng.integers(0, 4, 500)
        report = evaluate(predicted, truth)
        for ti, t in enumerate(report.classes):
            for pi, p in enumerate(report.classes):
                want = int(np.sum((truth == t) & (predicted == p)))
                assert report.confusion[ti, pi] == want

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, 200)
        predicted = rng.integers(0, 3, 200)
        report = evaluate(predicted, truth)
        for ti, t in enumerate(report.classes):
            assert report.confusion[ti].sum() == int((truth == t).sum())
        assert report.confusion.sum() == 200

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, 300)
        predicted = rng.integers(0, 3, 300)
        report = evaluate(predicted, truth)
        assert report.accuracy == np.trace(report.confusion) / 300

    def test_sample_order_irrelevant(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, 120)
        predicted = rng.integers(0, 3, 120)
        perm = rng.permutation(120)
        a = evaluate(predicted, truth)
        b = evaluate(predicted[perm], truth[perm])
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.accuracy == b.accuracy

    def test_class_set_is_union_of_both_sides(self):
        truth = np.array([0, 0, 1])
        predicted = np.array([0, 2, 1])  # class 2 never appears in truth
        report = evaluate(predicted, truth)
        np.testing.assert_array_equal(report.classes, [0, 1, 2])
        assert np.isnan(report.recall_for(2))
        np.testing.assert_array_equal(report.confusion[2], [0, 0, 0])

    def test_undefined_recall_rendered_as_text(self):
        report = evaluate(np.array([0, 2]), np.array([0, 0]))
        text = report.to_text()
        assert "undefined" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(np.array([0, 1]), np.array([0]))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(np.array([0.5, 1.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, 1e30])
    def test_float_labels_are_rejected_even_when_integral(self, bad):
        # both equal their own floor; cast to int64 they became class -2**63
        with pytest.raises(ValidationError, match="integer"):
            evaluate(np.array([bad, 1.0]), np.array([0, 1]))
        with pytest.raises(ValidationError, match="integer"):
            evaluate(np.array([0, 1]), np.array([bad, 1.0]))


class TestEvalReport:
    def make_report(self):
        return evaluate(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0]))

    def test_recall_for_unknown_class(self):
        report = self.make_report()
        with pytest.raises(ValidationError):
            report.recall_for(99)

    def test_to_text_contains_counts_and_accuracy(self):
        report = self.make_report()
        text = report.to_text()
        assert "accuracy" in text
        assert "0.75" in text  # 3 of 4 correct

    def test_to_flat_keys(self):
        report = self.make_report()
        flat = dict(report.to_flat())
        assert flat["report_version"] == "1"
        assert flat["sample_count"] == "4"
        assert float(flat["accuracy"]) == report.accuracy
        assert float(flat["recall.0"]) == report.recall_for(0)
        assert flat["confusion.0.1"] == "1"
        # flat form reconstructs the full confusion matrix
        for ti, t in enumerate(report.classes):
            for pi, p in enumerate(report.classes):
                assert int(flat[f"confusion.{t}.{p}"]) == report.confusion[ti, pi]

    def test_flat_accuracy_round_trips_exactly(self):
        report = evaluate(np.array([0, 1, 1]), np.array([0, 0, 1]))
        flat = dict(report.to_flat())
        assert float(flat["accuracy"]) == report.accuracy
