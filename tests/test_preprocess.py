"""Preprocessing: row normalization, min/max statistics, threshold binarization by scope."""

import numpy as np
import pytest

from spectral_rbm.errors import ValidationError
from spectral_rbm.preprocess import (
    SCOPES,
    BinarizationRule,
    binarize,
    binarize_dataset,
    minmax,
    normalize_rows,
)


class TestL2Normalize:
    """normalize_rows: every row scaled to unit Euclidean length."""

    def test_three_four_five_triangle(self):
        np.testing.assert_array_equal(normalize_rows([[3.0, 4.0], [0.0, 2.0]]), [[0.6, 0.8], [0.0, 1.0]])

    def test_unit_vector_unchanged(self):
        np.testing.assert_allclose(normalize_rows(np.eye(3)), np.eye(3), atol=1e-15)

    def test_result_has_unit_norm(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            matrix = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 50)))) * 10.0
            norms = np.linalg.norm(normalize_rows(matrix), axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((4, 30)) + 0.1
        once = normalize_rows(matrix)
        np.testing.assert_allclose(normalize_rows(once), once, atol=1e-14)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((3, 12))
        scales = np.array([0.001, 3.0, 1e6])[:, None]
        np.testing.assert_allclose(normalize_rows(scales * matrix), normalize_rows(matrix), atol=1e-12)

    def test_direction_preserved(self):
        matrix = np.array([[2.0, -1.0, 2.0], [0.0, -4.0, 3.0]])
        out = normalize_rows(matrix)
        np.testing.assert_allclose(out * np.linalg.norm(matrix, axis=1)[:, None], matrix, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError, match="cannot normalize all-zero row 0"):
            normalize_rows(np.zeros((1, 5)))

    def test_bad_shapes_rejected(self):
        for bad in (np.zeros(3), np.zeros(0), 5.0, np.zeros((0, 3)), np.zeros((3, 0)),
                    np.zeros((2, 2, 2))):
            with pytest.raises(ValidationError):
                normalize_rows(bad)


class TestNormalizeRows:
    def test_matches_per_row_calls(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((6, 8)) + 0.05
        got = normalize_rows(matrix)
        for i, row in enumerate(matrix):
            np.testing.assert_allclose(got[i], row / np.sqrt(row @ row), atol=1e-15)

    def test_names_the_zero_row(self):
        matrix = np.ones((4, 3))
        matrix[2] = 0.0
        with pytest.raises(ValidationError, match="row 2"):
            normalize_rows(matrix)


class TestMinmax:
    def test_small_example(self):
        assert minmax(np.array([[1.0, 2.0], [3.0, 4.0]])) == (1.0, 4.0)

    def test_constant_matrix(self):
        assert minmax(np.full((2, 2), 5.0)) == (5.0, 5.0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((7, 9))
        lo, hi = minmax(matrix)
        scan_lo, scan_hi = matrix[0, 0], matrix[0, 0]
        for value in matrix.ravel():
            scan_lo = min(scan_lo, value)
            scan_hi = max(scan_hi, value)
        assert (lo, hi) == (scan_lo, scan_hi)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            minmax(np.zeros((0, 3)))


class TestBinarize:
    def test_threshold_is_strict(self):
        rule = BinarizationRule(alpha=0.5)
        got = binarize(np.array([[0.0, 0.4, 0.5, 0.6, 1.0]]), rule, 0.0, 1.0)
        # 0.5 - 0 is not < 0.5, so the boundary entry maps to 1
        np.testing.assert_array_equal(got, [[0.0, 0.0, 1.0, 1.0, 1.0]])

    def test_minimum_maps_to_zero_and_maximum_to_one(self):
        rng = np.random.default_rng(5)
        matrix = rng.random((5, 5))
        lo, hi = minmax(matrix)
        for alpha in (0.01, 0.5, 0.99):
            got = binarize(matrix, BinarizationRule(alpha), lo, hi)
            assert got.ravel()[matrix.argmin()] == 0.0
            assert got.ravel()[matrix.argmax()] == 1.0

    def test_exact_quarter_threshold(self):
        # threshold representable exactly: entries at it land on the 1 side
        rule = BinarizationRule(alpha=0.25)
        got = binarize(np.array([[0.0, 0.249999, 0.25, 1.0]]), rule, 0.0, 1.0)
        np.testing.assert_array_equal(got, [[0.0, 0.0, 1.0, 1.0]])

    def test_constant_matrix_becomes_all_ones(self):
        got = binarize(np.full((3, 3), 2.5), BinarizationRule(0.5), 2.5, 2.5)
        np.testing.assert_array_equal(got, np.ones((3, 3)))

    def test_output_is_strictly_binary(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((20, 20))
        lo, hi = minmax(matrix)
        got = binarize(matrix, BinarizationRule(1.0 / 3.0), lo, hi)
        assert np.all((got == 0.0) | (got == 1.0))

    def test_values_outside_stats_range_clip_to_sides(self):
        # stored statistics narrower than the data: below-lo goes 0, above-hi goes 1
        rule = BinarizationRule(0.5)
        got = binarize(np.array([[-1.0, 2.0]]), rule, 0.0, 1.0)
        np.testing.assert_array_equal(got, [[0.0, 1.0]])

    def test_rejects_inverted_stats(self):
        with pytest.raises(ValidationError):
            binarize(np.ones((2, 2)), BinarizationRule(0.5), 1.0, 0.0)

    def test_ones_count_non_increasing_in_alpha(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((50, 50))
        lo, hi = minmax(matrix)
        grid = [1 / 5, 1 / 4, 1 / 3, 2 / 5, 1 / 2, 3 / 5, 2 / 3, 3 / 4, 4 / 5]
        previous = None
        for alpha in grid:
            ones = binarize(matrix, BinarizationRule(alpha), lo, hi).sum()
            if previous is not None:
                assert ones <= previous
            previous = ones

    def test_one_sets_nest_as_alpha_grows(self):
        rng = np.random.default_rng(8)
        matrix = rng.random((30, 30))
        lo, hi = minmax(matrix)
        low = binarize(matrix, BinarizationRule(0.3), lo, hi)
        high = binarize(matrix, BinarizationRule(0.7), lo, hi)
        assert np.all(low[high == 1.0] == 1.0)  # 1s at high alpha survive at low alpha


class TestBinarizationRule:
    def test_rejects_alpha_outside_open_interval(self):
        for bad in (0.0, 1.0, -0.5, 2.0, float("nan")):
            with pytest.raises(ValidationError):
                BinarizationRule(alpha=bad)

    def test_scope_values(self):
        assert SCOPES == ("per-class", "global")
        assert BinarizationRule(0.5, "global").scope == "global"
        assert BinarizationRule(0.5).scope == "per-class"
        for bad in ("per-matrix", "Global", None, 1, ("global",)):
            with pytest.raises(ValidationError, match="scope must be one of"):
                BinarizationRule(0.5, scope=bad)


class TestPreprocessPipeline:
    """normalize_rows then binarize_dataset, the library's preprocessing pipeline."""

    def test_two_entry_row(self):
        # [3, 4] normalizes to [0.6, 0.8]; threshold 0.7 cuts between them
        got, pooled = binarize_dataset(normalize_rows([[3.0, 4.0]]), [0], BinarizationRule(0.5))
        np.testing.assert_array_equal(got, [[0.0, 1.0]])
        assert pooled == (0.6, 0.8)

    def test_alpha_near_one_keeps_the_maximum(self):
        rng = np.random.default_rng(9)
        labels = np.array([0, 1, 0, 1, 0, 1])
        for trial in range(10):
            matrix = rng.random((6, 7)) + 0.01
            for scope in SCOPES:
                got, _ = binarize_dataset(normalize_rows(matrix), labels, BinarizationRule(0.99, scope))
                assert got.sum() >= 1.0
            # per class, each class block keeps its own maximum
            got, _ = binarize_dataset(normalize_rows(matrix), labels, BinarizationRule(0.99))
            assert got[labels == 0].sum() >= 1.0 and got[labels == 1].sum() >= 1.0

    def test_propagates_zero_row_error(self):
        matrix = np.ones((3, 4))
        matrix[1] = 0.0
        with pytest.raises(ValidationError, match="all-zero row 1"):
            binarize_dataset(normalize_rows(matrix), [0, 1, 0], BinarizationRule(0.5))

    def test_output_binary(self):
        rng = np.random.default_rng(10)
        matrix = rng.random((12, 9)) + 0.01
        labels = np.arange(12) % 3
        for scope in SCOPES:
            got, _ = binarize_dataset(normalize_rows(matrix), labels, BinarizationRule(2.0 / 5.0, scope))
            assert np.all((got == 0.0) | (got == 1.0))


class TestBinarizeDataset:
    def test_per_matrix_cuts_each_class_against_its_own_statistics(self):
        rng = np.random.default_rng(11)
        matrix = rng.random((10, 4))
        matrix[1::2] *= 3.0
        labels = np.arange(10) % 2
        rule = BinarizationRule(0.4)
        got, pooled = binarize_dataset(matrix, labels, rule)
        for c in (0, 1):
            lo, hi = minmax(matrix[labels == c])
            np.testing.assert_array_equal(got[labels == c], binarize(matrix[labels == c], rule, lo, hi))
        # the pooled pair, not a class's, is what test rows are cut with
        assert pooled == minmax(matrix) != minmax(matrix[labels == 0])

    def test_global_cuts_every_row_against_the_pooled_statistics(self):
        rng = np.random.default_rng(12)
        matrix = rng.random((9, 5))
        labels = np.arange(9) % 3
        rule = BinarizationRule(0.6, "global")
        lo, hi = minmax(matrix)
        got, pooled = binarize_dataset(matrix, labels, rule)
        np.testing.assert_array_equal(got, binarize(matrix, rule, lo, hi))
        assert pooled == (lo, hi)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            binarize_dataset(np.ones((3, 2)), [0, 1], BinarizationRule(0.5))
