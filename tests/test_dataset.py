"""Labeled CSV datasets: loading, saving, stratified splits, synthetic generation."""

import math

import numpy as np
import pytest

from spectral_rbm.dataset import (
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    load_csv,
    save_csv,
    split,
    synth_generate,
)
from spectral_rbm.errors import (
    CsvParseError,
    FormatError,
    MissingColumnError,
    ValidationError,
)


def tiny_dataset():
    features = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    return LabeledDataset(features, labels, ("f1", "f2"))


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.0,0\n0.25,0.125,1\n")
        ds = load_csv(path, label_column="label")
        np.testing.assert_array_equal(ds.features, [[0.5, 1.0], [0.25, 0.125]])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.feature_names == ("f1", "f2")

    def test_label_column_position_is_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\n1,0.5,1.0\n")
        ds = load_csv(path, label_column="label")
        np.testing.assert_array_equal(ds.features, [[0.5, 1.0]])
        assert ds.labels[0] == 1

    def test_bad_float_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.0,0\nnope,0.5,1\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path, label_column="label")
        assert info.value.line == 3
        assert info.value.column == "f1"

    def test_bad_label_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n0.5,zero\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path, label_column="label")
        assert info.value.line == 2
        assert info.value.column == "label"

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n0.5,1.5\n")
        with pytest.raises(CsvParseError):
            load_csv(path, label_column="label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n0.5,1.0\n")
        with pytest.raises(MissingColumnError, match="label"):
            load_csv(path, label_column="label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", label_column="label")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.0,0\n0.25,1\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path, label_column="label")
        assert info.value.line == 3

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\ninf,0\n")
        with pytest.raises(CsvParseError):
            load_csv(path, label_column="label")

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n")
        with pytest.raises(FormatError):
            load_csv(path, label_column="label")


class TestSaveCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "out.csv"
        save_csv(ds, path, label_column="label")
        back = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_binary_values_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        features = (rng.random((30, 10)) < 0.5).astype(np.float64)
        labels = rng.integers(0, 3, 30)
        ds = LabeledDataset(features, labels, tuple(f"f{i}" for i in range(1, 11)))
        path = tmp_path / "b.csv"
        save_csv(ds, path, label_column="label")
        back = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.features, features)

    def test_awkward_floats_round_trip(self, tmp_path):
        features = np.array([[0.1 + 0.2, 1e-300], [5e-324, 1.0 / 3.0]])
        ds = LabeledDataset(features, np.array([0, 1]), ("a", "b"))
        path = tmp_path / "f.csv"
        save_csv(ds, path, label_column="label")
        back = load_csv(path, label_column="label")
        assert back.features.tobytes() == features.tobytes()

    def test_integral_floats_written_without_point(self, tmp_path):
        ds = LabeledDataset(np.array([[0.0, 1.0]]), np.array([0]), ("a", "b"))
        path = tmp_path / "i.csv"
        save_csv(ds, path, label_column="label")
        assert path.read_text() == "a,b,label\n0,1,0\n"

    def test_label_name_collision_rejected(self, tmp_path):
        ds = LabeledDataset(np.array([[1.0]]), np.array([0]), ("label",))
        with pytest.raises(ValidationError):
            save_csv(ds, tmp_path / "c.csv", label_column="label")


class TestSplit:
    def test_even_halves(self):
        rng = np.random.default_rng(1)
        features = rng.random((208, 4))
        labels = np.repeat(np.array([0, 1], dtype=np.int64), 104)
        ds = LabeledDataset(features, labels, ("a", "b", "c", "d"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=0))
        assert train.sample_count == 104
        assert test.sample_count == 104

    def test_large_even_halves(self):
        rng = np.random.default_rng(2)
        counts = {0: 3410, 1: 3408}
        labels = np.repeat(np.array([0, 1], dtype=np.int64), [3410, 3408])
        features = rng.random((6818, 2))
        ds = LabeledDataset(features, labels, ("a", "b"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=7))
        assert train.sample_count == 3409
        assert test.sample_count == 3409
        for part in (train, test):
            for c in (0, 1):
                assert int((part.labels == c).sum()) == counts[c] // 2

    def test_odd_class_count_remainder_goes_to_test(self):
        rng = np.random.default_rng(12)
        labels = np.repeat(np.array([0, 1], dtype=np.int64), [9, 5])
        ds = LabeledDataset(rng.random((14, 2)), labels, ("a", "b"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=0))
        assert int((train.labels == 0).sum()) == 4
        assert int((test.labels == 0).sum()) == 5

    def test_floor_rule_per_class(self):
        rng = np.random.default_rng(3)
        labels = np.array([0] * 7 + [1] * 5 + [2] * 9, dtype=np.int64)
        features = rng.random((21, 3))
        ds = LabeledDataset(features, labels, ("a", "b", "c"))
        train, test = split(ds, SplitSpec(train_fraction=0.6, seed=1))
        for c, count in ((0, 7), (1, 5), (2, 9)):
            want = math.floor(count * 0.6)
            assert int((train.labels == c).sum()) == want
            assert int((test.labels == c).sum()) == count - want

    def test_partition_exact(self):
        rng = np.random.default_rng(4)
        features = rng.random((40, 2))
        labels = rng.integers(0, 3, 40)
        ds = LabeledDataset(features, labels, ("a", "b"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=9))
        # every original row lands in exactly one half
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == 40
        original = {tuple(row) for row in features}
        assert {tuple(row) for row in combined} == original

    def test_original_row_order_preserved_within_parts(self):
        # encode the original index in the feature so order is checkable
        features = np.arange(20, dtype=np.float64).reshape(20, 1)
        labels = np.tile(np.array([0, 1], dtype=np.int64), 10)
        ds = LabeledDataset(features, labels, ("idx",))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=3))
        assert np.all(np.diff(train.features[:, 0]) > 0)
        assert np.all(np.diff(test.features[:, 0]) > 0)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(5)
        features = rng.random((60, 2))
        labels = rng.integers(0, 2, 60)
        ds = LabeledDataset(features, labels, ("a", "b"))
        t1, _ = split(ds, SplitSpec(train_fraction=0.5, seed=11))
        t2, _ = split(ds, SplitSpec(train_fraction=0.5, seed=11))
        np.testing.assert_array_equal(t1.features, t2.features)
        t3, _ = split(ds, SplitSpec(train_fraction=0.5, seed=12))
        assert not np.array_equal(t1.features, t3.features)

    def test_single_sample_class_rejected(self):
        ds = LabeledDataset(np.ones((3, 1)), np.array([0, 0, 1]), ("a",))
        with pytest.raises(ValidationError):
            split(ds, SplitSpec(train_fraction=0.5, seed=0))

    def test_class_with_no_training_rows_rejected(self):
        # floor(4 * 0.2) = 0: class 2 would be missing from the training side
        labels = np.repeat(np.array([0, 1, 2], dtype=np.int64), [10, 10, 4])
        ds = LabeledDataset(np.ones((24, 1)), labels, ("a",))
        with pytest.raises(ValidationError, match="class 2"):
            split(ds, SplitSpec(train_fraction=0.2, seed=0))
        train, _ = split(ds, SplitSpec(train_fraction=0.25, seed=0))
        assert train.class_ids() == [0, 1, 2]

    def test_bad_fraction_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                SplitSpec(train_fraction=bad, seed=0)


class TestSynthGenerate:
    def test_zero_noise_reproduces_templates(self):
        spec = SynthSpec(classes=2, samples_per_class=5, dim=8, separation=1.0,
                         noise=0.0, seed=0)
        ds = synth_generate(spec)
        assert ds.sample_count == 10
        class0 = ds.features[ds.labels == 0]
        class1 = ds.features[ds.labels == 1]
        # every row matches its class template exactly
        for block in (class0, class1):
            assert np.all(block == block[0])
        np.testing.assert_array_equal(class0[0], [1, 1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(class1[0], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_full_separation_templates_are_complementary(self):
        for dim in (6, 10, 17):
            spec = SynthSpec(classes=2, samples_per_class=1, dim=dim,
                             separation=1.0, noise=0.0, seed=0)
            ds = synth_generate(spec)
            a = ds.features[ds.labels == 0][0]
            b = ds.features[ds.labels == 1][0]
            assert int(np.abs(a - b).sum()) == dim

    def test_partial_separation_leaves_tail_zero(self):
        spec = SynthSpec(classes=2, samples_per_class=1, dim=10, separation=0.5,
                         noise=0.0, seed=0)
        ds = synth_generate(spec)
        # only the first ceil(0.5 * 10) = 5 dims carry class structure
        assert np.all(ds.features[:, 5:] == 0.0)

    def test_noise_flip_rate_within_three_sigma(self):
        spec = SynthSpec(classes=2, samples_per_class=400, dim=50, separation=1.0,
                         noise=0.1, seed=42)
        ds = synth_generate(spec)
        clean = synth_generate(SynthSpec(classes=2, samples_per_class=1, dim=50,
                                         separation=1.0, noise=0.0, seed=0))
        total_flips = 0
        for c in (0, 1):
            template = clean.features[clean.labels == c][0]
            rows = ds.features[ds.labels == c]
            total_flips += int(np.abs(rows - template).sum())
        n_entries = ds.sample_count * 50
        rate = total_flips / n_entries
        sigma = math.sqrt(0.1 * 0.9 / n_entries)
        assert abs(rate - 0.1) <= 3.0 * sigma

    def test_deterministic_per_seed(self):
        spec = SynthSpec(classes=3, samples_per_class=20, dim=15, separation=0.8,
                         noise=0.2, seed=17)
        a = synth_generate(spec)
        b = synth_generate(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synth_generate(SynthSpec(classes=3, samples_per_class=20, dim=15,
                                     separation=0.8, noise=0.2, seed=18))
        assert not np.array_equal(a.features, c.features)

    def test_labels_class_major_and_names_sequential(self):
        spec = SynthSpec(classes=3, samples_per_class=2, dim=4, separation=1.0,
                         noise=0.0, seed=0)
        ds = synth_generate(spec)
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1, 2, 2])
        assert ds.feature_names == ("f1", "f2", "f3", "f4")

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec(classes=1, samples_per_class=5, dim=4)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=0, dim=4)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=5, dim=0)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=5, dim=4, separation=0.0)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=5, dim=4, noise=1.5)
        with pytest.raises(ValidationError):
            SynthSpec(classes=5, samples_per_class=5, dim=3, separation=1.0)


class TestLabeledDataset:
    def test_class_helpers(self):
        ds = tiny_dataset()
        np.testing.assert_array_equal(ds.class_ids(), [0, 1])
        np.testing.assert_array_equal(ds.class_matrices()[1],
                                      [[1.0, 0.0], [0.25, 0.75]])

    def test_validation(self):
        with pytest.raises(ValidationError):
            LabeledDataset(np.ones((2, 2)), np.array([0]), ("a", "b"))
        with pytest.raises(ValidationError):
            LabeledDataset(np.ones((2, 2)), np.array([0, 1]), ("a",))
        with pytest.raises(ValidationError):
            LabeledDataset(np.full((2, 2), np.nan), np.array([0, 1]), ("a", "b"))
