"""Command-line driver: subcommands, exit codes, manifests, determinism."""

import argparse
import dataclasses
import hashlib
import re
import shlex
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from nan_faults import (
    nan_on_all_ones_rows, one_all_ones_row_datasets, spectra, write_raw_csv_text,
)

from spectral_rbm import __version__, cli
from spectral_rbm.classifier import ClassEnsemble, load_ensemble, save_ensemble
from spectral_rbm.dataset import LabeledDataset, SplitSpec, load_csv, save_csv, split_indices
from spectral_rbm.preprocess import minmax, normalize_rows
from spectral_rbm.rbm import RbmParams, TrainConfig


def run(*argv):
    return cli.main(list(argv))


def kv(path):
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def write_raw_csv(path, rows=24, dim=6, classes=2, seed=0):
    """Small real-valued dataset with positive entries (no zero rows)."""
    rng = np.random.default_rng(seed)
    features = rng.random((rows, dim)) + 0.1
    labels = np.arange(rows, dtype=np.int64) % classes
    # give each class a crude scale difference so binarization is not noise
    features[labels == 1] *= 2.0
    ds = LabeledDataset(features, labels, tuple(f"f{i + 1}" for i in range(dim)))
    save_csv(ds, path)


def synth_small(path, per_class=12, dim=8, seed=0):
    code = run("synth", "--out", str(path), "--classes", "2",
               "--per-class", str(per_class), "--dim", str(dim),
               "--noise", "0.05", "--seed", str(seed))
    assert code == 0


TINY_TRAIN = ("--hidden", "4", "--epochs", "3", "--seed", "0")


class TestSynth:
    def test_writes_expected_shape(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = run("synth", "--out", str(out), "--classes", "2",
                   "--per-class", "200", "--dim", "100", "--noise", "0.05",
                   "--seed", "7")
        assert code == 0
        ds = load_csv(out)
        assert ds.sample_count == 400
        assert ds.dim == 100
        assert np.all((ds.features == 0.0) | (ds.features == 1.0))
        assert "400 rows" in capsys.readouterr().out

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "data.csv"
        synth_small(out)
        manifest = kv(tmp_path / "data.csv.manifest")
        assert manifest["manifest_version"] == "1"
        assert manifest["command"] == "synth"
        assert manifest["config.classes"] == "2"
        assert manifest["config.seed"] == "0"
        assert manifest["output.dataset"] == str(out)
        assert "timestamp_utc" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        synth_small(a, seed=5)
        synth_small(b, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        synth_small(a, seed=5)
        synth_small(b, seed=6)
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        code = run("synth", "--out", str(tmp_path / "x.csv"), "--classes", "1")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_defaults_give_400_rows(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("synth", "--out", str(out)) == 0
        assert load_csv(out).sample_count == 400


class TestPreprocess:
    def test_output_is_binary_with_sidecar(self, tmp_path):
        # the sidecar holds the rows' min/max alone: it is all --reuse-stats cuts test rows with
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        lo, hi = minmax(normalize_rows(load_csv(raw).features))
        out = tmp_path / "bin.csv"
        assert run("preprocess", str(raw), "--out", str(out), "--alpha", "0.4") == 0
        ds = load_csv(out)
        assert np.all((ds.features == 0.0) | (ds.features == 1.0))
        assert Path(f"{out}.sidecar").read_text() == (
            f"sidecar_version=2\nalpha=0.4\nmin={lo!r}\nmax={hi!r}\n"
        )

    def test_global_scope_sidecar_has_no_class_stats(self, tmp_path):
        # the one rule left is the old global scope: every row is cut with the pooled pair,
        # and neither the sidecar nor the manifest names a scope or a class's statistics
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        out = tmp_path / "bin.csv"
        assert run("preprocess", str(raw), "--out", str(out), "--alpha", "0.4") == 0
        normalized = normalize_rows(load_csv(raw).features)
        expected = np.where(normalized - normalized.min()
                            < 0.4 * (normalized.max() - normalized.min()), 0.0, 1.0)
        np.testing.assert_array_equal(load_csv(out).features, expected)
        assert "config.scope" not in kv(tmp_path / "bin.csv.manifest")
        sidecar = kv(tmp_path / "bin.csv.sidecar")
        assert not any(key.startswith("class.") or key == "scope" for key in sidecar)

    @pytest.mark.parametrize("command", ["synth", "preprocess", "train", "evaluate",
                                         "sweep-alpha"])
    def test_removed_flags_and_config_keys_are_gone(self, tmp_path, capsys, monkeypatch, command):
        # options come from flags only, each with one spelling, with one binarization rule, one
        # offset-fit tolerance, the sidecar at <out>.sidecar, the label column named "label" and
        # synth's class blocks over every dimension: argparse refuses --config and each removed
        # flag before any input is read or any file written
        raw, out = tmp_path / "raw.csv", tmp_path / "o.txt"
        write_raw_csv(raw)
        config = tmp_path / "run.conf"
        config.write_text("")
        called = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: called.append("load_csv"))
        scope = [("--scope", "global"), ("--scope", "per-class")]
        argv, removed = {
            "synth": (("synth",), []),
            "preprocess": (("preprocess", str(raw)),
                           [*scope, ("--sidecar", str(tmp_path / "stats.sidecar"))]),
            "train": (("train", str(raw), *TINY_TRAIN), [("--fit-tolerance", "1e-6")]),
            "evaluate": (("evaluate", str(tmp_path / "model.rbme"), str(raw)), []),
            "sweep-alpha": (("sweep-alpha", str(raw), "--alphas", "1/2", *TINY_TRAIN),
                            [*scope, ("--fit-tolerance", "1e-6")]),
        }[command]
        gone = [("--config", str(config)), ("--label-column", "label"), ("--separation", "0.5"),
                ("--lr", "0.1"), ("--hidden-units", "4")]
        for flag, value in [*removed, *gone]:
            assert run(*argv, "--out", str(out), flag, value) == 2
            assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
            assert called == []
            assert sorted(tmp_path.iterdir()) == sorted([raw, config])

    @pytest.mark.parametrize("command", ["preprocess", "sweep-alpha"])
    def test_an_all_zero_row_is_named_by_file_and_data_row(self, tmp_path, capsys, command):
        # normalize_rows's one rule: a row of zeros and a row whose squares underflow
        # both have norm 0
        raw, out = tmp_path / "raw.csv", tmp_path / "o.txt"
        for row in ("0,0,1", "1e-200,1e-200,1"):
            raw.write_text(f"f1,f2,label\n1,2,0\n{row}\n3,1,0\n2,2,1\n")
            assert run(command, str(raw), "--out", str(out)) == 2
            assert capsys.readouterr().err == (
                f"error: {raw}: data row 2 has norm 0 and cannot be normalized\n")
            assert not out.exists()

    def test_fraction_alpha_token(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        out = tmp_path / "bin.csv"
        assert run("preprocess", str(raw), "--out", str(out),
                   "--alpha", "2/5") == 0
        assert float(kv(tmp_path / "bin.csv.sidecar")["alpha"]) == 0.4

    def test_alpha_out_of_range_is_usage_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        for bad in ("1.5", "0", "x/y"):
            code = run("preprocess", str(raw), "--out", str(tmp_path / "o.csv"),
                       "--alpha", bad)
            assert code == 2
        assert "error" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("preprocess", str(raw), "--out", str(a)) == 0
        assert run("preprocess", str(raw), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        norm = lambda p, s: p.read_text().replace(s, "OUT")
        assert norm(tmp_path / "a.csv.sidecar", "a.csv") == norm(tmp_path / "b.csv.sidecar", "b.csv")

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = run("preprocess", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o.csv"))
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        (("--alpha", "bogus"), "cannot parse threshold fraction 'bogus'"),
        (("--reuse-stats", "side.sidecar", "--alpha", "1/2"),
         "--alpha does not apply: --reuse-stats reads its statistics from the given sidecar "
         "and writes none"),
    ], ids=["options0", "options1"])
    def test_options_are_checked_before_the_input_is_read(self, tmp_path, capsys, options,
                                                          message):
        # the input does not exist: reading it first would exit 3, not 2
        code = run("preprocess", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv"),
                   *options)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_reuse_stats_applies_training_minmax(self, tmp_path):
        train_raw = tmp_path / "train.csv"
        test_raw = tmp_path / "test.csv"
        write_raw_csv(train_raw, seed=1)
        write_raw_csv(test_raw, seed=2)
        train_bin = tmp_path / "train_bin.csv"
        assert run("preprocess", str(train_raw), "--out", str(train_bin),
                   "--alpha", "0.3") == 0
        test_bin = tmp_path / "test_bin.csv"
        code = run("preprocess", str(test_raw), "--out", str(test_bin),
                   "--reuse-stats", str(tmp_path / "train_bin.csv.sidecar"))
        assert code == 0
        ds = load_csv(test_bin)
        assert np.all((ds.features == 0.0) | (ds.features == 1.0))
        manifest = kv(tmp_path / "test_bin.csv.manifest")
        assert float(manifest["config.alpha"]) == 0.3
        assert "input.sidecar.sha256" in manifest

    def test_reuse_stats_rejects_incomplete_sidecar(self, tmp_path, capsys, monkeypatch):
        # a sidecar holds exactly the four keys --reuse-stats reads, checked before the CSV
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        called = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: called.append("load_csv"))
        bad, out = tmp_path / "bad.sidecar", tmp_path / "o.csv"
        # the v1 layout: scope, test_time_stats and per-class min/max lines beside the pooled pair
        v1 = ("sidecar_version=1\nalpha=0.4\nscope=per-class\ntest_time_stats=pooled-train-minmax\n"
              "min=0.1\nmax=0.9\nclass.0.min=0.1\nclass.0.max=0.8\n")
        for text, message in [
            ("sidecar_version=2\nalpha=0.5\n", "missing sidecar key 'min'"),
            (v1, "sidecar_version=1 is not supported, expected 2"),
            ("sidecar_version=2\nalpha=0.5\nmin=0.1\nmax=0.9\nscope=global\n",
             "unknown sidecar key 'scope'"),
        ]:
            bad.write_text(text)
            assert run("preprocess", str(raw), "--out", str(out), "--reuse-stats", str(bad)) == 2
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"
            assert called == [] and not out.exists()

    @pytest.mark.parametrize("key", ["alpha", "min", "max"])
    def test_reuse_stats_rejects_non_numeric_value(self, tmp_path, capsys, key):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        stats = {"sidecar_version": "2", "alpha": "0.5", "min": "0.1", "max": "0.9", key: "abc"}
        bad = tmp_path / "bad.sidecar"
        bad.write_text("".join(f"{k}={v}\n" for k, v in stats.items()))
        code = run("preprocess", str(raw), "--out", str(tmp_path / "o.csv"),
                   "--reuse-stats", str(bad))
        assert code == 2
        assert key in capsys.readouterr().err

    def test_reuse_stats_rejects_a_repeated_sidecar_key(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        bad = tmp_path / "twice.sidecar"
        bad.write_text("sidecar_version=2\nalpha=0.5\nmin=0.1\nmax=0.9\nmin=0.2\n")
        out = tmp_path / "o.csv"
        assert run("preprocess", str(raw), "--out", str(out), "--reuse-stats", str(bad)) == 2
        assert "'min' repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_reuse_stats_sidecar_may_start_with_a_byte_order_mark(self, tmp_path):
        train_raw, test_raw = tmp_path / "train.csv", tmp_path / "test.csv"
        write_raw_csv(train_raw, seed=1)
        write_raw_csv(test_raw, seed=2)
        assert run("preprocess", str(train_raw), "--out", str(tmp_path / "bin.csv")) == 0
        sidecar, bom = tmp_path / "bin.csv.sidecar", tmp_path / "bom.sidecar"
        bom.write_bytes(b"\xef\xbb\xbf" + sidecar.read_bytes())
        plain_out, bom_out = tmp_path / "plain.csv", tmp_path / "bom.csv"
        assert run("preprocess", str(test_raw), "--out", str(plain_out),
                   "--reuse-stats", str(sidecar)) == 0
        assert run("preprocess", str(test_raw), "--out", str(bom_out),
                   "--reuse-stats", str(bom)) == 0
        assert bom_out.read_bytes() == plain_out.read_bytes()

    def test_reuse_stats_rejects_a_sidecar_line_without_equals(self, tmp_path, capsys,
                                                               monkeypatch):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        called = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: called.append("load_csv"))
        bad, out = tmp_path / "bad.sidecar", tmp_path / "o.csv"
        bad.write_text("sidecar_version=2\nalpha=0.5\nmin 0.1\nmax=0.9\n")
        assert run("preprocess", str(raw), "--out", str(out), "--reuse-stats", str(bad)) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: expected key=value, got 'min 0.1'\n")
        assert called == [] and not out.exists()

    def test_reuse_stats_rejects_unknown_sidecar_version(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        bad = tmp_path / "future.sidecar"
        bad.write_text("sidecar_version=99\nalpha=0.5\nmin=0.1\nmax=0.9\n")
        code = run("preprocess", str(raw), "--out", str(tmp_path / "o.csv"),
                   "--reuse-stats", str(bad))
        assert code == 2
        assert "sidecar_version=99 is not supported, expected 2" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, lo, hi, message", [
        ("0.5", "nan", "0.9", "sidecar min must be a finite real number, got nan"),
        ("0.5", "-inf", "0.9", "sidecar min must be a finite real number, got -inf"),
        ("0.5", "2.0", "1.0", "sidecar min=2.0 exceeds max=1.0"),
        # --reuse-stats refuses the --alpha flag, so a bad alpha names the sidecar
        ("2.0", "0.1", "0.9", "sidecar alpha must lie in (0.0, 1.0), got 2.0"),
        ("0", "0.1", "0.9", "sidecar alpha must lie in (0.0, 1.0), got 0.0"),
        ("nan", "0.1", "0.9", "sidecar alpha must be a finite real number, got nan"),
    ], ids=["min nan", "min -inf", "min above max", "alpha above 1", "alpha 0", "alpha nan"])
    def test_reuse_stats_checks_min_max_before_reading_the_csv(self, tmp_path, capsys,
                                                               monkeypatch, alpha, lo, hi, message):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        called = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: called.append("load_csv"))
        bad = tmp_path / "bad.sidecar"
        bad.write_text(f"sidecar_version=2\nalpha={alpha}\nmin={lo}\nmax={hi}\n")
        out = tmp_path / "o.csv"
        assert run("preprocess", str(raw), "--out", str(out), "--reuse-stats", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert called == [] and not out.exists()


class TestTrain:
    def test_smoke_and_model_loads(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        synth_small(data)
        model = tmp_path / "model.rbme"
        code = run("train", str(data), "--out", str(model), *TINY_TRAIN)
        assert code == 0
        ensemble = load_ensemble(model)
        assert ensemble.classes == [0, 1]
        assert "trained 2 class models" in capsys.readouterr().out
        manifest = kv(tmp_path / "model.rbme.manifest")
        assert manifest["config.hidden"] == "4"
        assert manifest["config.learning_rate"] == "0.1"
        assert "input.dataset.sha256" in manifest

    def test_same_seed_bit_identical_models(self, tmp_path):
        data = tmp_path / "data.csv"
        synth_small(data)
        a, b = tmp_path / "a.rbme", tmp_path / "b.rbme"
        assert run("train", str(data), "--out", str(a), *TINY_TRAIN) == 0
        assert run("train", str(data), "--out", str(b), *TINY_TRAIN) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_binary_input_names_the_fix(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        code = run("train", str(raw), "--out", str(tmp_path / "m.rbme"),
                   *TINY_TRAIN)
        assert code == 2
        assert "preprocess" in capsys.readouterr().err

    def test_label_outside_int64_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("f1,f2,label\n0,1,0\n1,0,99999999999999999999\n")
        assert run("train", str(data), "--out", str(tmp_path / "m.rbme"), *TINY_TRAIN) == 2
        err = capsys.readouterr().err
        assert "row 3, column 'label'" in err and "does not fit in int64" in err

    def test_cell_over_the_field_limit_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("f1,label\n0." + "0" * 200_000 + "1,3\n")
        assert run("train", str(data), "--out", str(tmp_path / "m.rbme"), *TINY_TRAIN) == 2
        assert "row 2: field larger than field limit" in capsys.readouterr().err

    def test_zero_epochs_is_usage_error(self, tmp_path):
        data = tmp_path / "data.csv"
        synth_small(data)
        code = run("train", str(data), "--out", str(tmp_path / "m.rbme"),
                   "--epochs", "0")
        assert code == 2

    def test_divergent_run_is_convergence_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        synth_small(data)
        code = run("train", str(data), "--out", str(tmp_path / "m.rbme"),
                   "--hidden", "4", "--epochs", "50",
                   "--learning-rate", "1e300")
        assert code == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("options, code, message", [
        (("--learning-rate", "1e308", "--hidden", "3", "--epochs", "2"), 4,
         "error: class 0: training diverged to non-finite parameters"),
        (("--init-weight-scale", "1e308"), 2, "error: class 0: weights must have finite entries"),
    ])
    def test_training_error_names_its_class(self, tmp_path, capsys, options, code, message):
        data = tmp_path / "data.csv"
        assert run("synth", "--out", str(data), "--classes", "3", "--per-class", "10",
                   "--dim", "6") == 0
        capsys.readouterr()
        assert run("train", str(data), "--out", str(tmp_path / "m.rbme"), *options) == code
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("conditional", [0, 1, 2])
    def test_a_nan_probability_in_training_exits_4(self, tmp_path, capsys, conditional):
        # a NaN in p(h|v1), p(v|h1) or p(h|v2) on class 1's all-ones row is a divergence
        datasets = one_all_ones_row_datasets()
        features = np.vstack([datasets[c] for c in sorted(datasets)])
        labels = np.repeat(sorted(datasets), [len(datasets[c]) for c in sorted(datasets)])
        data = tmp_path / "data.csv"
        save_csv(LabeledDataset(features, labels, tuple(f"f{i + 1}" for i in range(5))), data)
        with nan_on_all_ones_rows(conditional):
            code = run("train", str(data), "--out", str(tmp_path / "m.rbme"), "--momentum", "0.9",
                       "--epochs", "2", "--hidden", "4", "--seed", "7",
                       "--init-weight-scale", "0.1")
        assert code == 4
        assert capsys.readouterr().err == "error: class 1: training diverged to non-finite parameters\n"

    def test_a_non_finite_free_energy_names_its_class(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert run("synth", "--out", str(data), "--classes", "3", "--per-class", "10",
                   "--dim", "100", "--seed", "1") == 0
        capsys.readouterr()
        assert run("train", str(data), "--out", str(tmp_path / "m.rbme"), "--hidden", "50",
                   "--epochs", "3", "--init-weight-scale", "1e306") == 4
        assert capsys.readouterr().err.strip() == (
            "error: class 1: the model gives 3 of 30 rows a non-finite free energy")

    def test_free_energies_near_the_float_limit_exit_4_without_a_warning(self, tmp_path, capsys):
        # every free energy is finite, but their column sums are past float
        # range; the offset fit runs out its steps instead of overflowing
        data = tmp_path / "data.csv"
        assert run("synth", "--out", str(data), "--classes", "3", "--per-class", "10",
                   "--dim", "6") == 0
        capsys.readouterr()
        model = tmp_path / "m.rbme"
        assert run("train", str(data), "--out", str(model), "--hidden", "50",
                   "--epochs", "3", "--init-weight-scale", "1e306") == 4
        assert capsys.readouterr().err == (
            "error: offset fit stopped after 100 steps at gradient 0.1, above tolerance 1e-08\n")
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--fit-learning-rate", "--fit-iterations"])
    def test_deleted_fit_flags_are_usage_errors(self, tmp_path, flag):
        data = tmp_path / "data.csv"
        synth_small(data)
        assert run("train", str(data), "--out", str(tmp_path / "m.rbme"), flag, "10") == 2

    def test_hidden_flag_sets_hidden_units(self, tmp_path):
        data = tmp_path / "data.csv"
        synth_small(data)
        model = tmp_path / "m.rbme"
        code = run("train", str(data), "--out", str(model),
                   "--hidden", "4", "--learning-rate", "0.2", "--epochs", "2")
        assert code == 0
        assert load_ensemble(model).config.hidden_units == 4
        manifest = kv(tmp_path / "m.rbme.manifest")
        assert (manifest["config.hidden"], manifest["config.learning_rate"]) == ("4", "0.2")


class TestEvaluate:
    def fitted_model(self, tmp_path):
        data = tmp_path / "data.csv"
        synth_small(data, per_class=20)
        model = tmp_path / "model.rbme"
        assert run("train", str(data), "--out", str(model), "--hidden", "6",
                   "--epochs", "10", "--seed", "0") == 0
        return data, model

    def test_report_on_training_data(self, tmp_path, capsys):
        data, model = self.fitted_model(tmp_path)
        code = run("evaluate", str(model), str(data))
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_report_file(self, tmp_path):
        data, model = self.fitted_model(tmp_path)
        report_path = tmp_path / "report.txt"
        assert run("evaluate", str(model), str(data),
                   "--out", str(report_path)) == 0
        report = kv(report_path)
        assert report["report_version"] == "1"
        assert report["sample_count"] == "40"
        assert 0.0 <= float(report["accuracy"]) <= 1.0
        assert "confusion.0.0" in report
        manifest = kv(tmp_path / "report.txt.manifest")
        assert "input.model.sha256" in manifest

    def test_missing_truth_column_is_usage_error(self, tmp_path, capsys):
        data, model = self.fitted_model(tmp_path)
        bad = tmp_path / "unlabeled.csv"
        bad.write_text(data.read_text().replace(",label\n", ",outcome\n", 1))
        capsys.readouterr()
        code = run("evaluate", str(model), str(bad))
        assert code == 2
        assert "label column 'label' not in header" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        data, model = self.fitted_model(tmp_path)
        narrow = tmp_path / "narrow.csv"
        synth_small(narrow, dim=5)
        code = run("evaluate", str(model), str(narrow))
        assert code == 2
        assert "features" in capsys.readouterr().err

    def test_missing_model_is_io_error(self, tmp_path):
        data = tmp_path / "data.csv"
        synth_small(data)
        assert run("evaluate", str(tmp_path / "absent.rbme"), str(data)) == 3

    def test_a_model_whose_free_energies_overflow_is_usage_error(self, tmp_path, capsys):
        # class 1's weights are finite, so the file loads, but they overflow
        # the free energy of every test row with a 1
        rng = np.random.default_rng(0)
        models = [RbmParams(rng.standard_normal((6, 3)), np.zeros(6), np.zeros(3)),
                  RbmParams(np.full((6, 3), 1e308), np.zeros(6), np.zeros(3))]
        model = tmp_path / "model.rbme"
        save_ensemble(model, ClassEnsemble(classes=[0, 1], models=models, offsets=np.zeros(2),
                                           config=TrainConfig(hidden_units=3)))
        data = tmp_path / "data.csv"
        synth_small(data, dim=6)
        capsys.readouterr()
        assert run("evaluate", str(model), str(data)) == 2
        assert re.fullmatch(r"error: class 1: the model gives \d+ of 24 rows a non-finite "
                            r"free energy\n", capsys.readouterr().err)

    def test_a_model_whose_blocks_disagree_on_the_config_is_usage_error(self, tmp_path, capsys):
        data, model = self.fitted_model(tmp_path)
        blob = bytearray(model.read_bytes())
        # class 1's epochs field: past the 9-byte file header, class 0's 84-byte entry
        # header and 8 x (8 * 6 + 8 + 6) bytes of arrays, then 68 bytes into its entry
        at = 9 + 84 + 8 * (8 * 6 + 8 + 6) + 68
        assert struct.unpack_from("<I", blob, at) == (10,)
        struct.pack_into("<I", blob, at, 11)
        model.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run("evaluate", str(model), str(data)) == 2
        assert capsys.readouterr().err == f"error: {model}: class 1: epochs=11, expected 10\n"

    @pytest.mark.parametrize("at, fmt, value, message", [
        (68, "<I", 0, "epochs must lie in"),
        (24 + 12, "<d", -1.0, "learning_rate must lie in"),
    ], ids=["epochs 0", "learning rate -1"])
    def test_a_model_whose_first_block_config_is_invalid_is_usage_error(
            self, tmp_path, capsys, at, fmt, value, message):
        # class 0's epochs or learning rate field, past the 9-byte file header
        data, model = self.fitted_model(tmp_path)
        blob = bytearray(model.read_bytes())
        struct.pack_into(fmt, blob, 9 + at, value)
        model.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run("evaluate", str(model), str(data)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {model}: class 0: stored training config: {message}")

    # each turns a trained model's bytes into a file the reader refuses
    BROKEN_MODELS = {
        "bad magic": lambda blob: b"RBMX1" + blob[5:],
        "truncated": lambda blob: blob[:-5],
        "nan weight": lambda blob: blob[:9 + 84] + struct.pack("<d", np.nan) + blob[9 + 84 + 8:],
    }

    @pytest.mark.parametrize("broken", BROKEN_MODELS)
    def test_a_model_the_reader_refuses_is_usage_error_naming_the_file(self, tmp_path, capsys,
                                                                        broken):
        data, model = self.fitted_model(tmp_path)
        model.write_bytes(self.BROKEN_MODELS[broken](model.read_bytes()))
        capsys.readouterr()
        assert run("evaluate", str(model), str(data)) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: ")

    def test_non_binary_test_data_is_usage_error(self, tmp_path):
        data, model = self.fitted_model(tmp_path)
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, dim=8)
        assert run("evaluate", str(model), str(raw)) == 2


class TestSweepAlpha:
    def test_two_alpha_table(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, rows=24, dim=6)
        code = run("sweep-alpha", str(raw), "--alphas", "1/4,1/2",
                   "--hidden", "3", "--epochs", "2",
                   "--train-fraction", "0.5")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + one row per alpha
        assert lines[0].split() == ["alpha", "accuracy", "recall[0]", "recall[1]"]
        assert lines[1].split()[0] == "1/4"
        assert lines[2].split()[0] == "1/2"

    def test_default_grid_is_nine_rows(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, rows=16, dim=5)
        code = run("sweep-alpha", str(raw), "--hidden", "2",
                   "--epochs", "1")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10

    def test_table_file_and_manifest(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, rows=24, dim=6)
        table_path = tmp_path / "table.txt"
        code = run("sweep-alpha", str(raw), "--alphas", "1/2",
                   "--hidden", "3", "--epochs", "2",
                   "--out", str(table_path))
        assert code == 0
        assert table_path.read_text().strip() == capsys.readouterr().out.strip()
        manifest = kv(tmp_path / "table.txt.manifest")
        assert manifest["command"] == "sweep-alpha"
        assert manifest["config.alphas"] == "1/2"

    def test_bad_alpha_token_is_usage_error(self, tmp_path, monkeypatch):
        # every token is checked before the CSV is read: a bad later one trains nothing
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        called = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: called.append("load_csv"))
        monkeypatch.setattr(cli, "train_ensemble", lambda *a: called.append("train_ensemble"))
        for alphas in ("1/2,banana", "1/5,1/4,bogus", "1/5,1.5"):
            assert run("sweep-alpha", str(raw), "--alphas", alphas,
                       "--hidden", "2", "--epochs", "1") == 2
        assert called == []

    def test_class_without_training_rows_is_usage_error(self, tmp_path, capsys):
        # class sizes 10/10/4 at fraction 0.2: class 2 floors to 0 training rows
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(6)
        labels = np.repeat(np.array([0, 1, 2], dtype=np.int64), [10, 10, 4])
        save_csv(LabeledDataset(rng.random((24, 5)) + 0.1, labels), raw)
        code = run("sweep-alpha", str(raw), "--train-fraction", "0.2", "--alphas", "1/2",
                   "--hidden", "2", "--epochs", "1")
        assert code == 2
        captured = capsys.readouterr()
        assert "class 2" in captured.err and captured.out == ""

    def test_each_line_is_what_the_preprocess_train_evaluate_chain_gives(self, tmp_path, capsys):
        # the sweep splits first, cuts the training rows with their own min/max and the
        # held-out rows with that pair: the chain on the split's rows, in file order, gives
        # the same report. Binarizing every row before the split did not (0.986 against 1.000)
        features, labels = spectra(3, 4, 36, 30, 0.4)
        raw = tmp_path / "raw.csv"
        write_raw_csv_text(raw, features, labels)
        training = ("--hidden", "8", "--epochs", "2", "--seed", "5")
        assert run("sweep-alpha", str(raw), "--alphas", "2/5", "--split-seed", "1", *training) == 0
        sweep_line = capsys.readouterr().out.splitlines()[1].split()
        for name, rows in zip(("train", "test"), split_indices(labels, SplitSpec(seed=1))):
            write_raw_csv_text(tmp_path / f"{name}.csv", features[rows], labels[rows])
        t = tmp_path
        for argv in [
            ("preprocess", t / "train.csv", "--out", t / "train.bin.csv", "--alpha", "2/5"),
            ("train", t / "train.bin.csv", "--out", t / "model.rbme", *training),
            ("preprocess", t / "test.csv", "--out", t / "test.bin.csv",
             "--reuse-stats", t / "train.bin.csv.sidecar"),
            ("evaluate", t / "model.rbme", t / "test.bin.csv", "--out", t / "report.txt"),
        ]:
            assert run(*map(str, argv)) == 0
        report = kv(t / "report.txt")
        assert sweep_line == ["2/5"] + [f"{float(report[key]):.6f}" for key in
                                        ("accuracy", "recall.0", "recall.1", "recall.2", "recall.3")]

    def test_deterministic_table(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, rows=24, dim=6)
        args = ("sweep-alpha", str(raw), "--alphas", "1/3", "--hidden", "3",
                "--epochs", "2", "--seed", "4", "--split-seed", "1")
        assert run(*args) == 0
        first = capsys.readouterr().out
        assert run(*args) == 0
        assert capsys.readouterr().out == first


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_defaults():
    """option key -> default, from the README's Defaults table."""
    table = readme_text().split("### Defaults", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `--([a-z-]+)`[^|]*\| (.+?) \|$", table, flags=re.MULTILINE)
    return {flag.replace("-", "_"): value for flag, value in rows}


def same_value(a, b):
    try:
        return Fraction(a) == Fraction(b)
    except ValueError:
        return a == b


def test_readme_defaults_table_matches_the_cli(tmp_path):
    """Run every subcommand with no options and compare the manifests' config lines.

    The flags whose key is no config line, --help aside, are the ones README's
    "no default" sentence names.
    """
    raw, binary = tmp_path / "raw.csv", tmp_path / "bin.csv"
    write_raw_csv(raw, rows=16, dim=5)
    model = tmp_path / "model.rbme"
    commands = [
        ("synth", "--out", str(tmp_path / "synth.csv")),
        ("preprocess", str(raw), "--out", str(binary)),
        ("train", str(binary), "--out", str(model)),
        ("evaluate", str(model), str(binary), "--out", str(tmp_path / "report.txt")),
        ("sweep-alpha", str(raw), "--out", str(tmp_path / "table.txt")),
    ]
    resolved = {}
    for argv in commands:
        assert run(*argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        for key, value in kv(Path(f"{out}.manifest")).items():
            if key.startswith("config."):
                resolved.setdefault(key[len("config."):], set()).add(value)
    documented = readme_defaults()
    assert set(documented) == set(resolved)
    for key, values in resolved.items():
        assert len(values) == 1, key
        assert same_value(documented[key], values.pop()), key

    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags_only = {
        flag for sub in subparsers.choices.values() for action in sub._actions
        if action.dest not in {*resolved, "help"} for flag in action.option_strings
    }
    sentence = re.search(r"options with no default are ([^.]*)\.", readme_text()).group(1)
    assert set(re.findall(r"`(--[a-z-]+)`", sentence)) == flags_only


TRAIN_KEYS = ("epochs", "hidden", "init_weight_scale", "learning_rate", "momentum", "seed",
              "weight_decay")


def test_manifest_layout_of_every_writing_path(tmp_path, capsys):
    """Each manifest line by line: only timestamp_utc's value and the config values go unchecked."""
    raw, test_raw = tmp_path / "raw.csv", tmp_path / "test_raw.csv"
    write_raw_csv(raw, rows=16, dim=5, seed=1)
    write_raw_csv(test_raw, rows=16, dim=5, seed=2)
    data, binary, test_binary = tmp_path / "synth.csv", tmp_path / "bin.csv", tmp_path / "test.csv"
    model, report, table = tmp_path / "model.rbme", tmp_path / "report.txt", tmp_path / "table.txt"
    sidecar = Path(f"{binary}.sidecar")
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    read = lambda name, path: [(f"input.{name}.path", str(path)), (f"input.{name}.sha256", sha(path))]
    wrote = lambda name, path: [(f"output.{name}", str(path)), (f"output.{name}.sha256", sha(path))]
    cases = [
        (("synth", "--out", str(data), "--per-class", "8", "--dim", "5"),
         ("classes", "dim", "noise", "per_class", "seed"),
         lambda: wrote("dataset", data)),
        (("preprocess", str(raw), "--out", str(binary)),
         ("alpha",),
         lambda: [*read("dataset", raw), *wrote("dataset", binary), *wrote("sidecar", sidecar)]),
        (("preprocess", str(test_raw), "--out", str(test_binary), "--reuse-stats", str(sidecar)),
         ("alpha", "max", "min"),
         lambda: [*read("dataset", test_raw), *read("sidecar", sidecar),
                  *wrote("dataset", test_binary)]),
        (("train", str(binary), "--out", str(model), *TINY_TRAIN),
         TRAIN_KEYS,
         lambda: [*read("dataset", binary), *wrote("model", model)]),
        (("evaluate", str(model), str(test_binary), "--out", str(report)),
         (),
         lambda: [*read("model", model), *read("dataset", test_binary),
                  *wrote("report", report)]),
        (("sweep-alpha", str(raw), "--alphas", "1/2", *TINY_TRAIN, "--out", str(table)),
         tuple(sorted(TRAIN_KEYS + ("alphas", "split_seed", "train_fraction"))),
         lambda: [*read("dataset", raw), *wrote("table", table)]),
    ]
    for argv, config_keys, records in cases:
        assert run(*argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        lines = [tuple(line.split("=", 1)) for line in Path(f"{out}.manifest").read_text().splitlines()]
        records = records()
        assert [key for key, _ in lines] == [
            "manifest_version", "tool", "command", "argv", "timestamp_utc",
            *(f"config.{key}" for key in config_keys), *(key for key, _ in records),
        ]
        assert lines[:4] == [("manifest_version", "1"), ("tool", f"spectral-rbm {__version__}"),
                             ("command", argv[0]), ("argv", shlex.join(argv))]
        assert lines[5 + len(config_keys):] == records

    # without --out, evaluate and sweep-alpha write nothing, manifest included
    before = set(tmp_path.iterdir())
    assert run("evaluate", str(model), str(test_binary)) == 0
    assert run("sweep-alpha", str(raw), "--alphas", "1/2", *TINY_TRAIN) == 0
    assert set(tmp_path.iterdir()) == before
    capsys.readouterr()


def test_key_value_outputs_read_back_through_the_cli_reader(tmp_path, capsys):
    """The sidecar, the manifests and evaluate's report: one writer, and _read_kv_file reads
    each back line for line, with no key repeated or stripped."""
    raw, binary = tmp_path / "raw.csv", tmp_path / "bin.csv"
    model, report = tmp_path / "model.rbme", tmp_path / "report.txt"
    write_raw_csv(raw, rows=16, dim=5)
    assert run("preprocess", str(raw), "--out", str(binary)) == 0
    assert run("train", str(binary), "--out", str(model), *TINY_TRAIN) == 0
    assert run("evaluate", str(model), str(binary), "--out", str(report)) == 0
    for path in (f"{binary}.sidecar", f"{binary}.manifest", report, f"{report}.manifest"):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert list(cli._read_kv_file(path).items()) == [tuple(line.split("=", 1)) for line in lines]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "sweep-alpha"])
def test_header_only_csv_is_usage_error_and_writes_nothing(tmp_path, capsys, command):
    header_only = tmp_path / "empty.csv"
    header_only.write_text("f1,f2,label\n")
    argv = (command, str(header_only))
    if command == "evaluate":
        data, model = tmp_path / "data.csv", tmp_path / "model.rbme"
        synth_small(data, dim=2)
        assert run("train", str(data), "--out", str(model), *TINY_TRAIN) == 0
        argv = (command, str(model), str(header_only))
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert "no data rows" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("kind", ["dataset", "sidecar"])
def test_non_utf8_file_is_usage_error_naming_it(tmp_path, capsys, kind):
    data = tmp_path / "data.csv"
    synth_small(data)
    bad, out = tmp_path / "bad.txt", tmp_path / "out"
    if kind == "dataset":
        bad.write_bytes(b"f1,label\n0.5,1\n\xe9,0\n")
        argv = ("preprocess", str(bad))
    else:
        bad.write_bytes(b"sidecar_version=2\nalpha=0.5\nmin=0\xe9\nmax=1\n")
        argv = ("preprocess", str(data), "--reuse-stats", str(bad))
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 2
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


# argv with {d} for the working directory, then the two roles the message must name
COLLISIONS = {
    # the sidecar goes to <out>.sidecar; the fixture links bin.csv.sidecar to bin.csv,
    # p.csv.sidecar to raw.csv and q.csv.sidecar to q.csv.manifest
    "sidecar-on-output": (("preprocess", "{d}/raw.csv", "--out", "{d}/bin.csv"),
                          "sidecar output", "dataset output"),
    "output-on-input": (("preprocess", "{d}/raw.csv", "--out", "{d}/raw.csv"),
                        "dataset output", "dataset input"),
    "output-on-a-hard-link-of-the-input": (("preprocess", "{d}/raw.csv", "--out", "{d}/hard.csv"),
                                           "dataset output", "dataset input"),
    "sidecar-on-input": (("preprocess", "{d}/raw.csv", "--out", "{d}/p.csv"),
                         "sidecar output", "dataset input"),
    "sidecar-on-manifest": (("preprocess", "{d}/raw.csv", "--out", "{d}/q.csv"),
                            "manifest", "sidecar output"),
    "default-sidecar-on-input": (("preprocess", "{d}/stats.sidecar", "--out", "{d}/stats"),
                                 "sidecar output", "dataset input"),
    "output-on-reused-sidecar": (("preprocess", "{d}/raw.csv", "--out", "{d}/stats.sidecar",
                                  "--reuse-stats", "{d}/stats.sidecar"),
                                 "dataset output", "sidecar input"),
    "absent-input": (("preprocess", "{d}/absent.csv", "--out", "{d}/absent.csv"),
                     "dataset output", "dataset input"),
    "model-on-dataset": (("train", "{d}/bin.csv", "--out", "{d}/./bin.csv", *TINY_TRAIN),
                         "model output", "dataset input"),
    "model-through-a-link": (("train", "{d}/bin.csv", "--out", "{d}/link.rbme", *TINY_TRAIN),
                             "model output", "dataset input"),
    "report-on-model": (("evaluate", "{d}/model.rbme", "{d}/bin.csv", "--out", "{d}/model.rbme"),
                        "report output", "model input"),
    "report-on-dataset": (("evaluate", "{d}/model.rbme", "{d}/bin.csv", "--out", "{d}/bin.csv"),
                          "report output", "dataset input"),
    "table-on-dataset": (("sweep-alpha", "{d}/raw.csv", "--alphas", "1/2", "--out", "{d}/raw.csv",
                          *TINY_TRAIN), "table output", "dataset input"),
}


@pytest.mark.parametrize("case", COLLISIONS)
def test_an_output_on_an_input_or_another_output_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                             case):
    write_raw_csv(tmp_path / "raw.csv")
    synth_small(tmp_path / "bin.csv")
    assert run("train", str(tmp_path / "bin.csv"), "--out", str(tmp_path / "model.rbme"),
               *TINY_TRAIN) == 0
    assert run("preprocess", str(tmp_path / "raw.csv"), "--out", str(tmp_path / "stats")) == 0
    (tmp_path / "q.csv.manifest").write_text("")
    for link, target in [("link.rbme", "bin.csv"), ("bin.csv.sidecar", "bin.csv"),
                         ("p.csv.sidecar", "raw.csv"), ("q.csv.sidecar", "q.csv.manifest")]:
        (tmp_path / link).symlink_to(tmp_path / target)
    (tmp_path / "hard.csv").hardlink_to(tmp_path / "raw.csv")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv, role, other = COLLISIONS[case]
    capsys.readouterr()
    assert run(*(arg.format(d=tmp_path) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: the {role} .* is the same file as the {other} .*\n", captured.err)
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_option_renaming_tables_name_live_options():
    # a stale entry in either table would otherwise be silently dead
    for cls, keys in cli._OPTION_KEYS.items():
        assert set(keys) <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
    # every option has one spelling: no flag of a subcommand but --help has an alias
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                assert len(action.option_strings) == 1, (name, action.option_strings)


class TestMainPlumbing:
    def test_no_subcommand_is_usage_error(self):
        assert run() == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0
        assert "spectral-rbm" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["line-break-in-out", "line-break-in-alphas", "not-utf8-out"])
    def test_an_argument_a_manifest_cannot_hold_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, case):
        # the manifest records every argument on a key=value line, read back as UTF-8 text
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw)
        called = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: called.append("load_csv"))
        not_utf8 = b"\xff.csv".decode("utf-8", "surrogateescape")  # as Python reads such a name
        argv, position = {
            "line-break-in-out": (("synth", "--out", str(tmp_path / "a\nb.csv")), 3),
            "line-break-in-alphas": (("sweep-alpha", str(raw), "--alphas", "1/3\r1/2",
                                      "--out", str(tmp_path / "t.txt")), 4),
            "not-utf8-out": (("synth", "--out", str(tmp_path / not_utf8)), 3),
        }[case]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: argument {position} {argv[position - 1]!r} is not one line of UTF-8 text\n")
        assert called == []
        assert list(tmp_path.iterdir()) == [raw]


class TestTracedPeak:
    """A command's traced memory peak, in multiples of its input's feature bytes.

    8 classes x 200 rows x 200 features with 8 hidden units, a shape where
    the data, not the model, sets the peak. Each bound sits between the peak
    with every matrix held once and the peak with one more matrix kept
    alive: preprocess holds each matrix only until its successor exists
    (about 2.2x; keeping the raw or the normalized features reads 3.1x);
    sweep-alpha cuts the held-out rows after training and drops the
    training rows first (2.3x; keeping the training rows reads 2.6x, and
    cutting the held-out rows before training 2.8x); train holds the
    per-class rows alone (2.4x; keeping the loaded dataset reads 3.4x);
    evaluate holds the loaded rows (1.35x; a full-size copy of them reads 2.2x).
    """

    ROWS, DIM, CLASSES = 1600, 200, 8
    FEATURE_BYTES = ROWS * DIM * 8

    def traced_peak(self, *argv):
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def raw_csv(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_raw_csv(raw, rows=self.ROWS, dim=self.DIM, classes=self.CLASSES)
        return raw

    @pytest.mark.parametrize("reuse_stats", [False, True], ids=["fit", "reuse-stats"])
    def test_preprocess_frees_each_matrix_once_its_successor_exists(self, tmp_path, reuse_stats):
        raw = self.raw_csv(tmp_path)
        argv = ("preprocess", str(raw), "--out", str(tmp_path / "bin.csv"))
        if reuse_stats:
            assert run(*argv) == 0
            argv = ("preprocess", str(raw), "--out", str(tmp_path / "test.csv"),
                    "--reuse-stats", str(tmp_path / "bin.csv.sidecar"))
        assert self.traced_peak(*argv) <= 2.6 * self.FEATURE_BYTES

    def test_sweep_alpha_holds_each_matrix_once(self, tmp_path):
        # one split for every alpha, and no alpha's matrices or ensemble outlive it
        peak = self.traced_peak("sweep-alpha", str(self.raw_csv(tmp_path)), "--alphas", "1/3,1/2",
                                "--hidden", "8", "--epochs", "1")
        assert peak <= 2.5 * self.FEATURE_BYTES

    def test_train_releases_the_loaded_dataset(self, tmp_path):
        binary = tmp_path / "bin.csv"
        assert run("preprocess", str(self.raw_csv(tmp_path)), "--out", str(binary)) == 0
        peak = self.traced_peak("train", str(binary), "--out", str(tmp_path / "m.rbme"),
                                "--hidden", "8", "--epochs", "1")
        assert peak <= 3.0 * self.FEATURE_BYTES

    def test_evaluate_holds_the_test_rows_once(self, tmp_path):
        binary, model = tmp_path / "bin.csv", tmp_path / "m.rbme"
        assert run("preprocess", str(self.raw_csv(tmp_path)), "--out", str(binary)) == 0
        assert run("train", str(binary), "--out", str(model), "--hidden", "8",
                   "--epochs", "1") == 0
        assert self.traced_peak("evaluate", str(model), str(binary)) <= 1.6 * self.FEATURE_BYTES
