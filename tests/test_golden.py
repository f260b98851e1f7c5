"""Golden digests: trained model bytes and CLI outputs must not move without a stated reason.

The SHA-256 digests below are of ensemble_to_bytes(train_ensemble(...)) and
of the files a CLI chain and a sweep write, recorded with numpy 2.4.6 on
x86-64. A change that keeps training bit-identical leaves them alone; a
change that alters the bytes must say why and record new digests here.
The bytes also move with the OpenBLAS kernel and numpy's SIMD dispatch, so
a digest that differs names the determinism domain it ran in.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from spectral_rbm import cli
from spectral_rbm.classifier import ensemble_from_bytes, ensemble_to_bytes, train_ensemble
from spectral_rbm.dataset import SplitSpec, SynthSpec, split, synth_generate
from spectral_rbm.rbm import TrainConfig

# Recorded when the offset fit became damped Newton: the old fixed-step
# ascent ran out its 1000 iterations on these three tables at gradients
# of 5e-6 to 9e-5, and the new fit reaches the 1e-8 tolerance in 5 to 7
# steps, moving the offsets by 4 to 6. The RBM blocks are unchanged.
SMALL_DIGESTS = {
    0: "bd6265f7ab539777bc71cd6286699484cb41ac0116d0718af20f751c7a1edacf",
    1: "587331541dc4bf316ff52a33990bbdc4867d3e700fa4764666b85d5f11439615",
    2: "53d4b7c1e071823186318f9f60635ae1f6e8d0c2f2305ebc028c4092784537cc",
}

# criterion 06's seed-0 train split at the reference point
REFERENCE_DIGEST = "e5c58cebc63698e4ea4358347be06d3be9e3384af1ebca65051583c87b1c2188"


def determinism_domain():
    """The numpy version, numpy's float64 exp and log1p dispatch and the OpenBLAS core type.

    Each part reads "unknown" where it cannot be had: numpy.lib.introspect is numpy 2 only,
    and the core name comes from the scipy-openblas library that numpy wheels bundle.
    """
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="exp|log1p", signature="float64")
        dispatch = ", ".join(f"{name} {next(iter(info[name].values()))['current']}"
                             for name in ("exp", "log1p"))
    except (ImportError, KeyError, StopIteration):
        dispatch = "unknown"
    try:
        [path] = (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (ValueError, OSError, AttributeError):
        core = "unknown"
    return f"determinism domain: numpy {np.__version__}; dispatch {dispatch}; OpenBLAS {core}"


def digest(ensemble):
    """SHA-256 of the ensemble's bytes, which must come back unchanged through a load."""
    blob = ensemble_to_bytes(ensemble)
    assert ensemble_to_bytes(ensemble_from_bytes(blob)) == blob, "bytes moved through a load"
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("seed", sorted(SMALL_DIGESTS))
def test_small_ensemble_bytes(seed):
    ds = synth_generate(SynthSpec(classes=3, samples_per_class=30, dim=16, seed=seed))
    ensemble = train_ensemble(ds.class_matrices(), TrainConfig(hidden_units=8, epochs=5, seed=seed))
    assert digest(ensemble) == SMALL_DIGESTS[seed], determinism_domain()


def test_reference_point_ensemble_bytes():
    ds = synth_generate(SynthSpec(classes=2, samples_per_class=200, dim=100,
                                  noise=0.05, seed=0))
    train_ds, _ = split(ds, SplitSpec(train_fraction=0.5, seed=0))
    ensemble = train_ensemble(train_ds.class_matrices(), TrainConfig(seed=0))
    assert digest(ensemble) == REFERENCE_DIGEST, determinism_domain()


# cli-spectra's training shape: 500 visible and 100 hidden units, 1 epoch;
# 300 rows per class need 180 000 uniforms, several of the lockstep loop's uniform blocks
SPECTRA_SHAPE_DIGEST = "c6933ff1f876e81bd43e211138fa639b77b1009dabe644269c4db32a12fd1c84"


def test_spectra_shape_ensemble_bytes():
    ds = synth_generate(SynthSpec(classes=3, samples_per_class=300, dim=500, noise=0.1, seed=4))
    ensemble = train_ensemble(ds.class_matrices(), TrainConfig(hidden_units=100, epochs=1, seed=4))
    assert digest(ensemble) == SPECTRA_SHAPE_DIGEST, determinism_domain()


# --- CLI text outputs ---------------------------------------------------------
#
# SHA-256 digests of the files the CLI writes, manifests aside (they carry a
# timestamp). Recorded with numpy 2.4.6 on x86-64, like the model digests.
#
# The sidecar's digest was re-recorded when the sidecar became exactly the four
# lines --reuse-stats reads (sidecar_version=2, alpha, min, max): the scope=,
# test_time_stats= and per-class min/max lines went, and the version went 1 -> 2.
# Its alpha and pooled min/max lines are unchanged, and so is every other digest.

CHAIN_DIGESTS = {
    "train.bin.csv": "e15e925b10115a4fa50407b6c02d0098845dcb010c5d5b4022acdf5895fa71ba",
    "train.bin.csv.sidecar": "d8bc203c86ce2fa4d316f13379616733b17d11a4933a92a686345c56196e67ca",
    "test.bin.csv": "953445fa558058672d1e2fdc6ad372b3c6c0b9d1eaf26d306ccb77d6b838d67a",
    "report.txt": "5b5fda36f95f157da4d0ef8f87f4ae834f370206423ed28ac30962559e18dda7",
}

# The sweep's digest was re-recorded when sweep-alpha came to split before it
# binarizes: the training rows are cut with their own min/max and the held-out
# rows with that pair, as preprocess --reuse-stats cuts them, where before every
# row was cut with its class's min/max over training and held-out rows together.
# Its accuracies at alphas 1/4, 1/2 and 3/4 went from 0.65, 0.75, 0.65 to 0.50,
# 0.70, 0.65. The chain's digests did not move: on its synth rows every class's
# min/max equals the pooled pair, so the two rules give the same bits there.
SWEEP_DIGEST = "fec69f3f3171e19482e90166370f6d1a60f48618960ae2caa4b4ac8690a232bc"


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv):
    assert cli.main([str(arg) for arg in argv]) == 0


def test_cli_chain_output_bytes(tmp_path, capsys):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    for path, seed in ((train, 1), (test, 2)):
        run_cli("synth", "--out", path, "--classes", "3", "--per-class", "20", "--dim", "12",
                "--noise", "0.3", "--seed", seed)
    run_cli("preprocess", train, "--out", tmp_path / "train.bin.csv", "--alpha", "2/5")
    run_cli("train", tmp_path / "train.bin.csv", "--out", tmp_path / "model.rbme",
            "--hidden", "6", "--epochs", "4", "--seed", "3")
    run_cli("preprocess", test, "--out", tmp_path / "test.bin.csv",
            "--reuse-stats", tmp_path / "train.bin.csv.sidecar")
    run_cli("evaluate", tmp_path / "model.rbme", tmp_path / "test.bin.csv",
            "--out", tmp_path / "report.txt")
    assert {name: file_digest(tmp_path / name) for name in CHAIN_DIGESTS} == CHAIN_DIGESTS, \
        determinism_domain()


def test_sweep_alpha_table_bytes(tmp_path, capsys):
    # real-valued spectra written as fixed decimal text, so the input does not
    # depend on the package's own CSV writer
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 16)
    labels = np.repeat([0, 1], 20)
    peaks = np.exp(-0.5 * ((x - np.array([[0.45], [0.55]])) / 0.1) ** 2)
    features = 1.0 + peaks[labels] + 0.3 * rng.standard_normal((40, 16))
    lines = [",".join([f"f{i}" for i in range(16)] + ["label"])]
    lines += [",".join([f"{value:.6f}" for value in row] + [str(label)])
              for row, label in zip(features, labels)]
    data = tmp_path / "spectra.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run_cli("sweep-alpha", data, "--alphas", "1/4,1/2,3/4", "--hidden", "4",
            "--epochs", "3", "--seed", "2", "--out", tmp_path / "sweep.txt")
    assert file_digest(tmp_path / "sweep.txt") == SWEEP_DIGEST, determinism_domain()
