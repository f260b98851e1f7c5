"""Golden digests: trained model bytes must not move without a stated reason.

The SHA-256 digests below are of ensemble_to_bytes(train_ensemble(...)),
recorded with numpy 2.4.6 on x86-64. A change that keeps training
bit-identical leaves them alone; a change that alters the bytes must say
why and record new digests here.
"""

import hashlib

import pytest

from spectral_rbm.classifier import OffsetFitConfig, ensemble_to_bytes, train_ensemble
from spectral_rbm.dataset import SplitSpec, SynthSpec, split, synth_generate
from spectral_rbm.rbm import TrainConfig

SMALL_DIGESTS = {
    0: "63071ce14fb862330b87a13b434950f80d97c631e23027cc7ba2f7c289984136",
    1: "35a26a42a36ced5906beb65c88b385b34df53ba6f19f683a5981259c22f4f425",
    2: "c0dfbdd48237b5280f8ce41d5e3bfbc17c644dd381b498675d9231598f2989b7",
}

# criterion 06's seed-0 train split at the reference point
REFERENCE_DIGEST = "e5c58cebc63698e4ea4358347be06d3be9e3384af1ebca65051583c87b1c2188"


def digest(ensemble):
    return hashlib.sha256(ensemble_to_bytes(ensemble)).hexdigest()


@pytest.mark.parametrize("seed", sorted(SMALL_DIGESTS))
def test_small_ensemble_bytes(seed):
    ds = synth_generate(SynthSpec(classes=3, samples_per_class=30, dim=16, seed=seed))
    ensemble = train_ensemble(ds.class_matrices(), TrainConfig(hidden_units=8, epochs=5, seed=seed))
    assert digest(ensemble) == SMALL_DIGESTS[seed]


def test_reference_point_ensemble_bytes():
    ds = synth_generate(SynthSpec(classes=2, samples_per_class=200, dim=100,
                                  separation=1.0, noise=0.05, seed=0))
    train_ds, _ = split(ds, SplitSpec(train_fraction=0.5, seed=0))
    ensemble = train_ensemble(train_ds.class_matrices(), TrainConfig(seed=0), OffsetFitConfig())
    assert digest(ensemble) == REFERENCE_DIGEST
