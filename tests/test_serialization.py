"""Model file formats: RBM1 single models and RBME1 ensembles round-trip bit-exactly."""

import struct

import numpy as np
import pytest

from spectral_rbm.classifier import (
    ClassEnsemble,
    ensemble_from_bytes,
    ensemble_to_bytes,
    load_ensemble,
    save_ensemble,
    train_ensemble,
)
from spectral_rbm.errors import FormatError, ValidationError
from spectral_rbm.rbm import (
    RbmParams,
    TrainConfig,
    rbm_from_bytes,
    rbm_to_bytes,
)


def random_params(rng, m, n):
    return RbmParams(
        weights=rng.standard_normal((m, n)),
        visible_bias=rng.standard_normal(m),
        hidden_bias=rng.standard_normal(n),
    )


class TestRbmFormat:
    def test_bytes_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 7, 5)
        config = TrainConfig(
            learning_rate=0.1, momentum=0.5, epochs=50, hidden_units=5,
            weight_decay=2e-4, seed=987654321, init_weight_scale=0.01,
        )
        loaded, loaded_config = rbm_from_bytes(rbm_to_bytes(params, config))
        assert np.array_equal(loaded.weights, params.weights)
        assert np.array_equal(loaded.visible_bias, params.visible_bias)
        assert np.array_equal(loaded.hidden_bias, params.hidden_bias)
        assert loaded_config == config

    def test_magic_leads_the_file(self):
        params = RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        assert rbm_to_bytes(params, TrainConfig(epochs=1, hidden_units=2))[:4] == b"RBM1"

    def test_rejects_bad_magic(self):
        with pytest.raises(FormatError):
            rbm_from_bytes(b"NOPE" + b"\x00" * 64)

    def test_rejects_truncation(self):
        params = RbmParams(np.ones((3, 3)), np.zeros(3), np.zeros(3))
        blob = rbm_to_bytes(params, TrainConfig(epochs=1, hidden_units=3))
        with pytest.raises(FormatError, match="truncated RBM1"):
            rbm_from_bytes(blob[:-5])

    def test_rejects_trailing_garbage(self):
        params = RbmParams(np.ones((2, 2)), np.zeros(2), np.zeros(2))
        blob = rbm_to_bytes(params, TrainConfig(epochs=1, hidden_units=2))
        with pytest.raises(FormatError, match="trailing bytes after RBM1"):
            rbm_from_bytes(blob + b"x")

    def test_rejects_width_that_disagrees_with_hidden_units(self):
        params = RbmParams(np.ones((2, 3)), np.zeros(2), np.zeros(3))
        blob = bytearray(rbm_to_bytes(params, TrainConfig(epochs=1, hidden_units=3)))
        # hidden_units follows the magic, the two dimensions, four float64s and epochs
        struct.pack_into("<I", blob, 4 + 8 + 32 + 4, 7)
        with pytest.raises(FormatError, match="RBM1"):
            rbm_from_bytes(bytes(blob))

    def test_refuses_to_write_width_that_disagrees_with_hidden_units(self):
        params = RbmParams(np.ones((2, 3)), np.zeros(2), np.zeros(3))
        with pytest.raises(ValidationError):
            rbm_to_bytes(params, TrainConfig(epochs=1, hidden_units=7))

    def test_rejects_non_config(self):
        params = RbmParams(np.ones((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError):
            rbm_to_bytes(params, {"epochs": 1})

    def test_preserves_extreme_float_values(self):
        # denormals and negative zero must survive the trip untouched
        params = RbmParams(
            np.array([[5e-324, -0.0], [1e308, -1e-308]]),
            np.array([0.1 + 0.2, -0.3]),
            np.array([np.pi, np.e]),
        )
        config = TrainConfig(epochs=1, hidden_units=2)
        loaded, _ = rbm_from_bytes(rbm_to_bytes(params, config))
        assert loaded.weights.tobytes() == params.weights.tobytes()
        assert loaded.visible_bias.tobytes() == params.visible_bias.tobytes()


class TestEnsembleFormat:
    def _ensemble(self, seed=0):
        rng = np.random.default_rng(seed)
        configs = [
            TrainConfig(epochs=3, hidden_units=4, seed=11),
            TrainConfig(epochs=3, hidden_units=4, seed=22),
        ]
        return ClassEnsemble(
            classes=[0, 5],
            models=[random_params(rng, 6, 4), random_params(rng, 6, 4)],
            offsets=np.array([0.0, -2.5]),
            train_configs=configs,
        )

    def test_bytes_round_trip_is_bit_exact(self):
        ensemble = self._ensemble()
        loaded = ensemble_from_bytes(ensemble_to_bytes(ensemble))
        assert loaded.classes == ensemble.classes
        assert np.array_equal(loaded.offsets, ensemble.offsets)
        for got, want in zip(loaded.models, ensemble.models):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.visible_bias, want.visible_bias)
            assert np.array_equal(got.hidden_bias, want.hidden_bias)
        assert loaded.train_configs == ensemble.train_configs

    def test_file_round_trip(self, tmp_path):
        ensemble = self._ensemble(seed=3)
        path = tmp_path / "ensemble.rbme"
        save_ensemble(path, ensemble)
        loaded = load_ensemble(path)
        assert loaded.classes == ensemble.classes
        assert np.array_equal(loaded.offsets, ensemble.offsets)

    def test_magic_leads_the_file(self, tmp_path):
        path = tmp_path / "ensemble.rbme"
        save_ensemble(path, self._ensemble())
        assert path.read_bytes()[:5] == b"RBME1"

    def test_rejects_bad_magic(self):
        with pytest.raises(FormatError):
            ensemble_from_bytes(b"RBMX1" + b"\x00" * 32)

    def test_rejects_truncation(self):
        blob = ensemble_to_bytes(self._ensemble())
        with pytest.raises(FormatError, match="truncated RBME1"):
            ensemble_from_bytes(blob[:-10])

    def test_rejects_trailing_garbage(self):
        blob = ensemble_to_bytes(self._ensemble())
        with pytest.raises(FormatError, match="trailing bytes after RBME1"):
            ensemble_from_bytes(blob + b"x")

    def test_mutated_blobs_raise_only_package_errors(self):
        rng = np.random.default_rng(20240501)
        data = (rng.random((12, 4)) < 0.5).astype(float)
        ensemble = train_ensemble({0: data[:6], 1: data[6:]},
                                  TrainConfig(epochs=2, hidden_units=3, seed=1))
        blob = ensemble_to_bytes(ensemble)
        rejected = 0
        for trial in range(400):
            if trial % 2 == 0:
                with pytest.raises(FormatError):
                    ensemble_from_bytes(blob[: int(rng.integers(0, len(blob)))])
                continue
            mutated = bytearray(blob)
            for pos in rng.integers(0, len(blob), size=int(rng.integers(1, 4))):
                mutated[pos] ^= int(rng.integers(1, 256))
            try:
                ensemble_from_bytes(bytes(mutated))
            except ValidationError:
                rejected += 1
        assert rejected > 0

    def test_requires_train_configs(self):
        ensemble = self._ensemble()
        ensemble.train_configs = None
        with pytest.raises(ValidationError):
            ensemble_to_bytes(ensemble)
