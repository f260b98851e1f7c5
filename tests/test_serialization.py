"""Model file format: RBME1 ensembles and their per-class RBM1 blocks round-trip bit-exactly,
and a block that disagrees with the rest of the file is refused."""

import struct

import numpy as np
import pytest
from nan_faults import random_params

from spectral_rbm.classifier import (
    ClassEnsemble,
    class_seed,
    ensemble_from_bytes,
    ensemble_to_bytes,
    load_ensemble,
    save_ensemble,
    train_ensemble,
)
from spectral_rbm.dataset import SynthSpec, synth_generate
from spectral_rbm.errors import FormatError, ValidationError
from spectral_rbm.rbm import RbmParams, TrainConfig

# The layout, spelled out here so the tests do not borrow the reader's own constants:
# "RBME1" and a uint32 class count, then per class an entry of an int64 id, a float64
# offset and a uint64 block length, followed by the RBM1 block: "RBM1", uint32 m and n,
# four float64 hyperparameters, uint32 epochs and hidden_units, a uint64 seed, then the
# float64 weights, visible bias and hidden bias.
FILE_HEADER = 9
OFFSET_AT = 8
BLOCK_AT = 24
HIDDEN_UNITS_AT = BLOCK_AT + 4 + 8 + 32 + 4
SEED_AT = HIDDEN_UNITS_AT + 4
ARRAYS_AT = SEED_AT + 8


def entry_starts(ensemble):
    """Byte position of each class's entry in ensemble_to_bytes(ensemble)."""
    starts, at = [], FILE_HEADER
    for model in ensemble.models:
        starts.append(at)
        m, n = model.weights.shape
        at += ARRAYS_AT + 8 * (m * n + m + n)
    return starts


def two_class_ensemble(params, config=None, classes=(0, 5)):
    config = config or TrainConfig(epochs=1, hidden_units=params.num_hidden, seed=11)
    return ClassEnsemble(classes=list(classes), models=[params, params], offsets=np.zeros(2),
                         config=config)


class TestRbmFormat:
    """The per-class RBM1 block inside the ensemble file."""

    def test_bytes_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        config = TrainConfig(
            learning_rate=0.1, momentum=0.5, epochs=50, hidden_units=5,
            weight_decay=2e-4, seed=987654321, init_weight_scale=0.01,
        )
        ensemble = ClassEnsemble(classes=[3, 1], models=[random_params(rng, 7, 5) for _ in "ab"],
                                 offsets=np.array([0.0, 1.5]), config=config)
        loaded = ensemble_from_bytes(ensemble_to_bytes(ensemble))
        for got, want in zip(loaded.models, ensemble.models):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.visible_bias, want.visible_bias)
            assert np.array_equal(got.hidden_bias, want.hidden_bias)
        assert loaded.config == config

    def test_magic_leads_the_file(self):
        # every class's block starts with its own magic
        ensemble = two_class_ensemble(RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2)))
        blob = ensemble_to_bytes(ensemble)
        assert [blob[at + BLOCK_AT:at + BLOCK_AT + 4] for at in entry_starts(ensemble)] == [
            b"RBM1", b"RBM1"]

    def test_rejects_bad_magic(self):
        ensemble = two_class_ensemble(RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2)))
        blob = bytearray(ensemble_to_bytes(ensemble))
        at = entry_starts(ensemble)[1] + BLOCK_AT
        blob[at:at + 4] = b"NOPE"
        with pytest.raises(FormatError, match="class 5: bad magic"):
            ensemble_from_bytes(bytes(blob))

    def test_rejects_truncation(self):
        # a block length that stops short of the block's arrays
        ensemble = two_class_ensemble(RbmParams(np.ones((3, 3)), np.zeros(3), np.zeros(3)))
        blob = bytearray(ensemble_to_bytes(ensemble))
        at = entry_starts(ensemble)[0] + OFFSET_AT + 8
        struct.pack_into("<Q", blob, at, struct.unpack_from("<Q", blob, at)[0] - 8)
        with pytest.raises(FormatError, match="class 0: an RBM1 block of 172 bytes does not "
                                              "hold 3 x 3 weights for hidden_units=3"):
            ensemble_from_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated RBME1 block while reading arrays of "
                                              "class 5"):
            ensemble_from_bytes(ensemble_to_bytes(ensemble)[:-5])

    def test_rejects_trailing_garbage(self):
        # a block length that runs past the block's arrays, into bytes appended to the file
        ensemble = two_class_ensemble(RbmParams(np.ones((2, 2)), np.zeros(2), np.zeros(2)))
        blob = bytearray(ensemble_to_bytes(ensemble))
        at = entry_starts(ensemble)[1] + OFFSET_AT + 8
        struct.pack_into("<Q", blob, at, struct.unpack_from("<Q", blob, at)[0] + 1)
        with pytest.raises(FormatError, match="class 5: an RBM1 block of 125 bytes does not "
                                              "hold 2 x 2 weights"):
            ensemble_from_bytes(bytes(blob) + b"x")

    def test_rejects_width_that_disagrees_with_hidden_units(self):
        ensemble = two_class_ensemble(RbmParams(np.ones((2, 3)), np.zeros(2), np.zeros(3)))
        blob = bytearray(ensemble_to_bytes(ensemble))
        struct.pack_into("<I", blob, entry_starts(ensemble)[1] + HIDDEN_UNITS_AT, 7)
        with pytest.raises(FormatError, match="class 5: an RBM1 block of 148 bytes does not "
                                              "hold 2 x 3 weights for hidden_units=7"):
            ensemble_from_bytes(bytes(blob))

    def test_refuses_to_write_width_that_disagrees_with_hidden_units(self):
        params = RbmParams(np.ones((2, 3)), np.zeros(2), np.zeros(3))
        with pytest.raises(ValidationError, match="class 0: config.hidden_units=7 does not match "
                                                  "the 3 hidden columns"):
            two_class_ensemble(params, TrainConfig(epochs=1, hidden_units=7))

    def test_rejects_non_config(self):
        params = RbmParams(np.ones((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError, match="config must be a TrainConfig, got dict"):
            two_class_ensemble(params, {"epochs": 1})

    def test_preserves_extreme_float_values(self):
        # denormals and negative zero must survive the trip untouched
        params = RbmParams(
            np.array([[5e-324, -0.0], [1e308, -1e-308]]),
            np.array([0.1 + 0.2, -0.3]),
            np.array([np.pi, -0.0]),
        )
        ensemble = ClassEnsemble(classes=[0, 1], models=[params, params],
                                 offsets=np.array([-0.0, 5e-324]),
                                 config=TrainConfig(epochs=1, hidden_units=2))
        loaded = ensemble_from_bytes(ensemble_to_bytes(ensemble))
        assert loaded.offsets.tobytes() == ensemble.offsets.tobytes()
        for model in loaded.models:
            assert model.weights.tobytes() == params.weights.tobytes()
            assert model.visible_bias.tobytes() == params.visible_bias.tobytes()
            assert model.hidden_bias.tobytes() == params.hidden_bias.tobytes()


class TestEnsembleFormat:
    def _ensemble(self, seed=0):
        rng = np.random.default_rng(seed)
        return ClassEnsemble(
            classes=[0, 5],
            models=[random_params(rng, 6, 4), random_params(rng, 6, 4)],
            offsets=np.array([0.0, -2.5]),
            config=TrainConfig(epochs=3, hidden_units=4, seed=11),
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
        assert loaded.config == ensemble.config

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

    def test_stores_each_class_seed_and_recovers_the_base_seed(self):
        ensemble = self._ensemble()
        blob = ensemble_to_bytes(ensemble)
        stored = [struct.unpack_from("<Q", blob, at + SEED_AT)[0]
                  for at in entry_starts(ensemble)]
        assert stored == [class_seed(11, 0), class_seed(11, 5)]
        assert ensemble_from_bytes(blob).config.seed == 11

    # a field of class 5's entry: its place in the entry, its format and a value that disagrees
    DISAGREEING = {
        "class id": (0, "<q", 6),
        "learning rate": (BLOCK_AT + 12, "<d", 0.2),
        "epochs": (HIDDEN_UNITS_AT - 4, "<I", 4),
        "seed": (SEED_AT, "<Q", class_seed(12, 5)),
    }

    @pytest.mark.parametrize("field", DISAGREEING)
    def test_refuses_a_block_whose_config_is_not_the_base_config(self, field):
        ensemble = self._ensemble()
        blob = bytearray(ensemble_to_bytes(ensemble))
        at, fmt, value = self.DISAGREEING[field]
        struct.pack_into(fmt, blob, entry_starts(ensemble)[1] + at, value)
        class_id = 6 if field == "class id" else 5
        with pytest.raises(FormatError, match=f"class {class_id}: training config is not the "
                                              "first class's with this class's seed"):
            ensemble_from_bytes(bytes(blob))

    # a field of class 0's entry, which gives the base config: its place, format and a
    # value TrainConfig refuses
    REFUSED = {
        "epochs 0": (HIDDEN_UNITS_AT - 4, "<I", 0, "epochs must lie in"),
        "learning rate -1": (BLOCK_AT + 12, "<d", -1.0, "learning_rate must lie in"),
    }

    @pytest.mark.parametrize("field", REFUSED)
    def test_a_first_block_config_training_refuses_is_a_format_error(self, field):
        # not the option error TrainConfig raises: the user passed no such option
        ensemble = self._ensemble()
        blob = bytearray(ensemble_to_bytes(ensemble))
        at, fmt, value, message = self.REFUSED[field]
        struct.pack_into(fmt, blob, entry_starts(ensemble)[0] + at, value)
        with pytest.raises(FormatError, match=f"^class 0: stored training config: {message}"):
            ensemble_from_bytes(bytes(blob))

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

    def test_every_single_bit_flip_outside_the_offsets_and_arrays_is_refused(self):
        # Every flip of a small trained file, in order. Flips in the offsets and the float64
        # arrays load whenever the value stays finite: no checksum covers them yet.
        ds = synth_generate(SynthSpec(classes=2, samples_per_class=10, dim=4, seed=3))
        ensemble = train_ensemble(ds.class_matrices(),
                                  TrainConfig(epochs=2, hidden_units=3, seed=1))
        blob = ensemble_to_bytes(ensemble)
        assert len(blob) == 481
        unchecked = set()
        for at in entry_starts(ensemble):
            unchecked |= set(range(at + OFFSET_AT, at + OFFSET_AT + 8))
            unchecked |= set(range(at + ARRAYS_AT, at + ARRAYS_AT + 8 * (4 * 3 + 4 + 3)))
        accepted = []
        for pos in range(len(blob)):
            for bit in range(8):
                mutated = bytearray(blob)
                mutated[pos] ^= 1 << bit
                try:
                    ensemble_from_bytes(bytes(mutated))
                except ValidationError:
                    continue
                accepted.append(pos)
        assert set(accepted) <= unchecked
        # 2 offsets and 38 array values take 2560 flips; the 13 that make a value
        # non-finite are refused, and the rest are the gap a checksum would close
        assert len(accepted) == 2547

    def test_requires_a_config(self):
        rng = np.random.default_rng(1)
        ensemble = ClassEnsemble(classes=[0, 5], models=[random_params(rng, 6, 4)] * 2,
                                 offsets=np.zeros(2))
        with pytest.raises(ValidationError, match="ensemble has no config"):
            ensemble_to_bytes(ensemble)
