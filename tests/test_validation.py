"""One type rule for every numeric config field, and one for every array argument."""

import dataclasses
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import spectral_rbm
from spectral_rbm.classifier import (
    ClassEnsemble, OffsetFitConfig, fit_offsets, predict_label_batch, predict_proba_batch,
    train_ensemble,
)
from spectral_rbm.dataset import LabeledDataset, SplitSpec, SynthSpec
from spectral_rbm.errors import ValidationError
from spectral_rbm.markov import SeededRng
from spectral_rbm.metrics import evaluate
from spectral_rbm.preprocess import (
    BinarizationRule, binarize, minmax, normalize_rows,
)
from spectral_rbm.rbm import (
    RbmParams, TrainConfig, cd1, energy, exact_log_likelihood, free_energy_batch, hidden_probs,
    train_rbm, visible_probs,
)

# config class -> values for the fields that have no default
REQUIRED = {
    TrainConfig: {},
    OffsetFitConfig: {},
    SynthSpec: {},
    SplitSpec: {},
    BinarizationRule: {"alpha": 0.5},
}


def numeric_fields():
    for cls, required in REQUIRED.items():
        types = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if types[f.name] in (int, float):
                valid = required.get(f.name, f.default)
                yield pytest.param(cls, required, f.name, types[f.name], valid,
                                   id=f"{cls.__name__}.{f.name}")


FIELDS = list(numeric_fields())


def test_every_config_class_has_numeric_fields():
    assert {param.values[0] for param in FIELDS} == set(REQUIRED)


@pytest.mark.parametrize("cls, required, name, kind, valid", FIELDS)
@pytest.mark.parametrize("bad", [True, "1", None, float("nan"), float("inf")],
                         ids=["true", "str", "none", "nan", "inf"])
def test_non_numbers_are_rejected(cls, required, name, kind, valid, bad):
    with pytest.raises(ValidationError, match=name):
        cls(**{**required, name: bad})


@pytest.mark.parametrize("cls, required, name, kind, valid",
                         [param for param in FIELDS if param.values[3] is float])
@pytest.mark.parametrize("bad", [10**400, -(10**400), 10**5000],
                         ids=["big", "big-negative", "past-str-digits"])
def test_reals_refuse_ints_past_float_range(cls, required, name, kind, valid, bad):
    # float() of such an int raises OverflowError, so training could not use it
    with pytest.raises(ValidationError, match=name):
        cls(**{**required, name: bad})


@pytest.mark.parametrize("cls, required, name, kind, valid", FIELDS)
def test_numpy_scalars_are_accepted(cls, required, name, kind, valid):
    value = np.int64(valid) if kind is int else np.float32(valid)
    assert getattr(cls(**{**required, name: value}), name) == value


@pytest.mark.parametrize("name", ["epochs", "hidden_units"])
def test_rbm1_uint32_fields_are_bounded(name):
    assert getattr(TrainConfig(**{name: 2**32 - 1}), name) == 2**32 - 1
    for bad in (2**32, 10**5000):  # the second has too many digits for repr()
        with pytest.raises(ValidationError, match=name):
            TrainConfig(**{name: bad})


PARAMS = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
ENSEMBLE = ClassEnsemble([0, 1], [PARAMS, PARAMS], [0.0, 0.0])
CONFIG = TrainConfig(epochs=1, hidden_units=2)
RULE = BinarizationRule(0.5)
ROWS = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
ROW = ROWS[0]
LABELS = np.array([0, 1])
TABLE = np.array([[1.0, 2.0], [2.0, 1.0]])

# every array argument of the public functions: a valid value, and the call with it
ARRAY_ARGUMENTS = {
    "RbmParams.weights": (np.zeros((3, 2)), lambda x: RbmParams(x, np.zeros(3), np.zeros(2))),
    "RbmParams.visible_bias": (np.zeros(3), lambda x: RbmParams(np.zeros((3, 2)), x, np.zeros(2))),
    "RbmParams.hidden_bias": (np.zeros(2), lambda x: RbmParams(np.zeros((3, 2)), np.zeros(3), x)),
    "energy.v": (ROW, lambda x: energy(x, np.zeros(2), PARAMS)),
    "energy.h": (np.zeros(2), lambda x: energy(ROW, x, PARAMS)),
    "hidden_probs": (ROWS, lambda x: hidden_probs(x, PARAMS)),
    "visible_probs": (np.zeros((2, 2)), lambda x: visible_probs(x, PARAMS)),
    "cd1": (ROW, lambda x: cd1(x, PARAMS, SeededRng(0))),
    "train_rbm": (ROWS, lambda x: train_rbm(x, CONFIG)),
    "free_energy_batch": (ROWS, lambda x: free_energy_batch(x, PARAMS)),
    "exact_log_likelihood": (ROWS, lambda x: exact_log_likelihood(x, PARAMS)),
    "ClassEnsemble.classes": (LABELS, lambda x: ClassEnsemble(x, [PARAMS, PARAMS], np.zeros(2))),
    "ClassEnsemble.offsets": (np.zeros(2), lambda x: ClassEnsemble(LABELS, [PARAMS, PARAMS], x)),
    "fit_offsets.free_energy_table": (TABLE, lambda x: fit_offsets(x, LABELS)),
    "fit_offsets.labels": (LABELS, lambda x: fit_offsets(TABLE, x)),
    "train_ensemble": (ROWS, lambda x: train_ensemble({0: x, 1: ROWS}, CONFIG)),
    "predict_proba_batch": (ROWS, lambda x: predict_proba_batch(x, ENSEMBLE)),
    "predict_label_batch": (ROWS, lambda x: predict_label_batch(x, ENSEMBLE)),
    # one row, scored as [row] (the package has no single-row scoring functions)
    "predict_proba": (ROW, lambda x: predict_proba_batch([x], ENSEMBLE)[0]),
    "predict_label": (ROW, lambda x: predict_label_batch([x], ENSEMBLE)[0]),
    "LabeledDataset.features": (ROWS, lambda x: LabeledDataset(x, LABELS)),
    "LabeledDataset.labels": (LABELS, lambda x: LabeledDataset(ROWS, x)),
    "normalize_rows": (ROWS, normalize_rows),
    "minmax": (ROWS, minmax),
    "binarize": (ROWS, lambda x: binarize(x, RULE, 0.0, 1.0)),
    # the dataset-level cut that replaced preprocess.binarize_dataset: the rows'
    # own minmax, then binarize with that pair (the id keeps the old name)
    "binarize_dataset.normalized": (ROWS, lambda x: binarize(x, RULE, *minmax(x))),
    "evaluate.predicted": (LABELS, lambda x: evaluate(x, LABELS)),
    "evaluate.truth": (LABELS, lambda x: evaluate(LABELS, x)),
}


def _first_entry(good, value):
    bad = np.array(good, dtype=float)
    bad.flat[0] = value
    return bad


# each turns a valid argument into one of the same shape (or nearly) that must be refused
BAD_ARRAYS = {
    "str": lambda good: np.asarray(good).astype(str),
    "ragged": lambda good: [np.asarray(good).tolist(), np.asarray(good).tolist()[:-1]],
    "nan": lambda good: _first_entry(good, np.nan),
    "inf": lambda good: _first_entry(good, np.inf),
    "complex": lambda good: np.asarray(good) + 1j,
    "extra-axis": lambda good: np.asarray(good)[None],
    "scalar": lambda good: np.asarray(good).flat[0],
}


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
def test_valid_arrays_are_accepted(argument):
    good, call = ARRAY_ARGUMENTS[argument]
    call(good)


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
@pytest.mark.parametrize("bad", BAD_ARRAYS)
def test_bad_arrays_are_validation_errors(argument, bad):
    good, call = ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError):
        call(BAD_ARRAYS[bad](good))


@pytest.mark.parametrize(
    "argument", [name for name, (good, _) in ARRAY_ARGUMENTS.items() if np.ndim(good) == 2]
)
def test_one_row_is_not_a_matrix(argument):
    # a matrix argument takes one row as [row]; a bare vector is refused, never read as one row
    good, call = ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match="must be a 2-d array, got shape"):
        call(np.asarray(good)[0])


@pytest.mark.parametrize(
    "argument", [name for name, (good, _) in ARRAY_ARGUMENTS.items() if good is LABELS]
)
@pytest.mark.parametrize("bad, message", [
    (LABELS.astype(float), "integer"),
    (LABELS.astype(np.uint64) + np.uint64(2**63), "int64"),
], ids=["whole-floats", "uint64-past-int64"])
def test_labels_are_never_cast(argument, bad, message):
    with pytest.raises(ValidationError, match=message):
        ARRAY_ARGUMENTS[argument][1](bad)


def test_class_ids_are_never_cast():
    with pytest.raises(ValidationError, match="integer"):
        train_ensemble({0.5: ROWS, 1.0: ROWS}, CONFIG)


def test_kept_edge_cases():
    assert free_energy_batch(np.zeros((0, 3)), PARAMS).shape == (0,)
    assert predict_proba_batch(np.zeros((0, 3)), ENSEMBLE).shape == (0, 2)
    assert predict_label_batch(np.zeros((0, 3)), ENSEMBLE).shape == (0,)
    assert LabeledDataset(np.zeros((0, 3)), []).sample_count == 0
    assert RbmParams(np.zeros((3, 0)), np.zeros(3), np.zeros(0)).num_hidden == 0
    bits = ROWS.astype(bool)
    assert train_rbm(bits, CONFIG).weights.tobytes() == train_rbm(ROWS, CONFIG).weights.tobytes()
    assert LabeledDataset(bits, LABELS).features.tobytes() == ROWS.tobytes()


def test_array_rules_live_only_in_errors():
    # a second array rule would drift from the first
    package = Path(spectral_rbm.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\.ndim\b|issubdtype", line)
    ]
    assert offenders == []


def test_cli_writes_manifests_and_resolves_options_in_one_place():
    # a second manifest writer, or a config dataclass made outside _build, would drift
    source = (Path(spectral_rbm.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert len(re.findall(r"(?<!def )\b_write_manifest\(", source)) == 1
    assert re.findall(r"\b(?:SynthSpec|SplitSpec|TrainConfig)\(", source) == []
    assert len(re.findall(r"\bcls\(", source)) == 1
    assert len(re.findall(r"^def _build\(args, cls\):$", source, re.M)) == 1
