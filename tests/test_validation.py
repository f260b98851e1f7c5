"""One type rule for every numeric field of the config dataclasses."""

import dataclasses
import typing

import numpy as np
import pytest

from spectral_rbm.classifier import OffsetFitConfig
from spectral_rbm.dataset import SplitSpec, SynthSpec
from spectral_rbm.errors import ValidationError
from spectral_rbm.preprocess import BinarizationRule
from spectral_rbm.rbm import TrainConfig

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


@pytest.mark.parametrize("cls, required, name, kind, valid", FIELDS)
def test_numpy_scalars_are_accepted(cls, required, name, kind, valid):
    value = np.int64(valid) if kind is int else np.float32(valid)
    assert getattr(cls(**{**required, name: value}), name) == value


@pytest.mark.parametrize("name", ["epochs", "hidden_units"])
def test_rbm1_uint32_fields_are_bounded(name):
    assert getattr(TrainConfig(**{name: 2**32 - 1}), name) == 2**32 - 1
    with pytest.raises(ValidationError):
        TrainConfig(**{name: 2**32})
