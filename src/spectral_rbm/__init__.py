"""Per-class binary RBMs with a free-energy soft-max readout.

The package trains one restricted Boltzmann machine per class with
single-step contrastive divergence, then classifies by comparing class
free energies through fitted soft-max offsets. Around that core it ships
the full pipeline: row normalization and threshold binarization, labeled
CSV handling, per-class (stratified) splitting, a synthetic dataset
generator, evaluation metrics, and a reproducible command-line driver.

The top level exports the pipeline, the exact small-model oracles and the three
error types. The pieces of the sampler (cd1, sigmoid, the conditionals,
SeededRng) stay in their submodules.
"""

from .classifier import (
    ClassEnsemble, OffsetFitConfig, fit_offsets, load_ensemble, predict_label_batch,
    predict_proba_batch, save_ensemble, train_ensemble,
)
from .dataset import LabeledDataset, SplitSpec, SynthSpec, load_csv, save_csv, split, synth_generate
from .errors import ConvergenceError, FormatError, ValidationError
from .metrics import EvalReport, evaluate
from .preprocess import BinarizationRule, binarize, binarize_dataset, normalize_rows
from .rbm import (
    RbmParams, TrainConfig, energy, exact_gibbs_kernel, exact_log_likelihood,
    exact_log_partition_function, free_energy_batch, train_rbm,
)

__version__ = "0.1.0"

__all__ = [
    # pipeline
    "BinarizationRule", "ClassEnsemble", "EvalReport", "LabeledDataset", "OffsetFitConfig",
    "RbmParams", "SplitSpec", "SynthSpec", "TrainConfig",
    "binarize", "binarize_dataset", "evaluate", "fit_offsets", "free_energy_batch",
    "load_csv", "load_ensemble", "normalize_rows", "predict_label_batch", "predict_proba_batch",
    "save_csv", "save_ensemble", "split", "synth_generate", "train_ensemble", "train_rbm",
    # exact small-model oracles
    "energy", "exact_gibbs_kernel", "exact_log_likelihood", "exact_log_partition_function",
    # errors
    "ConvergenceError", "FormatError", "ValidationError",
]
