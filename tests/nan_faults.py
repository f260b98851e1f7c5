"""Shared test helpers: random RBM parameters, per-class 0/1 datasets, and a patch that puts a
NaN probability into CD-1."""

from unittest import mock

import numpy as np

from spectral_rbm import rbm


def random_params(rng, m, n, scale=1.0):
    """An m x n RbmParams whose every entry is a standard normal draw times scale."""
    return rbm.RbmParams(
        weights=rng.standard_normal((m, n)) * scale,
        visible_bias=rng.standard_normal(m) * scale,
        hidden_bias=rng.standard_normal(n) * scale,
    )


def class_rows(seed, sizes, m):
    """{class id: rows} of random 0/1 rows of width m, for (id, row count) in sizes."""
    rng = np.random.default_rng(seed)
    return {c: (rng.random((r, m)) < 0.5).astype(float) for c, r in sizes}


def one_all_ones_row_datasets():
    """Classes 0, 1 and 2 of 6, 3 and 4 rows, 5 wide; only class 1's 2nd row is all ones."""
    datasets = class_rows(10, ((0, 6), (1, 3), (2, 4)), 5)
    datasets[0][:, 0] = datasets[2][:, 0] = 0.0
    datasets[1][1] = 1.0
    return datasets


def nan_on_all_ones_rows(conditional):
    """Patches rbm so that each chain stepping an all-ones row gets a NaN probability.

    conditional picks the sigmoid call of _chain_step that gives it: 0 for p(h|v1), 1 for
    p(v|h1), 2 for p(h|v2). The NaN goes to unit 0 of each such chain, whether stepped alone
    or stacked.
    """
    chain_step, sigmoid = rbm._chain_step, rbm.sigmoid
    step = {}

    def chain(v1, *rest):
        step.update(ones=np.all(v1 == 1.0, axis=-1).reshape(-1), calls=0)
        try:
            return chain_step(v1, *rest)
        finally:
            step.clear()

    def nan_sigmoid(x):
        out = sigmoid(x)
        if step:
            if step["calls"] == conditional:
                out.reshape(-1, out.shape[-1])[step["ones"], 0] = np.nan
            step["calls"] += 1
        return out

    return mock.patch.multiple(rbm, _chain_step=chain, sigmoid=nan_sigmoid)
