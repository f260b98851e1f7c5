"""Shared test helpers: random RBM parameters, per-class 0/1 datasets, synthetic raw spectra,
and a patch that puts a NaN probability into CD-1."""

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


def spectra(seed, classes, rows, dim, noise):
    """(features, labels) of rows per class of synthetic spectra, class-major.

    Each class's template is a sloped baseline plus four Gaussian peaks, placed on
    one grid interleaved by class and jittered by the seed. A row is its template
    times a scale near 1, plus an offset near 0 and Gaussian noise of standard
    deviation noise; the peaks are 0.5 to 2 high, so noise 0.2 keeps classes apart.
    """
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, dim)
    grid = np.linspace(0.05, 0.95, 4 * classes).reshape(4, classes).T  # class c: grid[c]
    centres = grid + rng.uniform(-0.2, 0.2, grid.shape) * 0.9 / (4 * classes - 1)
    widths = rng.uniform(0.01, 0.03, grid.shape)
    heights = rng.uniform(0.5, 2.0, grid.shape)
    bumps = heights[..., None] * np.exp(-0.5 * ((x - centres[..., None]) / widths[..., None]) ** 2)
    templates = 1.0 + 0.3 * x + bumps.sum(axis=1)
    scale = rng.uniform(0.8, 1.2, (classes, rows, 1))
    offset = rng.uniform(-0.1, 0.1, (classes, rows, 1))
    features = scale * templates[:, None] + offset + noise * rng.standard_normal((classes, rows, dim))
    return features.reshape(classes * rows, dim), np.repeat(np.arange(classes), rows)


def write_raw_csv_text(path, features, labels):
    """A labeled CSV of features written as repr text, independent of the package's writer."""
    lines = [",".join([f"w{i + 1}" for i in range(features.shape[1])] + ["label"])]
    lines += [",".join([*map(repr, row), str(label)])
              for row, label in zip(features.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def nan_on_all_ones_rows(conditional):
    """Patches rbm so that each chain stepping an all-ones row gets a NaN probability.

    conditional picks the _logistic call of _chain_step that gives it: 0 for p(h|v1), 1 for
    p(v|h1), 2 for p(h|v2). The NaN goes to unit 0 of each such chain, whether stepped alone
    or stacked.
    """
    chain_step, logistic = rbm._chain_step, rbm._logistic
    step = {}

    def chain(v1, *rest):
        step.update(ones=np.all(v1 == 1.0, axis=-1).reshape(-1), calls=0)
        try:
            return chain_step(v1, *rest)
        finally:
            step.clear()

    def nan_logistic(x):
        out = logistic(x)
        if step:
            if step["calls"] == conditional:
                out.reshape(-1, out.shape[-1])[step["ones"], 0] = np.nan
            step["calls"] += 1
        return out

    return mock.patch.multiple(rbm, _chain_step=chain, _logistic=nan_logistic)
