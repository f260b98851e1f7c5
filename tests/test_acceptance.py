"""Acceptance suite: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
[PASS]/[FAIL] lines; each check also asserts, so plain pytest fails loudly.
"""

import contextlib
import io
import itertools
import time

import numpy as np
from nan_faults import random_params, spectra, write_raw_csv_text

from spectral_rbm.classifier import (
    ClassEnsemble,
    fit_offsets,
    predict_label_batch,
    predict_proba_batch,
    train_ensemble,
)
from spectral_rbm.dataset import SplitSpec, SynthSpec, load_csv, split, synth_generate
from spectral_rbm.markov import SeededRng
from spectral_rbm.metrics import evaluate
from spectral_rbm.preprocess import BinarizationRule, binarize, minmax
from spectral_rbm.rbm import (
    RbmParams,
    TrainConfig,
    energy,
    exact_gibbs_kernel,
    exact_log_likelihood,
    exact_log_partition_function,
    free_energy_batch,
    hidden_probs,
    train_rbm,
    visible_probs,
)
from spectral_rbm import cli, rbm


def _criterion(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {num}: {name} ({detail})")
    assert passed, f"criterion {num} failed: {name} ({detail})"


def _all_bits(k):
    return np.array(list(itertools.product((0.0, 1.0), repeat=k)))


def _logsumexp_rows(a):
    peak = a.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(a - peak).sum(axis=1))


def _pair_neg_energies(params, vis, hid):
    """-E(v, h) for every (row of vis) x (row of hid)."""
    return (
        vis @ params.weights @ hid.T
        + (vis @ params.visible_bias)[:, None]
        + (hid @ params.hidden_bias)[None, :]
    )


def _stationary(kernel):
    """The pi with pi K = pi and sum(pi) = 1: least squares on [K^T - I; 1^T] pi = [0; 1]."""
    n = kernel.shape[0]
    system = np.vstack([kernel.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


class TestAcceptance:
    def test_criterion_01_free_energy_identity(self):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            params = random_params(rng, m, n)
            vis = _all_bits(m)
            hid = _all_bits(n)
            neg_e = _pair_neg_energies(params, vis, hid)
            # the pair table really is the energy function, spot-checked
            for _ in range(5):
                i = int(rng.integers(vis.shape[0]))
                j = int(rng.integers(hid.shape[0]))
                assert abs(neg_e[i, j] + energy(vis[i], hid[j], params)) <= 1e-12
            log_marginal = _logsumexp_rows(neg_e)
            gap = np.abs(free_energy_batch(vis, params) + log_marginal).max()
            worst = max(worst, float(gap))
        elapsed = time.perf_counter() - started
        _criterion(
            1, "free energy equals -log sum_h exp(-energy)",
            worst <= 1e-9 and elapsed < 5.0,
            f"max |F + log sum| = {worst:.2e} over 100 models, {elapsed:.2f}s",
        )

    def test_criterion_02_partition_function_cross_check(self):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(1, 14))
            n = int(rng.integers(1, 15 - m))
            params = random_params(rng, m, n)
            lhs = exact_log_partition_function(params)
            vis = _all_bits(m)
            rhs = _logsumexp_rows(-free_energy_batch(vis, params)[None, :])[0]
            worst = max(worst, abs(lhs - rhs))
        elapsed = time.perf_counter() - started
        _criterion(
            2, "log partition function matches free-energy marginalization",
            worst <= 1e-9 and elapsed < 10.0,
            f"max log gap = {worst:.2e} over 50 models, {elapsed:.2f}s",
        )

    def test_criterion_03_conditionals_match_joint_enumeration(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            params = random_params(rng, m, n)
            vis = _all_bits(m)
            hid = _all_bits(n)
            # weights[a, b] = exp(-E(vis[a], hid[b])); every state in one call
            weights = np.exp(_pair_neg_energies(params, vis, hid))
            hidden_exact = (weights @ hid) / weights.sum(axis=1)[:, None]
            visible_exact = (weights.T @ vis) / weights.sum(axis=0)[:, None]
            worst = max(
                worst,
                float(np.abs(hidden_probs(vis, params) - hidden_exact).max()),
                float(np.abs(visible_probs(hid, params) - visible_exact).max()),
            )
        _criterion(
            3, "factored conditionals match joint enumeration",
            worst <= 1e-10,
            f"max deviation = {worst:.2e} over 50 models, every state of each",
        )

    def test_criterion_04_sampler_statistics(self):
        # the chain training runs, fed uniforms in training's order (n hidden,
        # then m visible, per step), against the exact block-Gibbs kernel row
        started = time.perf_counter()
        draws, m, n = 10_000, 3, 3
        rng = np.random.default_rng(404)
        uniforms = SeededRng(404).uniforms(2 * draws * (n + m)).reshape(2, draws, n + m)
        place = 2 ** np.arange(m - 1, -1, -1)  # state -> row of the kernel
        worst_z = worst_probs = 0.0
        for u in uniforms:
            params = random_params(rng, m, n, scale=2.0)
            v1 = (rng.random(m) < 0.5).astype(float)
            steps = [
                rbm._chain_step(v1, params.weights, params.visible_bias, params.hidden_bias,
                                u_step[:n], u_step[n:])
                for u_step in u
            ]
            p1, v2, p2 = (np.array(column) for column in zip(*steps))
            worst_probs = max(worst_probs,
                              float(np.abs(p1 - hidden_probs(v1[None], params)).max()),
                              float(np.abs(p2 - hidden_probs(v2, params)).max()))
            expected = exact_gibbs_kernel(params)[int(v1 @ place)]
            freq = np.bincount((v2 @ place).astype(int), minlength=2**m) / draws
            sigma = np.sqrt(expected * (1.0 - expected) / draws)
            worst_z = max(worst_z, float(np.abs((freq - expected) / sigma).max()))
        elapsed = time.perf_counter() - started
        _criterion(
            4, "training-chain statistics against the exact block-Gibbs kernel",
            worst_z <= 3.0 and worst_probs <= 1e-12 and elapsed < 5.0,
            f"worst z {worst_z:.2f} over 2 x 8 reconstruction states, "
            f"max |p - hidden_probs| {worst_probs:.1e}, {elapsed:.2f}s",
        )

    def test_criterion_05_training_improves_exact_likelihood(self):
        started = time.perf_counter()
        patterns = np.array([[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]], dtype=float)
        data = np.repeat(patterns, 10, axis=0)
        wins = 0
        for seed in range(20):
            config = TrainConfig(hidden_units=4, seed=seed, init_weight_scale=0.01)
            twin = SeededRng(seed)  # same draw order as train_rbm's init
            init = RbmParams(
                weights=twin.normals((6, 4)) * config.init_weight_scale,
                visible_bias=np.zeros(6),
                hidden_bias=np.zeros(4),
            )
            before = exact_log_likelihood(data, init)
            after = exact_log_likelihood(data, train_rbm(data, config))
            wins += after > before
        elapsed = time.perf_counter() - started
        _criterion(
            5, "exact log-likelihood increases from initialization",
            wins >= 18 and elapsed < 30.0,
            f"{wins}/20 seeds improved, {elapsed:.2f}s",
        )

    def test_criterion_06_end_to_end_synthetic_classification(self):
        started = time.perf_counter()
        good = 0
        details = []
        for seed in range(10):
            ds = synth_generate(SynthSpec(classes=2, samples_per_class=200, dim=100,
                                          separation=1.0, noise=0.05, seed=seed))
            train_ds, test_ds = split(ds, SplitSpec(train_fraction=0.5, seed=seed))
            ensemble = train_ensemble(train_ds.class_matrices(), TrainConfig(seed=seed))
            report = evaluate(predict_label_batch(test_ds.features, ensemble),
                              test_ds.labels)
            ok = report.accuracy >= 0.99 and bool(
                np.all(report.per_class_recall >= 0.95)
            )
            good += ok
            details.append(f"{report.accuracy:.3f}")
        elapsed = time.perf_counter() - started
        _criterion(
            6, "held-out synthetic classification at default settings",
            good >= 9 and elapsed < 60.0,
            f"{good}/10 seeds at accuracy [{', '.join(details)}], {elapsed:.1f}s",
        )

    def test_criterion_07_binarization_monotone_in_alpha(self):
        rng = np.random.default_rng(707)
        matrix = rng.random((50, 50))
        lo, hi = minmax(matrix)
        grid = [1 / 5, 1 / 4, 1 / 3, 2 / 5, 1 / 2, 3 / 5, 2 / 3, 3 / 4, 4 / 5]
        counts = []
        all_binary = True
        for alpha in grid:
            out = binarize(matrix, BinarizationRule(alpha), lo, hi)
            all_binary = all_binary and bool(np.all((out == 0.0) | (out == 1.0)))
            counts.append(int(out.sum()))
        monotone = all(a >= b for a, b in zip(counts, counts[1:]))
        _criterion(
            7, "count of 1-entries non-increasing across the threshold grid",
            monotone and all_binary,
            f"counts {counts}",
        )

    def test_criterion_08_softmax_readout_properties(self):
        rng = np.random.default_rng(808)
        m = 12
        models = [random_params(rng, m, 6) for _ in range(3)]
        inputs = (rng.random((1000, m)) < 0.5).astype(float)

        base = ClassEnsemble(classes=[0, 1, 2], models=models,
                             offsets=np.zeros(3))
        sums = predict_proba_batch(inputs, base).sum(axis=1)
        sums_ok = bool(np.all(np.abs(sums - 1.0) <= 1e-12))

        offsets = np.array([-1000.0, 0.0, 1000.0])
        loud = ClassEnsemble(classes=[0, 1, 2], models=models, offsets=offsets)
        shifted = ClassEnsemble(classes=[0, 1, 2], models=models,
                                offsets=offsets + 1000.0)
        with np.errstate(over="raise", invalid="raise"):
            proba = predict_proba_batch(inputs, loud)
            labels_ok = bool(np.array_equal(predict_label_batch(inputs, loud),
                                            predict_label_batch(inputs, shifted)))
        finite_ok = bool(np.all(np.isfinite(proba)))
        _criterion(
            8, "probabilities normalized, shift-invariant, overflow-free",
            sums_ok and labels_ok and finite_ok,
            f"max |sum - 1| = {np.abs(sums - 1.0).max():.2e}, "
            f"offsets up to 1000 in magnitude",
        )

    def test_criterion_09_markov_equilibrium(self):
        # block-Gibbs kernel stationarity: the chain CD-1 samples from must
        # leave the enumerated model marginal exp(-F(v)) / Z invariant. An
        # entrywise positive row-stochastic K has exactly one stationary
        # distribution (Perron-Frobenius), the pi that _stationary solves for
        rng = np.random.default_rng(909)
        smallest_entry, worst_row_sum, worst_kernel = 1.0, 0.0, 0.0
        for _ in range(20):
            m, n = (int(k) for k in rng.integers(1, 6, 2))
            params = random_params(rng, m, n)
            kernel = exact_gibbs_kernel(params)
            smallest_entry = min(smallest_entry, float(kernel.min()))
            worst_row_sum = max(worst_row_sum, float(np.abs(kernel.sum(axis=1) - 1.0).max()))
            exact = np.exp(-free_energy_batch(_all_bits(m), params)
                           - exact_log_partition_function(params))
            worst_kernel = max(worst_kernel, float(np.abs(_stationary(kernel) - exact).max()))

        worst_closed_form = 0.0
        for _ in range(20):
            a, b = rng.uniform(0.05, 0.95, 2)
            v = _stationary(np.array([[1 - a, a], [b, 1 - b]]))
            exact = np.array([b, a]) / (a + b)
            worst_closed_form = max(worst_closed_form, float(np.abs(v - exact).max()))
        _criterion(
            9, "block-Gibbs kernel stationarity and exact 2-state equilibria",
            smallest_entry > 0.0 and worst_row_sum <= 1e-12
            and worst_kernel <= 1e-10 and worst_closed_form <= 1e-10,
            f"min kernel entry {smallest_entry:.2e}, max row-sum gap {worst_row_sum:.2e}, "
            f"max Gibbs-kernel gap {worst_kernel:.2e}, "
            f"max closed-form gap {worst_closed_form:.2e}",
        )

    def test_criterion_10_determinism(self, tmp_path):
        data = np.repeat(np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]), 6, axis=0)
        config = TrainConfig(hidden_units=3, epochs=5, seed=42)
        p1 = train_rbm(data, config)
        p2 = train_rbm(data, config)
        train_same = (
            np.array_equal(p1.weights, p2.weights)
            and np.array_equal(p1.visible_bias, p2.visible_bias)
            and np.array_equal(p1.hidden_bias, p2.hidden_bias)
        )

        ds = synth_generate(SynthSpec(classes=2, samples_per_class=30, dim=10, seed=3))
        a_train, a_test = split(ds, SplitSpec(train_fraction=0.5, seed=5))
        b_train, b_test = split(ds, SplitSpec(train_fraction=0.5, seed=5))
        split_same = np.array_equal(a_train.features, b_train.features) and np.array_equal(
            a_test.features, b_test.features
        )

        s1 = synth_generate(SynthSpec(classes=2, samples_per_class=25, dim=9, seed=11))
        s2 = synth_generate(SynthSpec(classes=2, samples_per_class=25, dim=9, seed=11))
        synth_same = np.array_equal(s1.features, s2.features)

        # full pipeline twice; every data artifact byte-identical
        # (manifests carry timestamps and are deliberately excluded)
        outputs = []
        for name in ("runa", "runb"):
            base = tmp_path / name
            base.mkdir()
            raw = base / "raw.csv"
            bins = base / "bin.csv"
            model = base / "model.rbme"
            report = base / "report.txt"
            assert cli.main(["synth", "--out", str(raw), "--per-class", "20",
                             "--dim", "12", "--seed", "2"]) == 0
            assert cli.main(["preprocess", str(raw), "--out", str(bins),
                             "--alpha", "2/5"]) == 0
            assert cli.main(["train", str(bins), "--out", str(model),
                             "--hidden-units", "4", "--epochs", "4",
                             "--seed", "2"]) == 0
            assert cli.main(["evaluate", str(model), str(bins),
                             "--out", str(report)]) == 0
            outputs.append([
                raw.read_bytes(),
                bins.read_bytes(),
                (base / "bin.csv.sidecar").read_bytes(),
                model.read_bytes(),
                report.read_bytes(),
            ])
        cli_same = outputs[0] == outputs[1]
        _criterion(
            10, "seeded runs reproduce bytes end to end",
            train_same and split_same and synth_same and cli_same,
            f"train {train_same}, split {split_same}, synth {synth_same}, cli {cli_same}",
        )

    def test_criterion_11_offsets_recover_exact_log_partition_functions(self):
        # rows drawn exactly from k enumerable RBMs make the readout well specified, so the
        # fitted offsets estimate o_c - o_0 = -(log Z_c - log Z_0) + log(n_c / n_0), with an
        # error shrinking like 1/sqrt(N). Over seeds 0-39 at N = 20 000 the worst gap
        # reached 0.090 (median 0.023), against log 2 for leaving out the prior term
        started = time.perf_counter()
        m, n, size = 12, 6, 20_000
        states = _all_bits(m)
        worst = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            models = [random_params(rng, m, n) for _ in range(3)]
            counts = np.array([size, 2 * size, size // 2])
            log_z = np.array([exact_log_partition_function(p) for p in models])
            draws = SeededRng(seed)
            rows = []
            for params, lz, count in zip(models, log_z, counts):
                # inverse CDF over the enumerated marginal exp(-F(v)) / Z
                cdf = np.cumsum(np.exp(-free_energy_batch(states, params) - lz))
                at = np.searchsorted(cdf, draws.uniforms(count) * cdf[-1], side="right")
                rows.append(states[np.minimum(at, len(states) - 1)])
            rows = np.vstack(rows)
            table = np.column_stack([free_energy_batch(rows, p) for p in models])
            offsets = fit_offsets(table, np.repeat(np.arange(3), counts))
            expected = -(log_z - log_z[0]) + np.log(counts / counts[0])
            worst.append(float(np.abs(offsets - offsets[0] - expected).max()))
        # detail, with no bound: on trained models (the three small golden ensembles, 30 rows
        # per class) the offsets also absorb each model's misfit, so the gap is nats wide
        misfit, visible_states = [], _all_bits(16)
        for seed in range(3):
            ds = synth_generate(SynthSpec(classes=3, samples_per_class=30, dim=16, seed=seed))
            ensemble = train_ensemble(ds.class_matrices(),
                                      TrainConfig(hidden_units=8, epochs=5, seed=seed))
            # log Z with the hidden units summed out, as -F does: 2**16 rows, not 2**24 pairs
            log_z = _logsumexp_rows(np.stack([-free_energy_batch(visible_states, p)
                                              for p in ensemble.models]))
            gap = ensemble.offsets - ensemble.offsets[0] + (log_z - log_z[0])  # equal priors
            misfit.append(float(np.abs(gap).max()))
        elapsed = time.perf_counter() - started
        _criterion(
            11, "offsets of exactly sampled classes match -delta log Z + log prior",
            max(worst) <= 0.15,
            f"worst gap per seed [{', '.join(f'{g:.4f}' for g in worst)}] at N = {size}, "
            f"bound 0.15; trained small ensembles, no bound: "
            f"[{', '.join(f'{g:.2f}' for g in misfit)}] nats, {elapsed:.1f}s",
        )

    def test_criterion_12_paper_experiment_on_raw_spectra(self, tmp_path):
        # PAPER.md's experiment through what ships: raw spectra of two classes, binarized at
        # alpha 1/2, default training on one half, tested on the other. With this generator
        # at noise 0.2, seeds 0-19 all reached 0.995 or more; training on shuffled labels
        # gave 0.165-0.985 on seeds 0-4
        started = time.perf_counter()
        accuracies = []
        for seed in range(5):
            raw = tmp_path / f"raw{seed}.csv"
            write_raw_csv_text(raw, *spectra(seed, 2, 200, 100, 0.2))
            table = io.StringIO()
            with contextlib.redirect_stdout(table):
                assert cli.main(["sweep-alpha", str(raw), "--alphas", "1/2",
                                 "--train-fraction", "0.5", "--seed", str(seed),
                                 "--split-seed", str(seed)]) == 0
            accuracies.append(float(table.getvalue().splitlines()[1].split()[1]))
        good = sum(accuracy >= 0.99 for accuracy in accuracies)
        elapsed = time.perf_counter() - started
        _criterion(
            12, "paper's experiment: binarized raw spectra, train on half, test on half",
            good >= 4,
            f"{good}/5 seeds at accuracy >= 0.99 "
            f"[{', '.join(f'{a:.3f}' for a in accuracies)}], {elapsed:.1f}s",
        )
