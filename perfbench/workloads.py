"""The benchmark's workloads: seeded input generation, one timed run, checks.

Each workload has three parts. ``prepare`` builds every input from the
workload seed with the benchmark's own code and writes it under a work
directory; the package only ever sees those files or arrays. ``run_once``
does the work that is timed. ``check`` looks at what one run produced and
returns a list of problems, empty when the run is correct. Byte identity
across runs is checked by the caller, which sees every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The default sweep-alpha grid, spelled out so the table check does not
# depend on the package's own constant.
SWEEP_ALPHAS = ("1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5")


@dataclass(frozen=True)
class Size:
    """Shape of one workload's inputs and model."""

    classes: int
    rows: int  # per class; train + test together where the workload splits
    dim: int
    hidden: int
    epochs: int
    noise: float  # bit-flip rate (train-ref) or additive noise level (spectra)
    floor: float  # lowest accuracy a correct run may report


# Full-size settings first, then the small size the self-tests use.
SIZES = {
    "train-ref": (Size(2, 200, 100, 100, 50, 0.05, 0.95), Size(2, 20, 16, 8, 2, 0.05, 0.0)),
    "cli-spectra": (Size(3, 1000, 500, 100, 1, 0.05, 0.95), Size(3, 20, 40, 8, 1, 0.05, 0.0)),
    "sweep-overlap": (Size(8, 100, 100, 50, 1, 0.4, 0.5), Size(8, 6, 20, 8, 1, 0.4, 0.0)),
}
NAMES = tuple(SIZES)


def sub_seed(seed, tag):
    """A 63-bit seed derived from the workload seed and a fixed tag."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0] >> np.uint64(1))


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    return sha256_bytes(Path(path).read_bytes())


# --- spectra ----------------------------------------------------------------


def spectra(seed, classes, rows, dim, noise):
    """Labeled rows of synthetic spectra, class-major, as (features, labels).

    Each class template is a sloped baseline plus four Gaussian peaks.
    The peaks of all classes sit on one evenly spaced grid, interleaved by
    class, and the seed jitters their positions, widths and heights; so
    every seed gives classes that differ by the same kind of amount. A row
    is the template times a per-row scale, plus a per-row offset and
    independent Gaussian noise of standard deviation ``noise``. Peaks
    reach heights 0.5 to 2, so noise 0.05 leaves classes apart and noise
    0.4 makes them overlap.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.linspace(0.0, 1.0, dim)
    peaks = 4
    grid = np.linspace(0.05, 0.95, classes * peaks)
    spacing = grid[1] - grid[0]
    templates = np.empty((classes, dim))
    for c in range(classes):
        template = 1.0 + 0.3 * x
        for j in range(peaks):
            center = grid[j * classes + c] + rng.uniform(-0.25, 0.25) * spacing
            width = rng.uniform(0.01, 0.03)
            height = rng.uniform(0.5, 2.0)
            template = template + height * np.exp(-0.5 * ((x - center) / width) ** 2)
        templates[c] = template
    scale = rng.uniform(0.8, 1.2, size=(classes, rows, 1))
    offset = rng.uniform(-0.1, 0.1, size=(classes, rows, 1))
    features = scale * templates[:, None, :] + offset + noise * rng.standard_normal((classes, rows, dim))
    labels = np.repeat(np.arange(classes), rows)
    return features.reshape(classes * rows, dim), labels


def write_csv(path, features, labels):
    """Labeled CSV with the benchmark's fixed float format (shortest repr)."""
    header = ",".join(f"w{i + 1}" for i in range(features.shape[1])) + ",label\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header)
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


# --- reference kernel -------------------------------------------------------

REFERENCE_ROWS = (np.random.Generator(np.random.PCG64(0)).random((200, 100)) < 0.3).astype(float)
REFERENCE_LINES = [
    ",".join(repr(float(x)) for x in row) for row in np.random.Generator(np.random.PCG64(2)).random((200, 100))
]


def reference_kernel():
    """The benchmark's yardstick for machine speed, timed before every untraced run.

    The host slows this package's code by up to about 1.6x for tens of
    seconds at a time, and slows interpreted text handling more than small
    numpy operations. So the yardstick does both kinds of work the package
    does, in about equal time: online CD-1 with momentum, one row at a time
    with small matrix-vector products, and parsing and formatting CSV
    floats. It depends on numpy only, never on the package, so a change to
    the package cannot move it. About 0.25 s on a 2-core Xeon VM.
    """
    rng = np.random.Generator(np.random.PCG64(1))
    rows, hidden = REFERENCE_ROWS, 100
    visible = rows.shape[1]
    w = rng.standard_normal((visible, hidden)) * 0.01
    b, c = np.zeros(visible), np.zeros(hidden)
    dw, db, dc = np.zeros_like(w), np.zeros_like(b), np.zeros_like(c)
    for _ in range(6):
        for i in rng.permutation(rows.shape[0]):
            v0 = rows[i]
            p0 = 1.0 / (1.0 + np.exp(-(c + v0 @ w)))
            h0 = (rng.random(hidden) < p0).astype(float)
            v1 = (rng.random(visible) < 1.0 / (1.0 + np.exp(-(b + w @ h0)))).astype(float)
            p1 = 1.0 / (1.0 + np.exp(-(c + v1 @ w)))
            dw = 0.5 * dw + 0.1 * (np.outer(v0, p0) - np.outer(v1, p1) - 1e-4 * w)
            db = 0.5 * db + 0.1 * (v0 - v1)
            dc = 0.5 * dc + 0.1 * (p0 - p1)
            w += dw
            b += db
            c += dc
    for _ in range(4):
        parsed = [[float(t) for t in line.split(",")] for line in REFERENCE_LINES]
        lines = [",".join(repr(x) for x in row) for row in parsed]
    if not np.all(np.isfinite(w)) or lines != REFERENCE_LINES:
        raise AssertionError("reference kernel gave a wrong result")


# --- workloads --------------------------------------------------------------


class Workload:
    """Base: the subclasses fill in prepare, run_once and check."""

    name = ""

    def __init__(self, size, seed, workdir):
        self.size = size
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}  # input name -> sha256 of its bytes

    def clear(self):
        """Remove what an earlier run left, so each run's outputs are its own."""

    def accuracy_problems(self, accuracy):
        if not 0.0 <= accuracy <= 1.0:
            return [f"accuracy {accuracy!r} outside [0, 1]"]
        if accuracy < self.size.floor:
            return [f"accuracy {accuracy:.6f} below the floor {self.size.floor}"]
        return []


class TrainRef(Workload):
    """Library path at the reference point: train, score held-out rows."""

    name = "train-ref"

    def prepare(self, pkg):
        s = self.size
        ds = pkg.synth_generate(
            pkg.SynthSpec(classes=s.classes, samples_per_class=s.rows, dim=s.dim,
                          noise=s.noise, seed=sub_seed(self.seed, 1))
        )
        self.train, self.test = pkg.split(ds, pkg.SplitSpec(0.5, sub_seed(self.seed, 2)))
        self.config = pkg.TrainConfig(hidden_units=s.hidden, epochs=s.epochs, seed=sub_seed(self.seed, 3))
        self.inputs["train"] = sha256_bytes(self.train.features.tobytes() + self.train.labels.tobytes())
        self.inputs["test"] = sha256_bytes(self.test.features.tobytes() + self.test.labels.tobytes())

    def run_once(self, pkg):
        ensemble = pkg.train_ensemble(self.train.class_matrices(), self.config)
        predicted = pkg.predict_label_batch(self.test.features, ensemble)
        report = pkg.evaluate(predicted, self.test.labels)
        return ensemble, predicted, report

    def outputs(self, pkg, result):
        ensemble, predicted, report = result
        flat = "\n".join(f"{k}={v}" for k, v in report.to_flat()) + "\n"
        return {
            "model": pkg.classifier.ensemble_to_bytes(ensemble),
            "predictions": np.asarray(predicted, dtype=np.int64).tobytes(),
            "report": flat.encode(),
        }

    def check(self, pkg, result):
        ensemble, predicted, report = result
        truth = self.test.labels
        problems = []
        # independent scoring: -F_c(v) + offset_c from the raw parameters
        scores = np.column_stack([
            rows_free_energy_neg(self.test.features, m) for m in ensemble.models
        ]) + ensemble.offsets
        expected = np.asarray(ensemble.classes)[np.argmax(scores, axis=1)]
        if not np.array_equal(expected, predicted):
            problems.append(f"{int(np.sum(expected != predicted))} predictions disagree with direct scoring")
        accuracy = float(np.mean(np.asarray(predicted) == truth))
        if report.accuracy != accuracy or report.sample_count != truth.size:
            problems.append(f"report accuracy {report.accuracy!r} != recomputed {accuracy!r}")
        return accuracy, problems + self.accuracy_problems(accuracy)


def rows_free_energy_neg(rows, model):
    """-F(v) for every row, written out from the RBM definition."""
    x = model.hidden_bias + rows @ model.weights
    return rows @ model.visible_bias + np.logaddexp(0.0, x).sum(axis=1)


class CliWorkload(Workload):
    """A workload driven through ``spectral_rbm.cli.main`` in-process."""

    def cli(self, pkg, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main([str(a) for a in argv])

    def run_dir(self):
        out = self.workdir / "run"
        out.mkdir(exist_ok=True)
        return out

    def clear(self):
        shutil.rmtree(self.workdir / "run", ignore_errors=True)


class CliSpectra(CliWorkload):
    """preprocess -> train -> preprocess --reuse-stats -> evaluate on spectra."""

    name = "cli-spectra"
    OUTPUTS = ("train.bin.csv", "train.bin.csv.sidecar", "model.rbme", "test.bin.csv", "report.txt")

    def prepare(self, pkg):
        s = self.size
        features, labels = spectra(sub_seed(self.seed, 1), s.classes, s.rows, s.dim, s.noise)
        half = s.rows // 2
        is_train = np.tile(np.arange(s.rows) < half, s.classes)
        for part, mask in (("train", is_train), ("test", ~is_train)):
            path = self.workdir / f"{part}.raw.csv"
            write_csv(path, features[mask], labels[mask])
            self.inputs[path.name] = sha256_file(path)
        self.test_rows = int(np.sum(~is_train))

    def run_once(self, pkg):
        src, out = self.workdir, self.run_dir()
        return [
            self.cli(pkg, "preprocess", src / "train.raw.csv", "--out", out / "train.bin.csv",
                     "--alpha", "2/5"),
            self.cli(pkg, "train", out / "train.bin.csv", "--out", out / "model.rbme",
                     "--epochs", self.size.epochs, "--hidden", self.size.hidden,
                     "--seed", sub_seed(self.seed, 2)),
            self.cli(pkg, "preprocess", src / "test.raw.csv", "--out", out / "test.bin.csv",
                     "--reuse-stats", out / "train.bin.csv.sidecar"),
            self.cli(pkg, "evaluate", out / "model.rbme", out / "test.bin.csv",
                     "--out", out / "report.txt"),
        ]

    def outputs(self, pkg, codes):
        out = self.run_dir()
        return {name: (out / name).read_bytes() for name in self.OUTPUTS if (out / name).exists()}

    def check(self, pkg, codes):
        problems = [f"cli call {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        if problems:
            return 0.0, problems
        out = self.run_dir()
        if not (out / "model.rbme").read_bytes().startswith(b"RBME1"):
            problems.append("model.rbme does not start with the RBME1 magic")
        report = dict(
            line.split("=", 1) for line in (out / "report.txt").read_text().splitlines() if "=" in line
        )
        accuracy = float(report["accuracy"])
        confusion = {k: int(v) for k, v in report.items() if k.startswith("confusion.")}
        total = sum(confusion.values())
        hits = sum(v for k, v in confusion.items() if k.split(".")[1] == k.split(".")[2])
        if total != self.test_rows or int(report["sample_count"]) != total:
            problems.append(f"report covers {total} rows, expected {self.test_rows}")
        elif accuracy != hits / total:
            problems.append(f"report accuracy {accuracy!r} != confusion diagonal {hits}/{total}")
        return accuracy, problems + self.accuracy_problems(accuracy)


class SweepOverlap(CliWorkload):
    """sweep-alpha over the default grid on overlapping spectra."""

    name = "sweep-overlap"

    def prepare(self, pkg):
        s = self.size
        features, labels = spectra(sub_seed(self.seed, 1), s.classes, s.rows, s.dim, s.noise)
        path = self.workdir / "raw.csv"
        write_csv(path, features, labels)
        self.inputs[path.name] = sha256_file(path)

    def run_once(self, pkg):
        src, out = self.workdir, self.run_dir()
        return [
            self.cli(pkg, "sweep-alpha", src / "raw.csv", "--epochs", self.size.epochs,
                     "--hidden", self.size.hidden, "--seed", sub_seed(self.seed, 2),
                     "--split-seed", sub_seed(self.seed, 3), "--out", out / "table.txt")
        ]

    def outputs(self, pkg, codes):
        path = self.run_dir() / "table.txt"
        return {"table.txt": path.read_bytes()} if path.exists() else {}

    def check(self, pkg, codes):
        if codes != [0]:
            return 0.0, [f"sweep-alpha exited {codes[0]}"]
        lines = (self.run_dir() / "table.txt").read_text().splitlines()
        header, body = lines[0].split(), [line.split() for line in lines[1:]]
        problems = []
        expected_header = ["alpha", "accuracy"] + [f"recall[{c}]" for c in range(self.size.classes)]
        if header != expected_header:
            problems.append(f"table header {header} != {expected_header}")
        if [row[0] for row in body] != list(SWEEP_ALPHAS):
            problems.append(f"table alphas {[row[0] for row in body]} != {list(SWEEP_ALPHAS)}")
        if problems:
            return 0.0, problems
        accuracies = [float(row[1]) for row in body]
        for row, accuracy in zip(body, accuracies):
            # balanced test split: accuracy is the mean of the class recalls
            recalls = [float(r) for r in row[2:]]
            if abs(np.mean(recalls) - accuracy) > 1e-5:
                problems.append(f"alpha {row[0]}: accuracy {accuracy} != mean recall {np.mean(recalls):.6f}")
        accuracy = float(np.mean(accuracies))
        return accuracy, problems + self.accuracy_problems(accuracy)


WORKLOADS = {cls.name: cls for cls in (TrainRef, CliSpectra, SweepOverlap)}


def make(name, seed, workdir, small=False):
    """The named workload at full or small size, inputs not yet prepared."""
    return WORKLOADS[name](SIZES[name][1 if small else 0], seed, workdir)
