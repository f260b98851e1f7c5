"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
module of the package that binds it (``classifier.train_rbm`` as well as
``rbm.train_rbm``, ``cli.load_csv`` as well as ``dataset.load_csv``) and
patches ``SeededRng.uniforms`` on the class. ``uninstall`` puts the
originals back. A wrapper records one span (name, start, end, parent) in
flat arrays, plus a work count for the layers that have one. It draws no
random numbers and does not touch arguments or results, so traced runs
must write the same bytes as untraced ones.

A function the package no longer has is skipped, and a function that is
never called reports zero calls; both still appear in ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array

import numpy as np


# Work counts: each takes (tracer, args, kwargs, result) of one call and
# runs after the call's span has closed.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(tracer, args, kwargs, result):
    return np.shape(_arg(args, kwargs, 0, "rows"))[0]


def _updates(tracer, args, kwargs, result):
    return np.shape(_arg(args, kwargs, 0, "data"))[0] * _arg(args, kwargs, 1, "config").epochs


def _draws(tracer, args, kwargs, result):
    return int(_arg(args, kwargs, 1, "n"))  # args[0] is the SeededRng


def _bytes_read(tracer, args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_written(tracer, args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _keep_fit(tracer, args, kwargs, result):
    """Keep the fit's inputs and offsets; the gradient is computed after the run."""
    table, labels = _arg(args, kwargs, 0, "free_energy_table"), _arg(args, kwargs, 1, "labels")
    fit = args[2] if len(args) > 2 else kwargs.get("fit")
    tracer.fits.append((table, labels, fit, result))
    return 0


FUNCTIONS = (
    ("dataset", "load_csv", _bytes_read),
    ("dataset", "save_csv", _bytes_written),
    ("dataset", "split", None),
    ("dataset", "synth_generate", None),
    ("preprocess", "normalize_rows", None),
    ("preprocess", "minmax", None),
    ("preprocess", "binarize", None),
    ("rbm", "train_rbm", _updates),
    ("rbm", "cd1", None),
    ("rbm", "hidden_probs", None),
    ("rbm", "visible_probs", None),
    ("rbm", "sample_bits", None),
    ("rbm", "free_energy_batch", _rows),
    ("classifier", "train_ensemble", None),
    ("classifier", "fit_offsets", _keep_fit),
    ("classifier", "predict_label_batch", _rows),
    ("classifier", "save_ensemble", None),
    ("classifier", "load_ensemble", None),
    ("metrics", "evaluate", None),
)
METHODS = (("markov", "SeededRng", "uniforms", _draws),)
CLI_COMMANDS = ("preprocess", "train", "evaluate", "sweep-alpha")
MODULES = ("classifier", "cli", "dataset", "markov", "metrics", "preprocess", "rbm")


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [
        "dataset.load_csv.calls", "dataset.load_csv.busy_s", "dataset.load_csv.mb_per_s",
        "dataset.save_csv.calls", "dataset.save_csv.busy_s", "dataset.save_csv.mb_per_s",
        "dataset.split.busy_s", "dataset.synth_generate.busy_s",
        "preprocess.normalize_rows.busy_s", "preprocess.minmax.busy_s", "preprocess.binarize.busy_s",
        "rbm.train_rbm.calls", "rbm.train_rbm.busy_s", "rbm.train_rbm.self_s",
        "rbm.train_rbm.updates", "rbm.train_rbm.updates_per_s",
        "rbm.cd1.calls", "rbm.cd1.busy_s", "rbm.cd1.self_s", "rbm.cd1.p50_us", "rbm.cd1.p99_us",
        "rbm.hidden_probs.calls", "rbm.hidden_probs.busy_s",
        "rbm.visible_probs.calls", "rbm.visible_probs.busy_s",
        "rbm.sample_bits.calls", "rbm.sample_bits.busy_s", "rbm.sample_bits.self_s",
        "markov.SeededRng.uniforms.calls", "markov.SeededRng.uniforms.busy_s",
        "markov.SeededRng.uniforms.draws",
        "rbm.free_energy_batch.calls", "rbm.free_energy_batch.busy_s",
        "rbm.free_energy_batch.rows_per_s",
        "classifier.predict_label_batch.busy_s", "classifier.predict_label_batch.rows_per_s",
        "classifier.fit_offsets.calls", "classifier.fit_offsets.busy_s",
        "classifier.fit_offsets.converged_ratio", "classifier.fit_offsets.final_grad_max",
        "classifier.train_ensemble.self_s", "classifier.save_ensemble.busy_s",
        "classifier.load_ensemble.busy_s", "metrics.evaluate.busy_s",
    ]
    for command in CLI_COMMANDS:
        names += [f"cli.{command}.busy_s", f"cli.{command}.self_s"]
    return names + ["trace.overhead_ratio"]


def unit(name):
    field = name.rsplit(".", 1)[1]
    return {
        "calls": "count", "updates": "count", "draws": "count", "busy_s": "s", "self_s": "s",
        "mb_per_s": "MB/s", "updates_per_s": "1/s", "rows_per_s": "1/s", "p50_us": "us",
        "p99_us": "us", "converged_ratio": "ratio", "final_grad_max": "1", "overhead_ratio": "ratio",
    }[field]


def better(name):
    field = name.rsplit(".", 1)[1]
    return "higher" if field in ("mb_per_s", "updates_per_s", "rows_per_s", "converged_ratio") else "lower"


def final_gradient(table, labels, offsets):
    """Infinity-norm of the offset-fit objective's gradient at ``offsets``.

    The objective is the mean log soft-max likelihood of ``labels`` under
    scores -table + offsets; its gradient is the label frequencies minus
    the mean predicted probabilities.
    """
    table = np.asarray(table, dtype=float)
    labels = np.asarray(labels)
    logits = -table + offsets
    logits = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    target = np.bincount(labels, minlength=table.shape[1]) / table.shape[0]
    return float(np.abs(target - probs.mean(axis=0)).max())


class Tracer:
    """Records spans for one run at a time; reset between runs."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names = [f"{m}.{f}" for m, f, _ in FUNCTIONS]
        self.names += [f"{m}.{c}.{f}" for m, c, f, _ in METHODS]
        self.names += [f"cli.{c}" for c in CLI_COMMANDS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self._patches = []  # (owner, attribute, original)
        # span columns; the wrappers hold these objects, so reset empties them
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack = []
        self.fits = []  # (table, labels, fit config, returned offsets)

    def reset(self):
        for column in (self.name_id, self.parent, self.start, self.end, self.work, self.stack, self.fits):
            del column[:]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, count):
        nid = self.ids[name]
        clock = time.perf_counter
        name_id, parent, start, end, work, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self.stack
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            work.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                work[idx] = count(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever the package binds it.

        ``cli.main`` gets one span per call, named after the subcommand.
        """
        self.reset()
        submodule = {m: importlib.import_module(f"{self.pkg.__name__}.{m}") for m in MODULES}
        modules = [self.pkg, *submodule.values()]
        for module, function, count in FUNCTIONS:
            original = getattr(submodule[module], function, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module}.{function}", original, count)
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        for module, cls_name, method, count in METHODS:
            cls = getattr(submodule[module], cls_name)
            original = vars(cls).get(method)
            if original is None:
                continue
            wrapper = self._wrap(f"{module}.{cls_name}.{method}", original, count)
            self._patches.append((cls, method, original))
            setattr(cls, method, wrapper)
        cli = submodule["cli"]
        main = cli.main
        commands = {c: self._wrap(f"cli.{c}", main, None) for c in CLI_COMMANDS}

        def traced_main(argv=None):
            return commands.get(argv[0] if argv else None, main)(argv)

        self._patches.append((cli, "main", main))
        cli.main = traced_main

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as JSON columns; parent -1 marks a root."""
        spans = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "work": self.work.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    def layer_metrics(self):
        """Per-layer metrics of the recorded run (all but trace.overhead_ratio)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        work = np.frombuffer(self.work, dtype=float)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        columns = {
            "calls": np.bincount(ids, minlength=k),
            "busy_s": np.bincount(ids, weights=dur, minlength=k),
            "self_s": np.bincount(ids, weights=dur - child, minlength=k),
            "work": np.bincount(ids, weights=work, minlength=k),
        }

        def value(layer, column):
            return float(columns[column][self.ids[layer]])

        def rate(layer, scale=1.0):
            busy = value(layer, "busy_s")
            return value(layer, "work") * scale / busy if busy > 0 else 0.0

        out = {}
        for name in metric_names():
            layer, field = name.rsplit(".", 1)
            if field in ("calls", "busy_s", "self_s"):
                out[name] = value(layer, field)
            elif field in ("updates", "draws"):
                out[name] = value(layer, "work")
            elif field == "mb_per_s":
                out[name] = rate(layer, 1e-6)
            elif field in ("updates_per_s", "rows_per_s"):
                out[name] = rate(layer)
        cd1 = dur[ids == self.ids["rbm.cd1"]] * 1e6
        out["rbm.cd1.p50_us"] = float(np.percentile(cd1, 50)) if cd1.size else 0.0
        out["rbm.cd1.p99_us"] = float(np.percentile(cd1, 99)) if cd1.size else 0.0
        grads = []
        converged = 0
        for table, labels, fit, offsets in self.fits:
            g = final_gradient(table, labels, offsets)
            grads.append(g)
            tolerance = fit.tolerance if fit is not None else self.pkg.OffsetFitConfig().tolerance
            converged += g <= tolerance
        out["classifier.fit_offsets.converged_ratio"] = converged / len(grads) if grads else 0.0
        out["classifier.fit_offsets.final_grad_max"] = max(grads) if grads else 0.0
        return out
