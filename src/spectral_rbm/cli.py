"""Command-line driver for the full pipeline.

Subcommands:

* ``synth``       generate a synthetic labeled binary dataset
* ``preprocess``  normalize rows and binarize against a threshold fraction
* ``train``       fit one RBM per class plus soft-max offsets
* ``evaluate``    score a trained ensemble on a labeled test CSV
* ``sweep-alpha`` split once, then run preprocess/train/evaluate across alpha values

Options come from flags only, and an option not given takes its built-in
default. An output that names the same file as an input or another output
is refused. A command that writes files names what it reads and writes
before it reads any input; ``main`` records that in ``<first output>.manifest``
with the exact command and the effective configuration. Manifests carry a
timestamp; all data outputs themselves are byte-deterministic given the
same inputs and seeds.

Exit codes: 0 success, 2 usage or validation problems, 3 i/o failures,
4 convergence failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import re
import shlex
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .classifier import load_ensemble, predict_label_batch, save_ensemble, train_ensemble
from .dataset import (
    LabeledDataset, SplitSpec, SynthSpec, load_csv, save_csv, split_indices, synth_generate,
)
from .errors import (
    ConvergenceError, FormatError, ValidationError, check_real, is_binary, not_utf8,
)
from .metrics import evaluate
from .preprocess import BinarizationRule, binarize, minmax, normalize_rows
from .rbm import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONVERGENCE = 4

# Threshold fractions swept by default, lowest to highest.
DEFAULT_ALPHA_GRID = ("1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5")

# Defaults of the options that belong to no config dataclass; every other
# option takes its default from its dataclass field.
_CLI_DEFAULTS = {
    "alpha": "1/2",
    "alphas": ",".join(DEFAULT_ALPHA_GRID),
    "label_column": "label",
}

# Option keys that differ from their dataclass field's name.
_OPTION_KEYS = {
    SynthSpec: {"samples_per_class": "per_class"},
    SplitSpec: {"seed": "split_seed"},
}

# Extra flag spellings, by option key.
_ALIASES = {"learning_rate": "--lr", "hidden_units": "--hidden"}

# The sidecar holds exactly these keys, in this order, and no others.
_SIDECAR_KEYS = ("sidecar_version", "alpha", "min", "max")
_SIDECAR_VERSION = "2"


def _parse_alpha(token):
    """Threshold fraction from a decimal or a/b fraction token."""
    token = str(token).strip()
    try:
        if "/" in token:
            num, _, den = token.partition("/")
            return float(num) / float(den)
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse threshold fraction {token!r}") from None


def _read_kv_file(path):
    """Sidecar reader: key=value lines; skips a BOM, blank and # lines; refuses a repeated key."""
    pairs = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}: line {line_no}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in pairs:
                    raise FormatError(f"{path}: line {line_no}: key {key!r} repeated")
                pairs[key] = value.strip()
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    return pairs


def _write_kv_file(path, pairs):
    """Write (key, value) pairs as key=value lines, the layout _read_kv_file reads."""
    Path(path).write_text("".join(f"{key}={value}\n" for key, value in pairs), encoding="utf-8")


def _parse(text, path, key):
    """text from a key=value file as a float; FormatError names the key."""
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{path}: {key}={text!r} is not a valid float") from None


def _dataclass_options(cls):
    """(option key, field, field type) for every field of cls."""
    types = typing.get_type_hints(cls)
    keys = _OPTION_KEYS.get(cls, {})
    for f in dataclasses.fields(cls):
        yield keys.get(f.name, f.name), f, types[f.name]


def _add_dataclass_options(parser, *classes):
    for cls in classes:
        for key, f, kind in _dataclass_options(cls):
            flags = [f"--{key.replace('_', '-')}"] + ([_ALIASES[key]] if key in _ALIASES else [])
            parser.add_argument(*flags, dest=key, type=kind,
                                help=f"{cls.__name__}.{f.name} (default {f.default!r})")


class _Options:
    """Each option from its flag or its default, kept in effective; the path check; the record."""

    def __init__(self, args):
        self._args = args
        self.effective = {}
        self.record = None

    def _resolve(self, key, default):
        value = getattr(self._args, key)
        self.effective[key] = default if value is None else value
        return self.effective[key]

    def get(self, key):
        """A string option that belongs to no config dataclass."""
        return self._resolve(key, _CLI_DEFAULTS[key])

    def build(self, cls):
        """The config dataclass cls, each option resolved with its field's default."""
        fields = _dataclass_options(cls)
        return cls(**{f.name: self._resolve(key, f.default) for key, f, _ in fields})

    def finish(self, inputs, outputs):
        """Refuse colliding paths and keep the manifest record.

        Runs before any input is read. An output may not name the same file (see _file_key)
        as an input, another output or the manifest beside the first output. With outputs,
        self.record becomes (inputs, outputs) for the manifest main writes; without, it
        stays None.
        """
        if not outputs:
            return
        seen = {}
        for name, path in inputs:
            seen.setdefault(_file_key(path), f"{name} input {path}")
        written = [(f"{name} output", path) for name, path in outputs]
        for role, path in written + [("manifest", f"{outputs[0][1]}.manifest")]:
            key = _file_key(path)
            if key in seen:
                raise ValidationError(f"the {role} {path} is the same file as the {seen[key]}")
            seen[key] = f"{role} {path}"
        self.record = inputs, outputs


def _file_key(path):
    """(device, inode) of the file path names, or its real path when there is none yet."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command, argv, effective, inputs, outputs):
    """Write <first output>.manifest: the command, its effective config, every file's digest."""
    pairs = [
        ("manifest_version", 1),
        ("tool", f"spectral-rbm {__version__}"),
        ("command", command),
        ("argv", shlex.join(argv)),
        ("timestamp_utc", datetime.now(timezone.utc).isoformat()),
    ]
    pairs.extend((f"config.{key}", effective[key]) for key in sorted(effective))
    for name, path in inputs:
        pairs += [(f"input.{name}.path", path), (f"input.{name}.sha256", _sha256(path))]
    for name, path in outputs:
        pairs += [(f"output.{name}", path), (f"output.{name}.sha256", _sha256(path))]
    _write_kv_file(f"{outputs[0][1]}.manifest", pairs)


def _read_sidecar(path):
    """(rule, lo, hi) from a sidecar holding exactly _SIDECAR_KEYS, its version checked first."""
    stats = _read_kv_file(path)
    if stats.get("sidecar_version", _SIDECAR_VERSION) != _SIDECAR_VERSION:
        raise FormatError(f"{path}: sidecar_version={stats['sidecar_version']} is not supported, "
                          f"expected {_SIDECAR_VERSION}")
    missing = [key for key in _SIDECAR_KEYS if key not in stats]
    if missing:
        raise FormatError(f"{path}: missing sidecar key {missing[0]!r}")
    unknown = [key for key in stats if key not in _SIDECAR_KEYS]
    if unknown:
        raise FormatError(f"{path}: unknown sidecar key {unknown[0]!r}")
    alpha, lo, hi = (_parse(stats[key], path, key) for key in _SIDECAR_KEYS[1:])
    try:
        rule = BinarizationRule(alpha)
        check_real("min", lo)
        check_real("max", hi)
    except ValidationError as exc:
        raise FormatError(f"{path}: sidecar {exc}") from None
    if lo > hi:
        raise FormatError(f"{path}: sidecar min={lo!r} exceeds max={hi!r}")
    return rule, lo, hi


def _normalized(ds, path):
    """ds's rows scaled to unit length; a row normalize_rows refuses is named with path."""
    try:
        return normalize_rows(ds.features)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _require_binary_features(ds, source):
    if not is_binary(ds.features):
        raise ValidationError(
            f"{source}: features are not all 0/1; run `spectral-rbm preprocess` first"
        )


# --- subcommands ------------------------------------------------------------
#
# Each command takes the parsed arguments and the options resolver, and
# calls opts.finish before it reads any input; main writes the manifest
# from the record that leaves on opts.


def _cmd_synth(args, opts):
    spec = opts.build(SynthSpec)
    opts.finish([], [("dataset", args.out)])
    ds = synth_generate(spec)
    save_csv(ds, args.out)
    print(f"wrote {ds.sample_count} rows x {ds.dim} features to {args.out}")


def _cmd_preprocess(args, opts):
    label_column = opts.get("label_column")
    if args.reuse_stats:
        if args.alpha is not None:
            raise ValidationError("--alpha does not apply: --reuse-stats reads its "
                                  "statistics from the given sidecar and writes none")
        opts.finish([("dataset", args.input), ("sidecar", args.reuse_stats)],
                    [("dataset", args.out)])
        rule, lo, hi = _read_sidecar(args.reuse_stats)
        opts.effective.update({"alpha": rule.alpha, "min": lo, "max": hi})
    else:
        rule = BinarizationRule(_parse_alpha(opts.get("alpha")))
        sidecar_path = f"{args.out}.sidecar"
        opts.finish([("dataset", args.input)], [("dataset", args.out), ("sidecar", sidecar_path)])
        opts.effective["alpha"] = rule.alpha

    ds = load_csv(args.input, label_column)
    labels, names = ds.labels, ds.feature_names
    normalized = _normalized(ds, args.input)
    del ds  # each matrix is freed once its successor exists
    if not args.reuse_stats:
        lo, hi = minmax(normalized)
    binary = binarize(normalized, rule, lo, hi)
    del normalized
    save_csv(LabeledDataset(binary, labels, names), args.out, label_column)

    if args.reuse_stats:
        print(f"binarized {labels.size} rows using stored statistics -> {args.out}")
        return

    _write_kv_file(sidecar_path, zip(_SIDECAR_KEYS, (_SIDECAR_VERSION, rule.alpha, lo, hi)))
    print(f"binarized {labels.size} rows (alpha={rule.alpha:g}) -> {args.out}")


def _cmd_train(args, opts):
    label_column = opts.get("label_column")
    config = opts.build(TrainConfig)
    opts.finish([("dataset", args.input)], [("model", args.out)])
    ds = load_csv(args.input, label_column)
    _require_binary_features(ds, args.input)
    class_rows = ds.class_matrices()
    del ds  # training needs only the per-class copies
    ensemble = train_ensemble(class_rows, config)
    save_ensemble(args.out, ensemble)
    print(
        f"trained {len(ensemble.classes)} class models "
        f"({ensemble.num_visible} visible x {config.hidden_units} hidden, "
        f"{config.epochs} epochs) -> {args.out}"
    )


def _cmd_evaluate(args, opts):
    label_column = opts.get("label_column")
    opts.finish([("model", args.model), ("dataset", args.test)],
                [("report", args.out)] if args.out else [])
    ensemble = load_ensemble(args.model)
    ds = load_csv(args.test, label_column)
    _require_binary_features(ds, args.test)
    if ds.dim != ensemble.num_visible:
        raise ValidationError(
            f"model expects {ensemble.num_visible} features, {args.test} has {ds.dim}"
        )
    predictions = predict_label_batch(ds.features, ensemble)
    report = evaluate(predictions, ds.labels)
    print(report.to_text())
    if args.out:
        _write_kv_file(args.out, report.to_flat())


def _cmd_sweep_alpha(args, opts):
    label_column = opts.get("label_column")
    tokens = [t for t in re.split(r"[,\s]+", opts.get("alphas")) if t]
    if not tokens:
        raise ValidationError("no alpha values to sweep")
    rules = [BinarizationRule(_parse_alpha(token)) for token in tokens]
    config = opts.build(TrainConfig)
    split_spec = opts.build(SplitSpec)
    opts.finish([("dataset", args.input)], [("table", args.out)] if args.out else [])
    ds = load_csv(args.input, label_column)
    labels, class_ids = ds.labels, ds.class_ids()
    normalized = _normalized(ds, args.input)
    del ds  # the raw features are not needed again
    # the split depends only on the labels and the seed, so every alpha shares one draw
    train_idx, test_idx = split_indices(labels, split_spec)
    results = [
        (token, *_sweep_point(normalized, labels, class_ids, train_idx, test_idx, rule, config))
        for token, rule in zip(tokens, rules)
    ]

    table = _format_sweep_table(class_ids, results)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")


def _sweep_point(normalized, labels, class_ids, train_idx, test_idx, rule, config):
    """(accuracy, per-class recalls) of one alpha: train on train_idx, test on test_idx.

    This is the preprocess -> train -> preprocess --reuse-stats -> evaluate
    chain on one split: the training rows are cut with their own min/max,
    and the held-out rows with that same pair, so no held-out row shapes
    the threshold. Only the per-class training rows are alive while the
    ensemble trains; the held-out rows are cut after it returns, and nothing
    of this alpha, its ensemble included, outlives the call.
    """
    train_rows = normalized[train_idx]
    lo, hi = minmax(train_rows)
    binary = binarize(train_rows, rule, lo, hi)
    del train_rows
    train_labels = labels[train_idx]
    class_rows = {c: binary[train_labels == c] for c in class_ids}
    del binary
    ensemble = train_ensemble(class_rows, config)
    del class_rows
    test_rows = binarize(normalized[test_idx], rule, lo, hi)
    predictions = predict_label_batch(test_rows, ensemble)
    # the split leaves every class a test row and the ensemble predicts only training
    # classes, so the report's classes are every class id and every recall is defined
    report = evaluate(predictions, labels[test_idx])
    return report.accuracy, report.per_class_recall


def _format_sweep_table(class_ids, results):
    headers = ["alpha", "accuracy"] + [f"recall[{c}]" for c in class_ids]
    body = []
    for token, accuracy, recalls in results:
        cells = [token, f"{accuracy:.6f}"]
        cells.extend(f"{r:.6f}" for r in recalls)
        body.append(cells)
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# --- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spectral-rbm",
        description="Per-class binary RBMs with a free-energy soft-max readout.",
        epilog="exit codes: 0 success, 2 usage/validation, 3 i/o, 4 convergence",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    labeled = argparse.ArgumentParser(add_help=False)
    labeled.add_argument("--label-column", dest="label_column",
                         help=f"name of the label column (default {_CLI_DEFAULTS['label_column']})")

    synth = sub.add_parser("synth", help="generate a synthetic labeled binary dataset")
    synth.add_argument("--out", required=True, help="output CSV path")
    _add_dataclass_options(synth, SynthSpec)
    synth.set_defaults(func=_cmd_synth)

    pre = sub.add_parser("preprocess", parents=[labeled],
                         help="l2-normalize rows and binarize features")
    pre.add_argument("input", help="labeled CSV of raw features")
    pre.add_argument("--out", required=True, help="output CSV path; the sidecar goes to "
                                                  "<out>.sidecar")
    pre.add_argument("--alpha", help="threshold fraction in (0, 1), decimal or a/b "
                                     f"(default {_CLI_DEFAULTS['alpha']})")
    pre.add_argument("--reuse-stats", dest="reuse_stats",
                     help="binarize with the training min/max from an existing sidecar "
                          "instead of computing new ones (test-time mode)")
    pre.set_defaults(func=_cmd_preprocess)

    train = sub.add_parser("train", parents=[labeled],
                           help="train one RBM per class plus soft-max offsets")
    train.add_argument("input", help="labeled CSV of binarized features")
    train.add_argument("--out", required=True, help="output model path")
    _add_dataclass_options(train, TrainConfig)
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("evaluate", parents=[labeled],
                        help="evaluate a trained ensemble on labeled binary data")
    ev.add_argument("model", help="RBME1 model file from `train`")
    ev.add_argument("test", help="labeled CSV of binarized test features")
    ev.add_argument("--out", help="also write a machine-readable report here")
    ev.set_defaults(func=_cmd_evaluate)

    sweep = sub.add_parser("sweep-alpha", parents=[labeled],
                           help="split, binarize, train, evaluate across alpha values")
    sweep.add_argument("input", help="labeled CSV of raw features")
    sweep.add_argument("--alphas", help="comma/space separated threshold fractions "
                                        f"(default {_CLI_DEFAULTS['alphas']})")
    sweep.add_argument("--out", help="also write the result table here")
    _add_dataclass_options(sweep, SplitSpec, TrainConfig)
    sweep.set_defaults(func=_cmd_sweep_alpha)

    return parser


def main(argv=None):
    """Run the CLI; returns the process exit code instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for --help/--version/usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        opts = _Options(args)
        args.func(args, opts)
        if opts.record is not None:
            _write_manifest(args.command, argv, opts.effective, *opts.record)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
