"""Command-line driver for the full pipeline.

Subcommands:

* ``synth``       generate a synthetic labeled binary dataset
* ``preprocess``  normalize rows and binarize against a threshold fraction
* ``train``       fit one RBM per class plus soft-max offsets
* ``evaluate``    score a trained ensemble on a labeled test CSV
* ``sweep-alpha`` run preprocess/split/train/evaluate across alpha values

Every option can also come from a ``--config`` key=value file; explicit
flags win over the file, the file wins over built-in defaults, and a key
the command does not read is refused like an unknown flag. A command
that writes files returns what it read and wrote, and ``main`` records
that in ``<first output>.manifest`` with the exact command and the
effective configuration. Manifests carry a timestamp; all data outputs
themselves are byte-deterministic given the same inputs and seeds.

Exit codes: 0 success, 2 usage or validation problems, 3 i/o failures,
4 convergence failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import re
import shlex
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import (
    OffsetFitConfig,
    load_ensemble,
    predict_label_batch,
    save_ensemble,
    train_ensemble,
)
from .dataset import LabeledDataset, SplitSpec, SynthSpec, load_csv, save_csv, split, synth_generate
from .errors import ConvergenceError, FormatError, ValidationError, is_binary, not_utf8
from .metrics import evaluate
from .preprocess import BinarizationRule, Scope, binarize, binarize_dataset, normalize_rows
from .rbm import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONVERGENCE = 4

# Threshold fractions swept by default, lowest to highest.
DEFAULT_ALPHA_GRID = ("1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5")

_SCOPE_CHOICES = {"per-class": Scope.PER_MATRIX, "global": Scope.GLOBAL}

# Defaults of the options that belong to no config dataclass; every other
# option takes its default from its dataclass field.
_CLI_DEFAULTS = {
    "alpha": "1/2",
    "alphas": ",".join(DEFAULT_ALPHA_GRID),
    "scope": "per-class",
    "label_column": "label",
}

# Option keys that differ from their dataclass field's name.
_OPTION_KEYS = {
    OffsetFitConfig: {"tolerance": "fit_tolerance"},
    SynthSpec: {"samples_per_class": "per_class"},
    SplitSpec: {"seed": "split_seed"},
}

# Extra flag spellings, by option key.
_ALIASES = {"learning_rate": "--lr", "hidden_units": "--hidden"}


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


def _parse_scope(name):
    if name not in _SCOPE_CHOICES:
        raise ValidationError(f"scope must be one of {sorted(_SCOPE_CHOICES)}, got {name!r}")
    return _SCOPE_CHOICES[name]


def _read_kv_file(path):
    """Flat key=value file; blank lines and # comments ignored, a repeated key refused."""
    pairs = {}
    try:
        with open(path, encoding="utf-8") as fh:
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


def _parse(kind, text, path, key):
    """text from a key=value file as int, float or str; FormatError names the key."""
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"{path}: {key}={text!r} is not a valid {kind.__name__}") from None


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
    """Flag > config file > default resolution, remembering what was used."""

    def __init__(self, args):
        self._args = args
        self._config_path = getattr(args, "config", None)
        self._file = _read_kv_file(self._config_path) if self._config_path else {}
        self.effective = {}

    def _resolve(self, key, kind, default):
        value = getattr(self._args, key, None)
        if value is None and key in self._file:
            value = _parse(kind, self._file[key], self._config_path, key)
        self.effective[key] = default if value is None else value
        return self.effective[key]

    def get(self, key):
        """A string option that belongs to no config dataclass."""
        return self._resolve(key, str, _CLI_DEFAULTS[key])

    def build(self, cls):
        """The config dataclass cls, each option resolved with its field's type and default."""
        return cls(**{
            f.name: self._resolve(key, kind, f.default) for key, f, kind in _dataclass_options(cls)
        })

    def refuse_unread(self):
        """Refuse a config file key that no option resolved so far has read."""
        unread = [key for key in self._file if key not in self.effective]
        if unread:
            raise FormatError(f"{self._config_path}: key {unread[0]!r} is not an option this "
                              "command reads")


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command, argv, effective, inputs, outputs, notes):
    """Write <first output>.manifest: the command, its effective config, input digests, outputs."""
    lines = [
        "manifest_version=1",
        f"tool=spectral-rbm {__version__}",
        f"command={command}",
        f"argv={shlex.join(argv)}",
        f"timestamp_utc={datetime.now(timezone.utc).isoformat()}",
    ]
    lines.extend(f"config.{key}={_fmt(effective[key])}" for key in sorted(effective))
    for name, input_path in inputs:
        lines.append(f"input.{name}.path={input_path}")
        lines.append(f"input.{name}.sha256={_sha256(input_path)}")
    lines.extend(f"output.{name}={output_path}" for name, output_path in outputs)
    lines.extend(notes)
    Path(f"{outputs[0][1]}.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require_binary_features(ds, source):
    if not is_binary(ds.features):
        raise ValidationError(
            f"{source}: features are not all 0/1; run `spectral-rbm preprocess` first"
        )


# --- subcommands ------------------------------------------------------------
#
# Each command takes the parsed arguments and the options resolver, and
# returns (inputs, outputs, notes) for the manifest main writes, or None
# when it wrote no file.


def _cmd_synth(args, opts):
    spec = opts.build(SynthSpec)
    opts.refuse_unread()
    ds = synth_generate(spec)
    save_csv(ds, args.out)
    print(f"wrote {ds.sample_count} rows x {ds.dim} features to {args.out}")
    return [], [("dataset", args.out)], ()


def _cmd_preprocess(args, opts):
    label_column = opts.get("label_column")
    if args.reuse_stats:
        if args.alpha is not None or args.scope is not None or args.sidecar is not None:
            raise ValidationError("--alpha/--scope/--sidecar do not apply: --reuse-stats "
                                  "reads its statistics from the given sidecar and writes none")
        opts.refuse_unread()
        stats = _read_kv_file(args.reuse_stats)
        for key in ("sidecar_version", "alpha", "min", "max"):
            if key not in stats:
                raise FormatError(f"{args.reuse_stats}: missing sidecar key {key!r}")
        if stats["sidecar_version"] != "1":
            raise FormatError(
                f"{args.reuse_stats}: sidecar_version={stats['sidecar_version']} is not supported, "
                "expected 1"
            )
        alpha, lo, hi = (
            _parse(float, stats[key], args.reuse_stats, key) for key in ("alpha", "min", "max")
        )
        # test-time convention: pooled training statistics, whatever scope
        # produced them, applied globally to the new data
        rule = BinarizationRule(alpha, Scope.GLOBAL)
        opts.effective.update({"alpha": alpha, "min": lo, "max": hi})
    else:
        alpha = _parse_alpha(opts.get("alpha"))
        scope_token = opts.get("scope")
        scope = _parse_scope(scope_token)
        opts.refuse_unread()
        rule = BinarizationRule(alpha, scope)
        opts.effective["alpha"] = alpha

    ds = load_csv(args.input, label_column)
    normalized = normalize_rows(ds.features)
    if args.reuse_stats:
        binary = binarize(normalized, rule, lo, hi)
    else:
        binary, stats = binarize_dataset(normalized, ds.labels, rule)
    save_csv(LabeledDataset(binary, ds.labels, ds.feature_names), args.out, label_column)

    if args.reuse_stats:
        print(f"binarized {ds.sample_count} rows using stored statistics -> {args.out}")
        return ([("dataset", args.input), ("sidecar", args.reuse_stats)], [("dataset", args.out)],
                ("note.binarization=reused pooled training statistics from sidecar",))

    sidecar_path = args.sidecar or f"{args.out}.sidecar"
    sidecar_lines = [
        "sidecar_version=1",
        f"alpha={alpha!r}",
        f"scope={scope_token}",
        "test_time_stats=pooled-train-minmax",
    ]
    sidecar_lines.extend(f"{key}={value!r}" for key, value in stats)
    Path(sidecar_path).write_text("\n".join(sidecar_lines) + "\n", encoding="utf-8")
    print(f"binarized {ds.sample_count} rows (alpha={alpha:g}, scope={scope_token}) -> {args.out}")
    return ([("dataset", args.input)], [("dataset", args.out), ("sidecar", sidecar_path)],
            ("note.test_time_binarization=apply the sidecar's pooled min/max via --reuse-stats",))


def _cmd_train(args, opts):
    label_column = opts.get("label_column")
    config = opts.build(TrainConfig)
    fit = opts.build(OffsetFitConfig)
    opts.refuse_unread()
    ds = load_csv(args.input, label_column)
    _require_binary_features(ds, args.input)
    ensemble = train_ensemble(ds.class_matrices(), config, fit)
    save_ensemble(args.out, ensemble)
    print(
        f"trained {len(ensemble.classes)} class models "
        f"({ensemble.num_visible} visible x {config.hidden_units} hidden, "
        f"{config.epochs} epochs) -> {args.out}"
    )
    return [("dataset", args.input)], [("model", args.out)], ()


def _cmd_evaluate(args, opts):
    label_column = opts.get("label_column")
    opts.refuse_unread()
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
    if not args.out:
        return None
    Path(args.out).write_text(
        "\n".join(f"{key}={value}" for key, value in report.to_flat()) + "\n", encoding="utf-8"
    )
    return [("model", args.model), ("dataset", args.test)], [("report", args.out)], ()


def _cmd_sweep_alpha(args, opts):
    label_column = opts.get("label_column")
    tokens = [t for t in re.split(r"[,\s]+", opts.get("alphas")) if t]
    if not tokens:
        raise ValidationError("no alpha values to sweep")
    scope = _parse_scope(opts.get("scope"))
    rules = [BinarizationRule(_parse_alpha(token), scope) for token in tokens]
    config = opts.build(TrainConfig)
    fit = opts.build(OffsetFitConfig)
    split_spec = opts.build(SplitSpec)
    opts.refuse_unread()
    ds = load_csv(args.input, label_column)
    normalized = normalize_rows(ds.features)
    class_ids = ds.class_ids()

    results = []
    for token, rule in zip(tokens, rules):
        binary, _ = binarize_dataset(normalized, ds.labels, rule)
        binary_ds = LabeledDataset(binary, ds.labels, ds.feature_names)
        train_ds, test_ds = split(binary_ds, split_spec)
        ensemble = train_ensemble(train_ds.class_matrices(), config, fit)
        predictions = predict_label_batch(test_ds.features, ensemble)
        report = evaluate(predictions, test_ds.labels)
        recalls = [
            report.recall_for(c) if c in report.classes else float("nan") for c in class_ids
        ]
        results.append((token, report.accuracy, recalls))

    table = _format_sweep_table(class_ids, results)
    print(table)
    if not args.out:
        return None
    Path(args.out).write_text(table + "\n", encoding="utf-8")
    return [("dataset", args.input)], [("table", args.out)], ()


def _format_sweep_table(class_ids, results):
    headers = ["alpha", "accuracy"] + [f"recall[{c}]" for c in class_ids]
    body = []
    for token, accuracy, recalls in results:
        cells = [token, f"{accuracy:.6f}"]
        cells.extend("undefined" if np.isnan(r) else f"{r:.6f}" for r in recalls)
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file supplying option values (flags win)")
    labeled = argparse.ArgumentParser(add_help=False, parents=[common])
    labeled.add_argument("--label-column", dest="label_column",
                         help=f"name of the label column (default {_CLI_DEFAULTS['label_column']})")

    synth = sub.add_parser("synth", parents=[common],
                           help="generate a synthetic labeled binary dataset")
    synth.add_argument("--out", required=True, help="output CSV path")
    _add_dataclass_options(synth, SynthSpec)
    synth.set_defaults(func=_cmd_synth)

    pre = sub.add_parser("preprocess", parents=[labeled],
                         help="l2-normalize rows and binarize features")
    pre.add_argument("input", help="labeled CSV of raw features")
    pre.add_argument("--out", required=True, help="output CSV path")
    pre.add_argument("--alpha", help="threshold fraction in (0, 1), decimal or a/b "
                                     f"(default {_CLI_DEFAULTS['alpha']})")
    pre.add_argument("--scope", choices=sorted(_SCOPE_CHOICES),
                     help="matrix the min/max statistics are taken over "
                          f"(default {_CLI_DEFAULTS['scope']})")
    pre.add_argument("--sidecar", help="where to write the statistics sidecar "
                                       "(default <out>.sidecar)")
    pre.add_argument("--reuse-stats", dest="reuse_stats",
                     help="binarize with pooled statistics from an existing sidecar "
                          "instead of computing new ones (test-time mode)")
    pre.set_defaults(func=_cmd_preprocess)

    train = sub.add_parser("train", parents=[labeled],
                           help="train one RBM per class plus soft-max offsets")
    train.add_argument("input", help="labeled CSV of binarized features")
    train.add_argument("--out", required=True, help="output model path")
    _add_dataclass_options(train, TrainConfig, OffsetFitConfig)
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("evaluate", parents=[labeled],
                        help="evaluate a trained ensemble on labeled binary data")
    ev.add_argument("model", help="RBME1 model file from `train`")
    ev.add_argument("test", help="labeled CSV of binarized test features")
    ev.add_argument("--out", help="also write a machine-readable report here")
    ev.set_defaults(func=_cmd_evaluate)

    sweep = sub.add_parser("sweep-alpha", parents=[labeled],
                           help="binarize, split, train, evaluate across alpha values")
    sweep.add_argument("input", help="labeled CSV of raw features")
    sweep.add_argument("--alphas", help="comma/space separated threshold fractions "
                                        f"(default {_CLI_DEFAULTS['alphas']})")
    sweep.add_argument("--scope", choices=sorted(_SCOPE_CHOICES),
                       help=f"binarization statistics scope (default {_CLI_DEFAULTS['scope']})")
    sweep.add_argument("--out", help="also write the result table here")
    _add_dataclass_options(sweep, SplitSpec, TrainConfig, OffsetFitConfig)
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
        record = args.func(args, opts)
        if record is not None:
            _write_manifest(args.command, argv, opts.effective, *record)
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
