"""Command-line driver for the full pipeline.

Subcommands:

* ``synth``       generate a synthetic labeled binary dataset
* ``preprocess``  normalize rows and binarize against a threshold fraction
* ``train``       fit one RBM per class plus soft-max offsets
* ``evaluate``    score a trained ensemble on a labeled test CSV
* ``sweep-alpha`` split once, then run preprocess/train/evaluate across alpha values

Options come from flags only, each spelled in full, and the parser holds
every default and refuses --alpha with --reuse-stats. An output that names
the same file as an input or another output is refused. A command that
writes files names what it reads and writes before it reads any input, and
returns them with its effective configuration; ``main`` records that in
``<first output>.manifest`` with the exact command, so it first refuses an
argument that is not one line of UTF-8 text. Manifests carry a
timestamp; all data outputs themselves are byte-deterministic given the
same inputs and seeds.

Exit codes: 0 success, 2 usage or validation problems, 3 i/o failures,
4 convergence failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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

# Option keys that differ from their dataclass field's name.
_OPTION_KEYS = {
    SynthSpec: {"samples_per_class": "per_class"},
    SplitSpec: {"seed": "split_seed"},
    TrainConfig: {"hidden_units": "hidden"},
}

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


def _write_kv_file(path, pairs):
    """Write (key, value) pairs as key=value lines: a sidecar, a manifest or a report."""
    Path(path).write_text("".join(f"{key}={value}\n" for key, value in pairs), encoding="utf-8")


def _dataclass_options(cls):
    """(option key, field, field type) for every field of cls."""
    types = typing.get_type_hints(cls)
    keys = _OPTION_KEYS.get(cls, {})
    for f in dataclasses.fields(cls):
        yield keys.get(f.name, f.name), f, types[f.name]


def _add_dataclass_options(parser, *classes):
    for cls in classes:
        for key, f, kind in _dataclass_options(cls):
            parser.add_argument(f"--{key.replace('_', '-')}", type=kind, default=f.default,
                                help=f"{cls.__name__}.{f.name} (default %(default)r)")


def _build(args, cls):
    """The config dataclass cls from its options."""
    return cls(**{f.name: getattr(args, key) for key, f, _ in _dataclass_options(cls)})


def _config(args, *classes):
    """The manifest's config pairs of the options of classes."""
    return {key: getattr(args, key) for cls in classes for key, _, _ in _dataclass_options(cls)}


def _check_paths(inputs, outputs):
    """Before any input is read: no output names the same file (see _file_key) as an input,
    another output or the manifest beside the first output."""
    seen = {}
    for name, path in inputs:
        seen.setdefault(_file_key(path), f"{name} input {path}")
    written = [(f"{name} output", path) for name, path in outputs]
    for role, path in written + [("manifest", f"{path}.manifest") for _, path in outputs[:1]]:
        key = _file_key(path)
        if key in seen:
            raise ValidationError(f"the {role} {path} is the same file as the {seen[key]}")
        seen[key] = f"{role} {path}"


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


def _check_argv(argv):
    """Refuse a line break or a lone surrogate (bytes not UTF-8): no manifest line holds it."""
    for position, arg in enumerate(argv, start=1):
        if re.search("[\n\r\ud800-\udfff]", arg):
            raise ValidationError(f"argument {position} {arg!r} is not one line of UTF-8 text")


def _write_manifest(command, argv, config, inputs, outputs):
    """Write <first output>.manifest: the command, its effective config, every file's digest."""
    pairs = [
        ("manifest_version", 1),
        ("tool", f"spectral-rbm {__version__}"),
        ("command", command),
        ("argv", shlex.join(argv)),
        ("timestamp_utc", datetime.now(timezone.utc).isoformat()),
    ]
    pairs.extend((f"config.{key}", config[key]) for key in sorted(config))
    for name, path in inputs:
        pairs += [(f"input.{name}.path", path), (f"input.{name}.sha256", _sha256(path))]
    for name, path in outputs:
        pairs += [(f"output.{name}", path), (f"output.{name}.sha256", _sha256(path))]
    _write_kv_file(f"{outputs[0][1]}.manifest", pairs)


def _read_sidecar(path):
    """(rule, lo, hi) from a sidecar exactly as preprocess writes it: a key=value line for each
    of _SIDECAR_KEYS, in order, each ended by "\n", and no more; the version checked first,
    then each value as a float in range, then its spelling, which must be its repr."""
    try:
        lines = Path(path).read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    values, written = [], []
    for line_no, (key, line) in enumerate(zip((*_SIDECAR_KEYS, None), lines), start=1):
        ended = line_no < len(lines)  # the last of lines is the text after the last "\n"
        if key is None and not (ended or line):
            break
        match = key and ended and re.fullmatch(rf"{key}=(\S*)", line)
        if not match:
            got = (repr(line) if ended else f"{line!r} and no line break" if line
                   else "the end of the file")
            raise FormatError(f"{path}: line {line_no}: expected "
                              f"{f'{key}=...' if key else 'the end of the file'}, got {got}")
        if key == "sidecar_version":
            if match[1] != _SIDECAR_VERSION:
                raise FormatError(f"{path}: sidecar_version={match[1]} is not supported, "
                                  f"expected {_SIDECAR_VERSION}")
        else:
            try:
                values.append(float(match[1]))
            except ValueError:
                raise FormatError(f"{path}: {key}={match[1]!r} is not a valid float") from None
            written.append((line_no, line, f"{key}={values[-1]!r}"))
    alpha, lo, hi = values
    try:
        rule = BinarizationRule(alpha)
        check_real("min", lo)
        check_real("max", hi)
    except ValidationError as exc:
        raise FormatError(f"{path}: sidecar {exc}") from None
    if lo > hi:
        raise FormatError(f"{path}: sidecar min={lo!r} exceeds max={hi!r}")
    # preprocess writes each value as its repr; any other spelling was not written by it
    for line_no, line, expected in written:
        if line != expected:
            raise FormatError(f"{path}: line {line_no}: expected {expected}, got {line!r}")
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
# Each command takes the parsed arguments, calls _check_paths before it
# reads any input, and returns (inputs, outputs, config); main writes the
# manifest from that when there are outputs.


def _cmd_synth(args):
    spec = _build(args, SynthSpec)
    inputs, outputs = [], [("dataset", args.out)]
    _check_paths(inputs, outputs)
    ds = synth_generate(spec)
    save_csv(ds, args.out)
    print(f"wrote {ds.sample_count} rows x {ds.dim} features to {args.out}")
    return inputs, outputs, _config(args, SynthSpec)


def _cmd_preprocess(args):
    inputs, outputs = [("dataset", args.input)], [("dataset", args.out)]
    if args.reuse_stats:
        inputs.append(("sidecar", args.reuse_stats))
        _check_paths(inputs, outputs)
        rule, lo, hi = _read_sidecar(args.reuse_stats)
        config = {"alpha": rule.alpha, "min": lo, "max": hi}
    else:
        rule = BinarizationRule(_parse_alpha(args.alpha))
        sidecar_path = f"{args.out}.sidecar"
        outputs.append(("sidecar", sidecar_path))
        _check_paths(inputs, outputs)
        config = {"alpha": rule.alpha}

    ds = load_csv(args.input)
    labels, names = ds.labels, ds.feature_names
    normalized = _normalized(ds, args.input)
    del ds  # each matrix is freed once its successor exists
    if not args.reuse_stats:
        lo, hi = minmax(normalized)
    binary = binarize(normalized, rule, lo, hi)
    del normalized
    save_csv(LabeledDataset(binary, labels, names), args.out)

    if args.reuse_stats:
        print(f"binarized {labels.size} rows using stored statistics -> {args.out}")
    else:
        _write_kv_file(sidecar_path, zip(_SIDECAR_KEYS, (_SIDECAR_VERSION, rule.alpha, lo, hi)))
        print(f"binarized {labels.size} rows (alpha={rule.alpha:g}) -> {args.out}")
    return inputs, outputs, config


def _cmd_train(args):
    config = _build(args, TrainConfig)
    inputs, outputs = [("dataset", args.input)], [("model", args.out)]
    _check_paths(inputs, outputs)
    ds = load_csv(args.input)
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
    return inputs, outputs, _config(args, TrainConfig)


def _cmd_evaluate(args):
    inputs = [("model", args.model), ("dataset", args.test)]
    outputs = [("report", args.out)] if args.out else []
    _check_paths(inputs, outputs)
    ensemble = load_ensemble(args.model)
    ds = load_csv(args.test)
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
    return inputs, outputs, {}


def _cmd_sweep_alpha(args):
    tokens = [t for t in re.split(r"[,\s]+", args.alphas) if t]
    if not tokens:
        raise ValidationError("no alpha values to sweep")
    rules = [BinarizationRule(_parse_alpha(token)) for token in tokens]
    config = _build(args, TrainConfig)
    split_spec = _build(args, SplitSpec)
    inputs, outputs = [("dataset", args.input)], [("table", args.out)] if args.out else []
    _check_paths(inputs, outputs)
    ds = load_csv(args.input)
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
    return inputs, outputs, {"alphas": args.alphas, **_config(args, SplitSpec, TrainConfig)}


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
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)  # no option prefixes

    synth = add_parser("synth", help="generate a synthetic labeled binary dataset")
    synth.add_argument("--out", required=True, help="output CSV path")
    _add_dataclass_options(synth, SynthSpec)
    synth.set_defaults(func=_cmd_synth)

    pre = add_parser("preprocess", help="l2-normalize rows and binarize features")
    pre.add_argument("input", help="labeled CSV of raw features")
    pre.add_argument("--out", required=True, help="output CSV path; the sidecar goes to "
                                                  "<out>.sidecar")
    stats = pre.add_mutually_exclusive_group()
    stats.add_argument("--alpha", default="1/2",
                       help="threshold fraction in (0, 1), decimal or a/b (default %(default)s)")
    stats.add_argument("--reuse-stats",
                       help="binarize with the training min/max from an existing sidecar "
                            "instead of computing new ones (test-time mode)")
    pre.set_defaults(func=_cmd_preprocess)

    train = add_parser("train", help="train one RBM per class plus soft-max offsets")
    train.add_argument("input", help="labeled CSV of binarized features")
    train.add_argument("--out", required=True, help="output model path")
    _add_dataclass_options(train, TrainConfig)
    train.set_defaults(func=_cmd_train)

    ev = add_parser("evaluate", help="evaluate a trained ensemble on labeled binary data")
    ev.add_argument("model", help="RBME1 model file from `train`")
    ev.add_argument("test", help="labeled CSV of binarized test features")
    ev.add_argument("--out", help="also write a machine-readable report here")
    ev.set_defaults(func=_cmd_evaluate)

    sweep = add_parser("sweep-alpha", help="split, binarize, train, evaluate across alpha values")
    sweep.add_argument("input", help="labeled CSV of raw features")
    sweep.add_argument("--alphas", default=",".join(DEFAULT_ALPHA_GRID),
                       help="comma/space separated threshold fractions (default %(default)s)")
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
        _check_argv(argv)
        inputs, outputs, config = args.func(args)
        if outputs:
            _write_manifest(args.command, argv, config, inputs, outputs)
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
