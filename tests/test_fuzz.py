"""Seeded fuzz of every CLI input format through cli.main.

Each case mutates one input of a working run (raw CSV, binary CSV, sidecar
or model) with one byte edit and runs the command that reads it. A run
exits 0 or 2; a refusal prints one `error: ` line with no traceback and
leaves its output directory empty, since each of these commands reads and
checks all of its input before its first write; a model the reader refuses
is refused naming the model file; and a sidecar that is accepted holds the
same four keys as the original, so only a changed value gets through. The
acceptance counts are printed per format, with no bound: a silent
acceptance is a gap, not a fault. Each format draws its mutations from its
own fixed seed tag, so adding or removing a format leaves the others'
cases as they were.
"""

import re

import numpy as np
import pytest

from spectral_rbm import cli
from spectral_rbm.classifier import ensemble_from_bytes
from spectral_rbm.dataset import LabeledDataset, save_csv
from spectral_rbm.errors import ValidationError

CASES = 60  # per format, seeds 0-59
TRAIN = ("--hidden", "2", "--epochs", "1", "--seed", "0")

# format -> (seed tag, the input it mutates, the command that reads it); {input} is the
# mutated file, {out} an empty output directory and {base} the directory of working inputs
FORMATS = {
    "raw csv": (0, "raw.csv", ("preprocess", "{input}", "--out", "{out}/bin.csv")),
    "binary csv": (1, "bin.csv", ("train", "{input}", "--out", "{out}/m.rbme", *TRAIN)),
    "sidecar": (2, "bin.csv.sidecar", ("preprocess", "{base}/raw.csv", "--out", "{out}/bin.csv",
                                     "--reuse-stats", "{input}")),
    "model": (4, "model.rbme", ("evaluate", "{input}", "{base}/bin.csv", "--out",
                                "{out}/report")),
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """One working input of each format."""
    base = tmp_path_factory.mktemp("base")
    rng = np.random.default_rng(0)
    labels = np.arange(24, dtype=np.int64) % 2
    features = (rng.random((24, 5)) + 0.1) * (1.0 + labels[:, None])
    save_csv(LabeledDataset(features, labels, tuple(f"w{i}" for i in range(5))), base / "raw.csv")
    assert cli.main(["preprocess", str(base / "raw.csv"), "--out", str(base / "bin.csv")]) == 0
    assert cli.main(["train", str(base / "bin.csv"), "--out", str(base / "model.rbme"),
                     *TRAIN]) == 0
    return base


def mutate(blob, rng):
    """blob after one edit: a byte XOR, an inserted byte, a deleted run or a cut."""
    blob = bytearray(blob)
    at = int(rng.integers(0, len(blob)))
    edit = int(rng.integers(0, 4))
    if edit == 0:
        blob[at] ^= int(rng.integers(1, 256))
    elif edit == 1:
        blob.insert(at, int(rng.integers(0, 256)))
    elif edit == 2:
        del blob[at:at + int(rng.integers(1, 9))]
    else:
        del blob[at:]
    return bytes(blob)


@pytest.mark.parametrize("kind", FORMATS)
def test_mutated_inputs_exit_0_or_2_with_one_error_line(tmp_path, capsys, base, kind):
    tag, name, command = FORMATS[kind]
    accepted = 0
    for seed in range(CASES):
        case = tmp_path / str(seed)
        (case / "out").mkdir(parents=True)
        rng = np.random.default_rng([tag, seed])
        blob = mutate((base / name).read_bytes(), rng)
        (case / name).write_bytes(blob)
        argv = [arg.format(input=case / name, out=case / "out", base=base) for arg in command]
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        where = f"{kind} case {seed}: exit {code}, stderr {err!r}"
        assert code in (0, 2), where
        if code == 0:
            accepted += 1
            if kind == "sidecar":
                keys = list(cli._read_kv_file(case / name))
                assert keys == list(cli._read_kv_file(base / name)), where
            continue
        assert re.fullmatch(r"error: [^\n]*\n", err), where
        assert list((case / "out").iterdir()) == [], where
        if kind == "model":
            try:
                ensemble_from_bytes(blob)
            except ValidationError:
                assert err.startswith(f"error: {case / name}: "), where
    print(f"{kind}: {accepted} of {CASES} mutated inputs accepted")
