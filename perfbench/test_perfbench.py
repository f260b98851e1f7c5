"""Self-tests of the benchmark: python3 -m pytest perfbench -q

Every workload runs once at small size, traced and untraced, and must
name exactly the metrics BENCHMARK.json lists. The byte-identity check
must flag a corrupted output, and the report checks a corrupted report.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == tracer.unit(metric["name"])
        assert metric["better"] == tracer.better(metric["name"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_small_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # traced mode runs untraced and traced once each; both must write the same bytes
    assert result["attempted"] == 1 + trace
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train-ref", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Two worker-style results of one small cli-spectra run each."""
    pkg = worker.import_package(ROOT / "src")
    load = workloads.make("cli-spectra", 5, tmp_path_factory.mktemp("cli"), small=True)
    load.prepare(pkg)
    results = []
    for _ in range(2):
        record, _ = worker.timed_run(load, pkg, None)
        results.append({"setup_s": 1.0, "peak_rss_mb": 1.0, "inputs": load.inputs,
                        "runs": [record], "layers": []})
    return pkg, load, results


def test_identical_runs_pass(cli_runs):
    _, _, results = cli_runs
    summary = run.summarize(results)
    assert summary["correct"] and summary["failed"] == 0


def test_run_times_are_reported_over_the_reference_run_before_them(cli_runs):
    _, _, results = cli_runs
    runs = json.loads(json.dumps(results))
    # the host slowed down 2x for the second run: the relative time stays put
    for run_record, scale in zip((w["runs"][0] for w in runs), (1.0, 2.0)):
        run_record.update(wall_s=3.0 * scale, ref_wall_s=0.5 * scale, cpu_s=2.0 * scale, ref_cpu_s=0.5 * scale)
    end_to_end = run.summarize(runs)["end_to_end"]
    assert end_to_end["wall_rel"] == pytest.approx(6.0) and end_to_end["cpu_rel"] == pytest.approx(4.0)


@pytest.mark.parametrize("output", workloads.CliSpectra.OUTPUTS)
def test_one_corrupted_output_byte_fails(cli_runs, output):
    _, load, results = cli_runs
    data = bytearray(load.outputs(None, None)[output])
    data[len(data) // 2] ^= 0x01
    corrupted = json.loads(json.dumps(results))
    corrupted[1]["runs"][0]["digests"][output] = workloads.sha256_bytes(bytes(data))
    summary = run.summarize(corrupted)
    assert not summary["correct"] and summary["failed"] == 1
    assert output in summary["failures"][0]["problems"][0]


def test_corrupted_report_fails_the_run_check(cli_runs):
    pkg, load, _ = cli_runs
    report = load.run_dir() / "report.txt"
    original = report.read_bytes()
    try:
        report.write_bytes(original.replace(b"confusion.0.0=", b"confusion.0.0=9", 1))
        _, problems = load.check(pkg, [0, 0, 0, 0])
        assert problems
    finally:
        report.write_bytes(original)


def test_tracer_restores_the_package():
    pkg = worker.import_package(ROOT / "src")
    originals = {name: getattr(pkg.rbm, name) for name in ("cd1", "train_rbm")}
    uniforms = vars(pkg.markov.SeededRng)["uniforms"]
    main = pkg.cli.main
    t = tracer.Tracer(pkg)
    t.install()
    assert pkg.rbm.cd1 is not originals["cd1"] and pkg.classifier.train_rbm is not originals["train_rbm"]
    t.uninstall()
    assert all(getattr(pkg.rbm, name) is fn for name, fn in originals.items())
    assert pkg.classifier.train_rbm is originals["train_rbm"]
    assert vars(pkg.markov.SeededRng)["uniforms"] is uniforms and pkg.cli.main is main
