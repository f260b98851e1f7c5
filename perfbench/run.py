"""Benchmark of the spectral_rbm package: one workload per invocation.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 36 --trace 0

Runs from the root of a checkout and measures the package in ``src/``
from outside. Set-up happens in WORKERS fresh processes, one after the
other, each of which generates the inputs from ``--seed``, warms up and
then times closed-loop runs for its share of ``--seconds``. Every run's
outputs are checked and must be byte-identical across all runs.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The full record, environment
and output digests included, goes to ``.perfbench_out/``. ``--small``
shrinks every input and runs once; the self-tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKERS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
# One BLAS thread for the benchmark's own processes: closed loop, one client.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {
    "setup_s": "s", "wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB", "accuracy": "ratio",
}


def git_commit(root):
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workers(args, run_dir, deadline):
    """Start the workers one after the other; returns their result records."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    count = 1 if args.small else WORKERS
    budget = 0.0 if args.small else args.seconds / count
    results = []
    for i in range(count):
        out = run_dir / f"worker{i}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--budget", repr(budget),
            "--trace", str(args.trace), "--src", str(SRC), "--workdir", str(run_dir / f"work{i}"),
            "--out", str(out), "--spans", str(run_dir / f"spans{i}.json"),
            "--t0", repr(time.time()),
        ] + (["--small"] if args.small else [])
        # worker stdout (package prints) goes to our stderr, keeping stdout for the result
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {i} exited with code {proc.returncode}")
        results.append(json.loads(out.read_text(encoding="utf-8")))
    return results


def summarize(results):
    """Checks across all runs of a call, and the metrics it prints."""
    runs = [run for w in results for run in w["runs"]]
    reference = runs[0]["digests"]
    failures = []
    for i, run in enumerate(runs):
        problems = list(run["problems"])
        if not run["digests"]:
            problems.append("no outputs")
        elif run["digests"] != reference:
            changed = sorted(k for k in set(reference) | set(run["digests"])
                             if reference.get(k) != run["digests"].get(k))
            problems.append(f"output bytes differ from run 0: {changed}")
        if problems:
            failures.append({"run": i, "traced": run["traced"], "problems": problems})
    input_sets = {json.dumps(w["inputs"], sort_keys=True) for w in results}
    inputs_agree = len(input_sets) == 1

    untraced = [r for r in runs if not r["traced"]]
    seconds = {key: statistics.median(r[key] for r in untraced)
               for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}
    # The host's speed drifts by tens of percent over minutes, so each run is
    # measured against the reference kernel timed just before it, which
    # drifts alike.
    end_to_end = {
        "setup_s": statistics.median(w["setup_s"] for w in results),
        "wall_rel": statistics.median(r["wall_s"] / r["ref_wall_s"] for r in untraced),
        "cpu_rel": statistics.median(r["cpu_s"] / r["ref_cpu_s"] for r in untraced),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in results),
        "accuracy": statistics.median(r["accuracy"] for r in runs),
    }
    layers = [m for w in results for m in w["layers"]]
    per_layer = {}
    if layers:
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        traced_wall = statistics.median(r["wall_s"] for r in runs if r["traced"])
        per_layer["trace.overhead_ratio"] = traced_wall / seconds["wall_s"] - 1.0
    return {
        "correct": not failures and inputs_agree,
        "attempted": len(runs),
        "failed": len(failures) if inputs_agree else len(runs),
        "failures": failures,
        "inputs_agree": inputs_agree,
        "end_to_end": end_to_end,
        "median_s": seconds,
        "per_layer": per_layer,
        "output_sha256": reference,
        "runs": runs,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="spectral_rbm benchmark (one workload per call)")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time of this call")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate traced and untraced runs and report per-layer metrics")
    ap.add_argument("--small", action="store_true", help="small inputs, one run per mode")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "spectral_rbm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'spectral_rbm'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        results = run_workers(args, run_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(results)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "environment": {
            **results[0]["environment"],
            "threads": THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(ROOT),
            "workers": len(results),
        },
        "inputs_sha256": results[0]["inputs"],
        "setup_s_per_worker": [w["setup_s"] for w in results],
        "peak_rss_mb_per_worker": [w["peak_rss_mb"] for w in results],
        "error_rate": summary["failed"] / summary["attempted"],
        **summary,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        # a call whose traced runs all failed still names every metric, at 0
        metrics = {name: {"value": summary["per_layer"].get(name, 0.0), "unit": tracer.unit(name)}
                   for name in tracer.metric_names()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in summary["end_to_end"].items()}
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
