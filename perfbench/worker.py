"""One benchmark worker: set up a workload, time runs of it, report as JSON.

run.py starts this script with the checkout's ``src`` directory as
PYTHONPATH and the BLAS thread settings in the environment. Set-up is
everything between the parent starting the process (``--t0``, a
``time.time()`` reading) and the first timed run: interpreter start-up,
the package import, input generation and one warm-up run at small size.
Timed runs repeat for about ``--budget`` seconds, at least once; each
untraced one follows a timed run of ``workloads.reference_kernel``.
With ``--trace 1`` untraced and traced runs alternate. The result goes to
``--out`` as one JSON object; stdout is left to the package.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer


def import_package(src):
    """Import spectral_rbm and check it comes from ``src``, not elsewhere."""
    import spectral_rbm
    import spectral_rbm.cli  # noqa: F401  (binds pkg.cli)

    location = Path(spectral_rbm.__file__).resolve()
    if Path(src).resolve() not in location.parents:
        raise SystemExit(f"spectral_rbm imported from {location}, not from {src}")
    return spectral_rbm


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


def cpu_time():
    """User + system CPU seconds of this process and its waited-for children."""
    me, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + children.ru_utime + children.ru_stime


def timed_run(workload, pkg, tracer):
    """One run: returns its record, and the layer metrics when traced.

    An untraced run is preceded by a timed run of the reference kernel.
    """
    record = {"traced": tracer is not None}
    if tracer is None:
        wall0, cpu0 = time.perf_counter(), cpu_time()
        workloads.reference_kernel()
        record.update(ref_wall_s=time.perf_counter() - wall0, ref_cpu_s=cpu_time() - cpu0)
    workload.clear()
    if tracer is not None:
        tracer.install()
    error = None
    wall0, cpu0 = time.perf_counter(), cpu_time()
    try:
        result = workload.run_once(pkg)
    except Exception:  # a failing run is counted, not fatal
        error = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - wall0, cpu_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    record.update(wall_s=wall, cpu_s=cpu, accuracy=0.0, problems=[], digests={})
    if error is None:
        try:
            record["accuracy"], record["problems"] = workload.check(pkg, result)
            outputs = workload.outputs(pkg, result)
            record["digests"] = {k: workloads.sha256_bytes(v) for k, v in outputs.items()}
        except Exception:  # unreadable outputs are a failed run too
            error = traceback.format_exc(limit=3)
    if error is not None:
        record["problems"].append(error)
        return record, None
    return record, tracer.layer_metrics() if tracer is not None else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true", help="small inputs, for the self-tests")
    ap.add_argument("--src", required=True, help="directory the package must be imported from")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the last traced run's spans here")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    pkg = import_package(args.src)
    workdir = Path(args.workdir)
    workload = workloads.make(args.workload, args.seed, workdir / "inputs", args.small)
    workload.prepare(pkg)
    warm = workloads.make(args.workload, args.seed, workdir / "warmup", small=True)
    warm.prepare(pkg)
    warm.run_once(pkg)
    setup_s = time.time() - args.t0

    tracer = Tracer(pkg) if args.trace else None
    modes = (None, tracer) if tracer is not None else (None,)
    runs, layers = [], []
    deadline = time.perf_counter() + args.budget
    while True:
        for mode in modes:
            record, metrics = timed_run(workload, pkg, mode)
            runs.append(record)
            if metrics is not None:
                layers.append(metrics)
        # stop when another round would end nearer past the deadline than before it
        left = deadline - time.perf_counter()
        if left < 0.5 * sum(r["wall_s"] for r in runs[-len(modes):]) or any(r["problems"] for r in runs):
            break
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "inputs": workload.inputs,
        "runs": runs,
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
