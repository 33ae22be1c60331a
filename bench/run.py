"""Benchmark of the deflator package: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--blas-threads 1|default]

Workloads (see README.md): cli_calls, one_period_detect, tree_search,
levy_inversion.  Run from the repository root; the package is imported
from ./src, nothing is installed.

Untraced (--trace 0), the run starts SETUP_SAMPLES fresh worker
processes; each imports deflator, builds the inputs from the seed and
says "ready", and set-up time is measured from its start until then,
scaled by the reference kernel it runs next (calibration.py).  One more
worker then runs the timed rounds.  The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with setup_s, ops_per_s, op_median_s and peak_rss_mb.  Traced
(--trace 1), one worker runs with its layers wrapped and the metrics are
the per-layer totals per operation.  Details of every run go to
bench/out/.  Every process runs with one BLAS thread unless
--blas-threads default leaves the thread count unset.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import scale
from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cli_calls", "one_period_detect", "tree_search", "levy_inversion")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3           # set-up-only processes, besides the one that runs
PYTHON_START_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


class RunFailed(Exception):
    pass


def worker_env(blas_threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        if blas_threads == "default":
            env.pop(var, None)
        else:
            env[var] = blas_threads
    return env


def start_worker(cmd, env, deadline):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunFailed(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline) -> str:
    """Wait for proc to end and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker ran out of time") from None
    return out


def python_start_s(env) -> float:
    """Median wall time of `python -c pass`: the floor of every process."""
    samples = []
    for _ in range(PYTHON_START_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def run(args) -> dict:
    env = worker_env(args.blas_threads)
    deadline = perf_counter() + WORKER_TIMEOUT_S
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    name = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": args.blas_threads,
              "cpus": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}
    setup = []                  # [seconds to ready, the worker's kernel seconds]
    if args.trace:
        start = python_start_s(env)
        cmd += ["--trace-file", str(OUT / f"trace-{name}.json.gz")]
    else:
        for _ in range(SETUP_SAMPLES):
            proc, ready = start_worker(cmd + ["--setup-only"], env, deadline)
            kernel = finish(proc, deadline).strip().splitlines()
            if proc.returncode != 0 or not kernel:
                raise RunFailed(f"set-up worker exited with {proc.returncode}")
            setup.append([ready, json.loads(kernel[-1])])
    proc, _ = start_worker(cmd, env, deadline)
    lines = finish(proc, deadline).strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}")
    report = json.loads(lines[-1])
    if args.trace:
        layers = {"cli.python_start_s": start, **report["layers"]}
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
    else:
        setup_s = statistics.median(scale(ready, kernel) for ready, kernel in setup)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
                   "op_median_s": {"value": report["op_median_s"], "unit": "s"},
                   "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"}}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    record.update(result=result, setup_samples=setup, worker=report)
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1")
    args = parser.parse_args()
    missing = [p for p in ("src/deflator/__init__.py", "tests/fixtures")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: the checkout has no {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
