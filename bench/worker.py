"""One workload process: set-up, then whole rounds of timed operations.

    python3 worker.py --workload W --seed N --seconds S
                      [--setup-only] [--trace-file FILE]

The process imports deflator, builds the workload's inputs from the seed
and prints "ready".  With --setup-only it stops there; run.py times
several such processes from their start to that line.  Otherwise it runs
rounds of the workload's operations, timing each call into the program
and checking its output after the clock stops.  It starts a further
round only while that round should still end within S seconds, so the
first round always runs whole.  Its last line is one JSON object.

With --trace-file it wraps the package's public functions first (or, for
cli_calls, runs each CLI call under cli_child.py) and reports per-layer
totals per operation instead of timings; spans go to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
MAX_REPORTED_ERRORS = 5
KERNEL_EVERY_S = 0.25       # operation time between two runs of the reference kernel
SETUP_KERNEL_RUNS = 3       # kernel runs that gauge the speed of a set-up


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    t0 = perf_counter()
    import deflator
    import_s = perf_counter() - t0

    import workloads
    from calibration import reference_kernel, scale_all
    root = BENCH.parent
    cli = args.workload == "cli_calls"
    tracer = None
    child_spans = BENCH / "out" / f"child-spans-{os.getpid()}.json"
    kwargs = {}
    if args.trace_file:
        import tracing
        tracer = tracing.Tracer()
        if cli:
            kwargs["child_trace"] = lambda argv: [
                sys.executable, str(BENCH / "cli_child.py"), str(child_spans), *argv]
    workload = workloads.WORKLOADS[args.workload](args.seed, root, **kwargs)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps([reference_kernel() for _ in range(SETUP_KERNEL_RUNS)]))
        return 0

    if tracer is not None and not cli:
        tracer.install(deflator)
    child_import_s = []
    op_seconds = []            # [kind, seconds, ok] per operation
    failed, correct = 0, True
    faults, errors = Counter(), []
    start = perf_counter()
    rounds = 0
    # The kernel gauges the speed of this process.  A CLI call runs in a
    # child process whose speed it did not track, so cli_calls times are
    # left unscaled.
    scaled_ops = not cli
    kernel = [[perf_counter(), reference_kernel()]]     # [time, seconds]
    spans = []                 # [start, end] of each operation
    since_kernel = 0.0
    while True:
        round_start = perf_counter()
        for op in workload.ops:
            op_id = len(op_seconds)
            if tracer is not None:
                tracer.op_id = op_id
            t = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a program error fails the operation
                result, error = None, exc
            seconds = perf_counter() - t
            spans.append([t, t + seconds])
            if tracer is not None:
                tracer.op_id = -1
                if cli and child_spans.exists():
                    child = json.loads(child_spans.read_text())
                    child_spans.unlink()
                    child_import_s.append(child["import_s"])
                    tracer.add(child["spans"], child["counts"], op_id)
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:  # any failed check fails the operation
                    error = exc
            op_seconds.append([op.kind, seconds, error is None])
            since_kernel += seconds
            if scaled_ops and since_kernel >= KERNEL_EVERY_S:
                kernel.append([perf_counter(), reference_kernel()])
                since_kernel = 0.0
            if error is None:
                continue
            failed += 1
            if op.fault is not None:
                faults[op.fault] += 1
                continue
            correct = False
            if len(errors) < MAX_REPORTED_ERRORS:
                errors.append(f"{op.kind}: {type(error).__name__}: {error}")
        rounds += 1
        round_seconds = perf_counter() - round_start
        if perf_counter() - start + round_seconds > args.seconds:
            break

    kernel.append([perf_counter(), reference_kernel()])
    scaled = (scale_all([(a, b, s) for (a, b), (_, s, _) in zip(spans, op_seconds)], kernel)
              if scaled_ops else [s for _, s, _ in op_seconds])
    for message in errors:
        print(f"bench: unexpected failure: {message}", file=sys.stderr)
    for fault, n in sorted(faults.items()):
        print(f"bench: {n} operations failed on the known fault {fault}", file=sys.stderr)
    ok = [s for s, (_, _, good) in zip(scaled, op_seconds) if good]
    if not ok:
        print("bench: no operation completed correctly", file=sys.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    report = {"attempted": len(op_seconds), "failed": failed, "correct": correct,
              "rounds": rounds, "faults": dict(faults), "op_seconds": op_seconds,
              "ops_per_s": len(ok) / sum(scaled),
              "op_median_s": statistics.median(ok),
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "import_s": import_s, "kernel_s": kernel, "scaled_seconds": scaled}
    if tracer is not None:
        layers = tracer.layer_metrics(len(op_seconds))
        layers["cli.import_s"] = (sum(child_import_s) / len(child_import_s)
                                  if cli else import_s)
        report["layers"] = layers
        tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                      "ops": op_seconds, "layers": layers})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
