"""Medians and quartiles over benchmark runs.

    python3 bench/summarize.py [RESULT_FILE ...]

Reads the run records run.py leaves in bench/out/ (all untraced ones by
default) and prints, per workload: the number of runs, every end-to-end
metric's median, quartiles and spread (quartile distance over median),
the share of failed operations, and the median scaled seconds of each
kind of operation over all runs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main(paths) -> int:
    records = [json.loads(Path(p).read_text()) for p in
               (paths or sorted(OUT.glob("result-*-trace0.json")))]
    by_workload = defaultdict(list)
    for record in records:
        by_workload[record["workload"]].append(record)
    for workload, runs in sorted(by_workload.items()):
        print(f"{workload}: {len(runs)} runs, seeds "
              f"{sorted(r['seed'] for r in runs)}")
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            print(f"  {metric:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.3f}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"  failed share {sorted(shares)}")
        kinds = defaultdict(list)
        for r in runs:
            w = r["worker"]
            for (kind, _, ok), seconds in zip(w["op_seconds"], w["scaled_seconds"]):
                if ok:
                    kinds[kind].append(seconds)
        for kind, seconds in sorted(kinds.items()):
            print(f"  op {kind:26s} n {len(seconds):5d}  median {statistics.median(seconds):.4g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
