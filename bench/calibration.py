"""A fixed reference computation that gauges the machine's speed.

The machine the benchmark runs on is shared, and its speed drifts: on a
2-core virtual machine the same work took up to twice as long in some
stretches of a few seconds as in others, and a run of the benchmark sat
in one stretch or another.  Over 3 minutes, the medians of 2.4-second
blocks of this kernel and of `find_tree_deflator` or `levy_put` timed
in the same blocks had log-correlations of 0.92 to 0.97.  So a process
that does the timed work also times the kernel, and the benchmark scales
each time by REFERENCE_S over the kernel's median time within WINDOW_S
of it: seconds on a machine that runs the kernel in REFERENCE_S.  The
kernel never calls the program, so a change to the program moves the
scaled times as it moves the raw ones; the raw times are kept in each
run's record.
"""

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.018     # the kernel's median time on the 2-core reference machine
WINDOW_S = 1.0          # kernel times this close to an operation gauge its speed

_A = np.linspace(0.0, 1.0, 10000).reshape(200, 50)
_Z = 1j * np.linspace(0.1, 1.0, 8)


def reference_kernel() -> float:
    """Seconds taken by fixed work like the program's own: many numpy
    calls on tiny arrays, small least-squares solves and a Python loop."""
    t = perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float(np.exp(_Z * i).imag.sum())
    for _ in range(10):
        np.linalg.lstsq(_A, _A[:, 0], rcond=None)
    for i in range(30000):
        acc += i * i
    return perf_counter() - t


def scale(seconds: float, kernel_seconds) -> float:
    """seconds at reference speed, given kernel times taken around them."""
    return seconds * REFERENCE_S / statistics.median(kernel_seconds)


def scale_all(spans, kernel, margin=WINDOW_S) -> list[float]:
    """Scale each operation, given as (start, end, seconds), by the median
    of the kernel times, given as (time taken, seconds), from margin
    before it starts to margin after it ends."""
    out = []
    for start, end, seconds in spans:
        near = ([s for t, s in kernel if start - margin <= t <= end + margin]
                or [min(kernel, key=lambda k: abs(k[0] - end))[1]])
        out.append(scale(seconds, near))
    return out
