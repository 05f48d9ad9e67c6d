"""Statistics the benchmark reports: percentiles, spreads, the spin diagnostic.

Everything here is pure Python over plain lists, so the harness's own tests
exercise it without running a workload.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time

#: A percentile is reported only when at least this many samples lie beyond
#: it: p50 needs 20 samples, p95 needs 200.
MIN_SAMPLES_BEYOND = 10


def min_samples_for(q: float) -> int:
    """Smallest sample count with ``MIN_SAMPLES_BEYOND`` samples above quantile ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return math.ceil(MIN_SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def percentile(samples: "list[float]", q: float) -> "float | None":
    """The ``q`` quantile of ``samples`` (linear interpolation), or ``None``.

    ``None`` means the sample is too small for the quantile to mean anything:
    fewer than :data:`MIN_SAMPLES_BEYOND` samples would lie beyond it.
    """
    n = len(samples)
    if n < min_samples_for(q):
        return None
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartile_spread(values: "list[float]") -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def spin_seconds(iterations: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop.

    A diagnostic only: recorded before and after each run so that a report
    shows when the machine was in one of its slow periods.  It never scales
    or gates a measured figure.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop from being dead code
        raise AssertionError
    return elapsed


def environment(repro_version: str) -> dict:
    """The facts a reader needs to compare two reports."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro_version,
        "machine": platform.machine(),
    }
