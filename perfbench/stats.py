"""Order statistics and span arithmetic shared by the runner and compare."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples beyond it


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest integer percentile with TAIL_BEYOND samples beyond it.

    Percentiles are nearest-rank: the p-th is the sample of rank
    ceil(p * n / 100).  Returns (value, percentile, sample count).
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none below the {TAIL_BEYOND}-sample tail")
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(p * n / 100))
    return sorted(samples)[rank - 1], p, n


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Sum of self time per span name.

    Each span is (name, start, end, parent index or -1).  A span's self time
    is its duration minus the durations of its direct children; spans of
    one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start - inner)
    return out
