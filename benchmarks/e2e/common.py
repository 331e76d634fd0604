"""Helpers shared by the end-to-end benchmark's run, checks and compare."""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("interactive-short", "bulk-long", "zipf-cached", "rush-hour")


def load_declaration() -> dict:
    """``BENCHMARK.json``: the declared workloads and metrics."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

