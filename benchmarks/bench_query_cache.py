"""Skyline-cache speedup on a Zipf-skewed repeated-pair workload.

Road-network query logs are heavily skewed: a few (s, t) pairs (popular
origin/destination zones) dominate the traffic.  This benchmark draws a
workload whose pair frequencies follow a Zipf law, runs it through the
plain QHL engine and through :class:`~repro.perf.cached_engine.
CachedQHLEngine`, and compares *median* per-query latency — the regime
the cache is built for, where most queries hit a cached frontier and
answer by binary search.

Acceptance target: the cached median is at least **5x** faster.  The
numbers land in ``BENCH_query_cache.json`` at the repo root (and in
``benchmarks/results/query_cache.txt``), so the claim is recorded, not
just asserted.

The same workload also runs through :class:`~repro.core.flat.
FlatQHLEngine` over packed columns — answers are asserted bit-identical
first — and the flat-vs-object per-query latencies are recorded under
the ``flat_vs_object`` key.

Runnable standalone (``python benchmarks/bench_query_cache.py``) or via
pytest; knobs: ``REPRO_BENCH_CACHE_QUERIES`` (default 4000) and
``REPRO_BENCH_CACHE_PAIRS`` (default 64 distinct pairs).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

from benchmarks.conftest import record_rows
from repro.baselines import skyline_between
from repro.core import QHLIndex
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex
from repro.types import CSPQuery

NUM_QUERIES = int(os.environ.get("REPRO_BENCH_CACHE_QUERIES", "4000"))
NUM_PAIRS = int(os.environ.get("REPRO_BENCH_CACHE_PAIRS", "64"))
ZIPF_ALPHA = 1.2
TARGET_SPEEDUP = 5.0

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_JSON = os.path.join(REPO_ROOT, "BENCH_query_cache.json")


def zipf_workload(
    network, num_pairs: int, num_queries: int, seed: int
) -> list[CSPQuery]:
    """A seed-pinned workload with Zipf-distributed pair popularity.

    Pair ranked ``k`` is drawn with probability proportional to
    ``1 / (k + 1) ** ZIPF_ALPHA``.  Budgets are uniform over each
    pair's true cost range (from its skyline frontier) stretched 1.5x,
    so the workload mixes infeasible, tight, and loose constraints.
    """
    rng = random.Random(seed)
    n = network.num_vertices
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pairs) < num_pairs:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t or (s, t) in seen or (t, s) in seen:
            continue
        seen.add((s, t))
        pairs.append((s, t))
    ranges = []
    for s, t in pairs:
        costs = [entry[1] for entry in skyline_between(network, s, t)]
        ranges.append((min(costs), max(costs)))
    weights = [1.0 / (k + 1) ** ZIPF_ALPHA for k in range(num_pairs)]
    queries = []
    for _ in range(num_queries):
        k = rng.choices(range(num_pairs), weights=weights)[0]
        s, t = pairs[k]
        lo, hi = ranges[k]
        queries.append(CSPQuery(s, t, rng.uniform(lo * 0.9, hi * 1.5)))
    return queries


def timed_run(engine, queries) -> list[float]:
    """Per-query wall-clock latencies, in seconds."""
    latencies = []
    for s, t, c in queries:
        started = time.perf_counter()
        engine.query(s, t, c)
        latencies.append(time.perf_counter() - started)
    return latencies


def run_benchmark() -> dict:
    dataset = load_dataset("NY", scale="benchmark")
    network = dataset.network
    index = QHLIndex.build(
        network, num_index_queries=400, store_paths=False, seed=11
    )
    queries = zipf_workload(network, NUM_PAIRS, NUM_QUERIES, seed=42)

    # The plain engine over object labels, which only the dynamic build
    # keeps (a built index serves from columns).
    uncached = DynamicQHLIndex.build(
        network, num_index_queries=400, store_paths=False, seed=11
    ).index.qhl_engine()
    cached = index.cached_engine(cache_size=NUM_PAIRS)
    flat = index.flat_engine()
    # Answers must agree before the timing means anything.
    for s, t, c in queries[:200]:
        lhs = uncached.query(s, t, c)
        rhs = cached.query(s, t, c)
        fla = flat.query(s, t, c)
        assert (lhs.feasible, lhs.weight, lhs.cost) == (
            rhs.feasible, rhs.weight, rhs.cost,
        ), (s, t, c)
        assert (lhs.feasible, lhs.weight, lhs.cost) == (
            fla.feasible, fla.weight, fla.cost,
        ), (s, t, c)
    cached.cache.clear()

    # Steady-state warm-up: one full untimed pass per timed engine, so
    # the comparison measures per-query latency, not one-time costs
    # (interpreter warm-up for both; the flat engine additionally
    # builds its lazy per-vertex hub dicts on first touch).  The cache
    # is cleared after, so the cached run still starts cold.
    timed_run(uncached, queries)
    timed_run(flat, queries)
    timed_run(cached, queries[:200])
    cached.cache.clear()
    uncached_lat = timed_run(uncached, queries)
    cached_lat = timed_run(cached, queries)
    flat_lat = timed_run(flat, queries)

    stats = cached.cache.stats()
    median_uncached = statistics.median(uncached_lat)
    median_cached = statistics.median(cached_lat)
    median_flat = statistics.median(flat_lat)
    speedup = median_uncached / median_cached
    result = {
        "benchmark": "query_cache_zipf",
        "dataset": "NY/benchmark",
        "num_queries": NUM_QUERIES,
        "num_pairs": NUM_PAIRS,
        "zipf_alpha": ZIPF_ALPHA,
        "cache_capacity": NUM_PAIRS,
        "median_uncached_us": round(median_uncached * 1e6, 3),
        "median_cached_us": round(median_cached * 1e6, 3),
        "mean_uncached_us": round(
            statistics.fmean(uncached_lat) * 1e6, 3
        ),
        "mean_cached_us": round(statistics.fmean(cached_lat) * 1e6, 3),
        "median_speedup": round(speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_hit_rate": round(stats.hit_rate, 4),
        # Flat-vs-object: the same workload through FlatQHLEngine over
        # packed columns (bit-identical answers, asserted above).
        "flat_vs_object": {
            "median_object_us": round(median_uncached * 1e6, 3),
            "median_flat_us": round(median_flat * 1e6, 3),
            "mean_object_us": round(
                statistics.fmean(uncached_lat) * 1e6, 3
            ),
            "mean_flat_us": round(statistics.fmean(flat_lat) * 1e6, 3),
            "median_speedup": round(median_uncached / median_flat, 2),
        },
    }
    with open(RESULT_JSON, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    record_rows(
        "query_cache.txt",
        f"{'engine':>10} {'median':>12} {'mean':>12}",
        [
            f"{'QHL':>10} {result['median_uncached_us']:>9.1f} us "
            f"{result['mean_uncached_us']:>9.1f} us",
            f"{'QHL-flat':>10} "
            f"{result['flat_vs_object']['median_flat_us']:>9.1f} us "
            f"{result['flat_vs_object']['mean_flat_us']:>9.1f} us",
            f"{'QHL+cache':>10} {result['median_cached_us']:>9.1f} us "
            f"{result['mean_cached_us']:>9.1f} us",
            f"median speedup {result['median_speedup']:.1f}x "
            f"(hit rate {stats.hit_rate:.1%}); "
            f"flat vs object "
            f"{result['flat_vs_object']['median_speedup']:.2f}x",
        ],
    )
    return result


def test_cache_median_speedup():
    result = run_benchmark()
    assert result["median_speedup"] >= TARGET_SPEEDUP, (
        f"median speedup {result['median_speedup']:.2f}x is below the "
        f"{TARGET_SPEEDUP:.0f}x target; see {RESULT_JSON}"
    )
    assert result["cache_hit_rate"] > 0.9


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
