"""Continuous perf-regression gate over pinned seed workloads.

Replays one deterministic workload (seed-pinned pairs and budgets on
the small NY stand-in graph) through each serving configuration — the
plain QHL engine, the skyline-cached engine, the batch executor, and
the CSP-2Hop baseline — and records per-engine p50/p95 latency plus
exact operation counts into ``BENCH_regression.json`` at the repo
root.  ``--check`` compares that measurement against the committed
baseline (``benchmarks/regression_baseline.json``) and exits 1 on
regression, which is what the CI ``perf-smoke`` job runs.

Two kinds of drift are told apart:

* **Operation counts** (hoplinks, concatenations, label lookups,
  feasible answers) are deterministic functions of the pinned seeds,
  so the gate requires an *exact* match — any change means the
  algorithm itself changed and the baseline must be regenerated
  deliberately (``--write-baseline``).
* **Latency** is machine-dependent, so raw times are useless as a
  committed baseline.  Each engine's repetitions are interleaved with
  timings of a fixed pure-Python spin loop (:func:`calibrate`), and
  that engine's percentiles are divided by the best of them; the gate
  compares these *calibration-normalised* numbers with a tolerance
  band (:data:`LATENCY_TOLERANCE`), so a slower CI runner shifts both
  sides equally while a real slowdown in the query path moves only the
  numerator.  Calibrating beside each engine, rather than once before
  all four, keeps a host that slows down mid-run from reading as a
  regression of whichever engine runs last.  Percentiles are
  min-of-medians across repetitions, which squeezes scheduler noise
  out of the tail.

``--slowdown N`` multiplies the measured latencies by ``N`` before the
comparison — a synthetic regression used to prove the gate actually
trips (see ``tests/perf/test_regression_harness.py``).

``--overhead`` measures the cost of the *inert* flight-recorder hook:
the hot path's ``recorder.enabled`` check plus the skipped bookkeeping
around it (exactly what ``QueryService.query`` executes when no
recorder is installed), interleaved against a bare query loop.  The
budget is :data:`OVERHEAD_BUDGET` (2%).

Runnable standalone (``python benchmarks/regress.py [--check]``); not
collected by the tier-1 pytest run (``testpaths = tests``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core import QHLIndex  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.graph import estimate_diameter  # noqa: E402
from repro.observability.flight import get_flight_recorder  # noqa: E402
from repro.perf.batch import execute_batch  # noqa: E402
from repro.types import CSPQuery  # noqa: E402

RESULT_JSON = os.path.join(REPO_ROOT, "BENCH_regression.json")
BASELINE_JSON = os.path.join(
    REPO_ROOT, "benchmarks", "regression_baseline.json"
)

#: Normalised-latency band: measured/baseline above this fails the gate.
LATENCY_TOLERANCE = 1.6
#: Maximum tolerated cost of the inert flight-recorder hook.
OVERHEAD_BUDGET = 0.02

DATASET = "NY"
SCALE = "small"
WORKLOAD_SEED = 1234
INDEX_SEED = 99
NUM_QUERIES = int(os.environ.get("REPRO_REGRESS_QUERIES", "120"))
REPETITIONS = int(os.environ.get("REPRO_REGRESS_REPS", "5"))
CACHE_SIZE = 64

#: Op-count fields that must match the baseline exactly.
EXACT_FIELDS = (
    "hoplinks", "concatenations", "label_lookups", "feasible",
)


def pinned_workload(network, size: int, seed: int) -> list[CSPQuery]:
    """A seed-pinned mixed workload: same queries on every machine."""
    rng = random.Random(seed)
    d_max = estimate_diameter(network)
    n = network.num_vertices
    queries = []
    while len(queries) < size:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        queries.append(CSPQuery(s, t, rng.uniform(0.15, 1.3) * d_max))
    return queries


def calibrate(passes: int = 5, work: int = 200_000) -> float:
    """Best-of-``passes`` time of a fixed pure-Python spin loop.

    The unit latencies are normalised by: dimensionless ratios survive
    being committed to a baseline and checked on a different machine.
    """
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        acc = 0
        for i in range(work):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = (len(sorted_values) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _sequential_run(engine, queries) -> tuple[list[float], dict]:
    latencies = []
    ops = {field: 0 for field in EXACT_FIELDS}
    for s, t, c in queries:
        started = time.perf_counter()
        result = engine.query(s, t, c)
        latencies.append(time.perf_counter() - started)
        ops["hoplinks"] += result.stats.hoplinks
        ops["concatenations"] += result.stats.concatenations
        ops["label_lookups"] += result.stats.label_lookups
        ops["feasible"] += int(result.feasible)
    return latencies, ops


def _batch_run(engine, queries) -> tuple[list[float], dict]:
    report = execute_batch(engine, queries)
    latencies = []
    ops = {field: 0 for field in EXACT_FIELDS}
    for result in report.results:
        if result is None:
            continue
        latencies.append(result.stats.seconds)
        ops["hoplinks"] += result.stats.hoplinks
        ops["concatenations"] += result.stats.concatenations
        ops["label_lookups"] += result.stats.label_lookups
        ops["feasible"] += int(result.feasible)
    return latencies, ops


def measure(
    num_queries: int = NUM_QUERIES,
    repetitions: int = REPETITIONS,
) -> dict:
    """One full measurement: every engine over the pinned workload."""
    dataset = load_dataset(DATASET, scale=SCALE)
    network = dataset.network
    index = QHLIndex.build(
        network,
        num_index_queries=400,
        store_paths=False,
        seed=INDEX_SEED,
    )
    queries = pinned_workload(network, num_queries, WORKLOAD_SEED)

    cached = index.cached_engine(CACHE_SIZE)
    engines = {
        "qhl": (index.qhl_engine(), _sequential_run),
        "cached": (cached, _sequential_run),
        "csp2hop": (index.csp2hop_engine(), _sequential_run),
        "batch": (index.qhl_engine(), _batch_run),
    }
    out: dict = {
        "benchmark": "perf_regression",
        "dataset": f"{DATASET}/{SCALE}",
        "num_queries": num_queries,
        "repetitions": repetitions,
        "workload_seed": WORKLOAD_SEED,
        "index_seed": INDEX_SEED,
        "engines": {},
    }
    for name, (engine, runner) in engines.items():
        runner(engine, queries[: max(10, num_queries // 10)])  # warm-up
        if name == "cached":
            cached.cache.clear()
        p50s, p95s, calibrations = [], [], []
        ops = None
        for _ in range(repetitions):
            calibrations.append(calibrate(passes=2))
            latencies, rep_ops = runner(engine, queries)
            latencies.sort()
            p50s.append(_percentile(latencies, 50))
            p95s.append(_percentile(latencies, 95))
            if ops is None:
                ops = rep_ops
            elif name != "cached" and ops != rep_ops:
                raise AssertionError(
                    f"{name}: op counts varied across repetitions "
                    f"({ops} != {rep_ops}) — workload is not pinned"
                )
        # min-of-medians: the least-noisy repetition represents the
        # machine's attainable latency.
        p50, p95 = min(p50s), min(p95s)
        calibration = min(calibrations)
        out["engines"][name] = {
            "calibration_seconds": calibration,
            "p50_us": round(p50 * 1e6, 3),
            "p95_us": round(p95 * 1e6, 3),
            "p50_norm": round(p50 / calibration, 6),
            "p95_norm": round(p95 / calibration, 6),
            **ops,
        }
    return out


def check(
    measured: dict,
    baseline: dict,
    tolerance: float = LATENCY_TOLERANCE,
    slowdown: float = 1.0,
) -> list[str]:
    """Compare a measurement to the baseline; returns failure messages.

    ``slowdown`` scales the measured normalised latencies before the
    comparison (synthetic regression injection for gate tests).
    """
    failures: list[str] = []
    base_queries = baseline.get("num_queries")
    got_queries = measured.get("num_queries")
    if base_queries is not None and got_queries != base_queries:
        failures.append(
            f"workload size mismatch: measured {got_queries} queries, "
            f"baseline pinned {base_queries} — exact op counts cannot "
            f"be compared (did REPRO_REGRESS_QUERIES change?)"
        )
        return failures
    for name, base in baseline.get("engines", {}).items():
        got = measured.get("engines", {}).get(name)
        if got is None:
            failures.append(f"{name}: engine missing from measurement")
            continue
        for field in EXACT_FIELDS:
            if got.get(field) != base.get(field):
                failures.append(
                    f"{name}: {field} changed "
                    f"{base.get(field)} -> {got.get(field)} "
                    f"(op counts must match the baseline exactly)"
                )
        for field in ("p50_norm", "p95_norm"):
            base_value = base.get(field)
            if not base_value:
                continue
            got_value = got.get(field, 0.0) * slowdown
            ratio = got_value / base_value
            if ratio > tolerance:
                failures.append(
                    f"{name}: {field} regressed {ratio:.2f}x over "
                    f"baseline ({got_value:.4f} vs {base_value:.4f}, "
                    f"tolerance {tolerance:.2f}x)"
                )
    return failures


def measure_overhead(
    num_queries: int = NUM_QUERIES,
    repetitions: int = 7,
    hook_iterations: int = 100_000,
) -> dict:
    """The relative cost of the inert flight-recorder hook.

    A query takes tens of microseconds and the inert hook — fetch the
    active (null) recorder, check ``enabled``, skip the bookkeeping —
    takes well under one, so *differencing* two full-query timings
    would try to resolve the hook inside the scheduler noise of the
    much larger query time.  Instead the hook is timed directly in a
    tight loop (loop overhead included, which over-counts in the
    hook's disfavour) and expressed as a fraction of the min-of-medians
    query latency on the pinned workload.
    """
    dataset = load_dataset(DATASET, scale=SCALE)
    index = QHLIndex.build(
        dataset.network,
        num_index_queries=400,
        store_paths=False,
        seed=INDEX_SEED,
    )
    engine = index.qhl_engine()
    queries = pinned_workload(dataset.network, num_queries, WORKLOAD_SEED)

    def query_median() -> float:
        latencies = []
        for s, t, c in queries:
            started = time.perf_counter()
            engine.query(s, t, c)
            latencies.append(time.perf_counter() - started)
        return statistics.median(latencies)

    def hook_per_call() -> float:
        sink = False
        started = time.perf_counter()
        for _ in range(hook_iterations):
            recorder = get_flight_recorder()
            if recorder.enabled:  # pragma: no cover - inert here
                sink = True
        elapsed = time.perf_counter() - started
        assert not sink
        return elapsed / hook_iterations

    query_median()  # warm-up
    query_medians = []
    hook_costs = []
    for _ in range(repetitions):
        query_medians.append(query_median())
        hook_costs.append(hook_per_call())
    base = min(query_medians)
    hook = min(hook_costs)
    overhead = hook / base
    return {
        "query_median_us": round(base * 1e6, 3),
        "hook_ns": round(hook * 1e9, 2),
        "overhead": round(overhead, 6),
        "budget": OVERHEAD_BUDGET,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="perf-regression gate over pinned seed workloads"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on "
        "regression",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"write the measurement as the new baseline "
        f"({os.path.relpath(BASELINE_JSON, REPO_ROOT)})",
    )
    parser.add_argument(
        "--overhead", action="store_true",
        help="measure the inert flight-recorder hook overhead instead "
        f"(budget {OVERHEAD_BUDGET:.0%}%); exit 1 if over budget",
    )
    parser.add_argument(
        "--tolerance", type=float, default=LATENCY_TOLERANCE,
        help="latency tolerance band (multiplier over baseline)",
    )
    parser.add_argument(
        "--slowdown", type=float, default=1.0,
        help="multiply measured latencies by this factor before the "
        "check (synthetic regression, proves the gate trips)",
    )
    parser.add_argument(
        "--baseline", default=BASELINE_JSON,
        help="baseline file to check against",
    )
    parser.add_argument(
        "--out", default=RESULT_JSON,
        help="where to write the measurement JSON",
    )
    parser.add_argument("--queries", type=int, default=NUM_QUERIES)
    parser.add_argument("--reps", type=int, default=REPETITIONS)
    args = parser.parse_args(argv)

    if args.overhead:
        result = measure_overhead(num_queries=args.queries)
        print(json.dumps(result, indent=2))
        if result["overhead"] > OVERHEAD_BUDGET:
            print(
                f"FAIL: inert recorder overhead "
                f"{result['overhead']:.2%} exceeds the "
                f"{OVERHEAD_BUDGET:.0%} budget",
                file=sys.stderr,
            )
            return 1
        print(
            f"inert recorder overhead {result['overhead']:.2%} "
            f"within the {OVERHEAD_BUDGET:.0%} budget"
        )
        return 0

    measured = measure(num_queries=args.queries, repetitions=args.reps)
    with open(args.out, "w") as handle:
        json.dump(measured, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.relpath(args.out, os.getcwd())}")
    if args.write_baseline:
        with open(BASELINE_JSON, "w") as handle:
            json.dump(measured, handle, indent=2)
            handle.write("\n")
        print(
            f"wrote baseline "
            f"{os.path.relpath(BASELINE_JSON, os.getcwd())}"
        )
        return 0
    if not args.check:
        return 0
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except OSError as exc:
        print(f"FAIL: cannot read baseline: {exc}", file=sys.stderr)
        return 1
    failures = check(
        measured, baseline,
        tolerance=args.tolerance, slowdown=args.slowdown,
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"perf gate passed: {len(baseline.get('engines', {}))} engines "
        f"within {args.tolerance:.1f}x of baseline, op counts exact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
