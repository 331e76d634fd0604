"""The four workloads: set-up, measured phase, and the kept sample.

Every workload talks to the program through its public API only and
returns an :class:`Outcome`: set-up time, the raw timings of the
measured phase, the seeded sample of answers the correctness gate
checks afterwards, and the reference engines that gate needs.

Each workload sets up ``SETUPS`` times, reports the median set-up time
and serves from the last set-up; the earlier ones are discarded first.

``phases`` switches tracing on and off between measured segments (see
``layers.py``); the untraced run passes :data:`NO_TRACE`, whose switch
does nothing, so both runs execute the same loop.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from array import array
from dataclasses import dataclass, field
from statistics import median

from repro import (
    DynamicQHLIndex,
    QHLIndex,
    QueryService,
    ServiceConfig,
    execute_batch,
    save_index,
)
from repro.baselines import CSP2HopEngine
from repro.dynamic.epochs import EpochManager
from repro.storage.flatfile import load_flat_index, save_flat_index

from common import percentile
from inputs import INDEX_SEED, Inputs

BATCH_WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: Closed loops: equal rounds per measured phase; rush-hour: slices.
ROUNDS = 5
#: One kept answer per this many requests, for the correctness gate.
KEEP_STRIDE = {"interactive-short": 20, "zipf-cached": 10,
               "bulk-long": 13, "rush-hour": 1}

pc = time.perf_counter


class _NoTrace:
    """The untraced run's phase switch: nothing to switch."""

    enabled = False

    def set(self, on: bool, scope: str = "all") -> None:
        pass


NO_TRACE = _NoTrace()


@dataclass
class Segment:
    """One timed segment: a closed-loop round, a bulk cycle, a slice."""

    traced: bool
    wall: float
    latencies: array  # seconds per request
    extra: dict = field(default_factory=dict)


@dataclass
class Kept:
    """One answer produced in the measured phase, kept for checking."""

    pool: int
    s: int
    t: int
    budget: float
    result: object
    epoch: int | None = None  # rush-hour: the epoch that served it


@dataclass
class Outcome:
    setup_s: float
    segments: list[Segment]
    attempted: int
    errors: int
    kept: list[Kept]
    #: Per pool: ``(csp2hop_engine, network)`` for the gate.
    refs: list[tuple[object, object]]
    #: Per-layer numbers that need no wrappers (index stats, storage).
    layer: dict
    #: rush-hour: published epochs by id, for the gate.
    epochs: dict = field(default_factory=dict)
    #: Updates and answers that raised, for the report.
    error_notes: list[str] = field(default_factory=list)
    #: rush-hour: due-time latency, lateness and the update reports.
    extra: dict = field(default_factory=dict)


def _build_stats(layer: dict, index) -> None:
    """Fold one index's :class:`IndexStats` into the layer numbers."""
    stats = index.stats()
    layer["hierarchy.tree_build_s"] += stats.tree_seconds
    layer["labeling.build_s"] += stats.label_seconds
    layer["core.pruning_build_s"] += stats.pruning_seconds
    layer["labeling.entries"] += stats.label_entries


def _empty_layer() -> dict:
    return {
        "hierarchy.tree_build_s": 0.0, "labeling.build_s": 0.0,
        "core.pruning_build_s": 0.0, "labeling.entries": 0,
        "storage.save_s": 0.0, "storage.load_s": 0.0,
        "storage.index_bytes": 0,
    }


def _note(outcome_notes: list[str], exc: BaseException) -> None:
    if len(outcome_notes) < 5:
        outcome_notes.append(f"{type(exc).__name__}: {exc}")


def _set_up(setup, discard=None):
    """Run ``setup(layer)`` ``SETUPS`` times: ``(median s, layer, served)``.

    ``setup`` fills ``layer`` and returns ``(timed seconds, served)``;
    each earlier ``served`` is discarded (and collected) before the next
    set-up, so the peak memory is that of one.
    """
    times = []
    served = None
    for _ in range(SETUPS):
        if served is not None:
            if discard is not None:
                discard(served)
            served = None
            gc.collect()
        layer = _empty_layer()
        seconds, served = setup(layer)
        times.append(seconds)
    return median(times), layer, served


# ----------------------------------------------------------------------
def _closed_loop(
    services, inputs: Inputs, seconds: float, want_path: bool, phases,
    stride: int,
) -> tuple[list[Segment], int, int, list[Kept], list[str]]:
    """One client, next request only after the previous answer.

    ``seconds`` is split into equal rounds; the traced run traces the
    even rounds and leaves the odd ones untraced for the overhead ratio.
    """
    per_round = seconds / ROUNDS
    segments: list[Segment] = []
    kept: list[Kept] = []
    notes: list[str] = []
    errors = 0
    i = 0
    request = inputs.request
    for r in range(ROUNDS):
        traced = phases.enabled and r % 2 == 0
        phases.set(traced)
        latencies = array("d")
        start = pc()
        end = start + per_round
        while True:
            pool, s, t, budget = request(i)
            a = pc()
            try:
                result = services[pool].query(
                    s, t, budget, want_path=want_path
                )
            except Exception as exc:  # a failed request is counted, not fatal
                result = None
                errors += 1
                _note(notes, exc)
            b = pc()
            latencies.append(b - a)
            if i % stride == 0:
                kept.append(Kept(pool, s, t, budget, result))
            i += 1
            if b >= end:
                break
        segments.append(Segment(traced, pc() - start, latencies))
    phases.set(False)
    return segments, i, errors, kept, notes


def interactive_short(inputs: Inputs, seconds: float, phases, workdir: str
                      ) -> Outcome:
    """QueryService per dataset, loaded from a saved v2 index, paths on."""
    sizes = inputs.sizes

    def setup(layer: dict):
        services, refs = [], []
        seconds = 0.0
        for pool in inputs.pools:
            path = os.path.join(workdir, f"{pool.name}.idx")
            t0 = pc()
            index = QHLIndex.build(
                pool.network, num_index_queries=sizes.index_queries,
                seed=INDEX_SEED, store_paths=True,
            )
            t1 = pc()
            layer["storage.index_bytes"] += save_index(index, path)
            t2 = pc()
            service = QueryService(index_path=path)
            t3 = pc()
            _build_stats(layer, index)
            del index
            if service.index is None:
                raise RuntimeError(f"{path}: {service.index_load_error}")
            seconds += t3 - t0
            layer["storage.save_s"] += t2 - t1
            layer["storage.load_s"] += t3 - t2
            services.append(service)
            refs.append((service.index.csp2hop_engine(),
                         service.index.network))
        return seconds, (services, refs)

    setup_s, layer, (services, refs) = _set_up(setup)
    segments, attempted, errors, kept, notes = _closed_loop(
        services, inputs, seconds, True, phases,
        KEEP_STRIDE[inputs.workload],
    )
    return Outcome(setup_s, segments, attempted, errors, kept, refs, layer,
                   error_notes=notes)


def zipf_cached(inputs: Inputs, seconds: float, phases, workdir: str
                ) -> Outcome:
    """QueryService with a skyline cache over an in-memory index."""
    sizes = inputs.sizes
    config = ServiceConfig(cache_size=sizes.cache_size)

    def setup(layer: dict):
        services, refs = [], []
        seconds = 0.0
        for pool in inputs.pools:
            t0 = pc()
            index = QHLIndex.build(
                pool.network, num_index_queries=sizes.index_queries,
                seed=INDEX_SEED,
            )
            service = QueryService(index=index, config=config)
            seconds += pc() - t0
            _build_stats(layer, index)
            services.append(service)
            refs.append((index.csp2hop_engine(), index.network))
        return seconds, (services, refs)

    setup_s, layer, (services, refs) = _set_up(setup)
    segments, attempted, errors, kept, notes = _closed_loop(
        services, inputs, seconds, False, phases,
        KEEP_STRIDE[inputs.workload],
    )
    return Outcome(setup_s, segments, attempted, errors, kept, refs, layer,
                   error_notes=notes)


# ----------------------------------------------------------------------
def _run_batch(engine, queries, workers: int):
    started = pc()
    report = execute_batch(engine, queries, workers=workers)
    return report, pc() - started


def bulk_long(inputs: Inputs, seconds: float, phases, workdir: str
              ) -> Outcome:
    """Routing-matrix batches over mmap'd flat indexes, two workers.

    A round is one cycle of batches, one per dataset (its Q3-Q5 pairs,
    each with a fresh budget), so every round carries the same mix of
    datasets; rounds repeat until ``seconds`` are spent.  The traced run
    adds a sequential replay of one batch per dataset, untraced then
    traced, for the core phases.
    """
    sizes = inputs.sizes

    def setup(layer: dict):
        engines, refs = [], []
        seconds = 0.0
        for pool in inputs.pools:
            path = os.path.join(workdir, f"{pool.name}.qflat")
            t0 = pc()
            index = QHLIndex.build(
                pool.network, num_index_queries=sizes.index_queries,
                seed=INDEX_SEED, store_paths=False,
            )
            t1 = pc()
            layer["storage.index_bytes"] += save_flat_index(index, path)
            t2 = pc()
            flat = load_flat_index(path)
            t3 = pc()
            _build_stats(layer, index)
            del index
            seconds += t3 - t0
            layer["storage.save_s"] += t2 - t1
            layer["storage.load_s"] += t3 - t2
            engines.append(flat.qhl_engine())
            refs.append((CSP2HopEngine(flat.tree, flat.labels, flat.lca),
                         flat.network))
        return seconds, (engines, refs)

    setup_s, layer, (engines, refs) = _set_up(setup)

    def batch(p: int, b: int) -> list[tuple[int, int, float]]:
        budgets = inputs.batch_budgets[p][b % len(inputs.batch_budgets[p])]
        return [(s, t, budgets[j])
                for j, (s, t, _d, _hi) in enumerate(inputs.pools[p].pairs)]

    stride = KEEP_STRIDE[inputs.workload]
    segments: list[Segment] = []
    kept: list[Kept] = []
    notes: list[str] = []
    attempted = errors = 0
    n = 0  # rounds sent so far
    phases.set(False)  # spans recorded in forked workers are out of scope
    spent = 0.0
    while spent < seconds:
        latencies = array("d")
        walls: list[float] = []
        busy = 0.0
        for p, engine in enumerate(engines):
            queries = batch(p, n)
            report, wall = _run_batch(engine, queries, BATCH_WORKERS)
            walls.append(wall)
            attempted += len(queries)
            errors += report.failed + report.skipped
            for failure in report.failures[:1]:
                _note(notes, RuntimeError(failure.message))
            for j, result in enumerate(report.results):
                if result is None:
                    continue
                latencies.append(result.stats.seconds)
                busy += result.stats.seconds
                if (j + n) % stride == 0:
                    s, t, budget = queries[j]
                    kept.append(Kept(p, s, t, budget, result))
        n += 1
        spent += sum(walls)
        segments.append(Segment(False, sum(walls), latencies, {
            "batch_walls": walls,
            "efficiency": busy / (sum(walls) * BATCH_WORKERS),
        }))

    if phases.enabled:
        for traced in (False, True):
            phases.set(traced)
            wall = sum(_run_batch(engine, batch(p, 0), 0)[1]
                       for p, engine in enumerate(engines))
            segments.append(Segment(traced, wall, array("d"),
                                    {"replay": True}))
        phases.set(False)
    return Outcome(setup_s, segments, attempted, errors, kept, refs, layer,
                   error_notes=notes)


# ----------------------------------------------------------------------
def rush_hour(inputs: Inputs, seconds: float, phases, workdir: str
              ) -> Outcome:
    """Open-loop reads on NY beside a feeder thread of metric updates.

    The main thread sends ``rush_rate`` queries per second on a fixed
    schedule; each is timed from its due time.  The feeder delivers one
    delta batch every ``rush_interval_s`` and applies batches in arrival
    order through the epoch manager (journal, repair, audit, publish).
    The run is cut into ``ROUNDS`` equal slices of the schedule; a
    slice's wall time runs from its first due time to its last answer.
    In the traced run the query path is traced in the even slices only.
    """
    sizes = inputs.sizes
    pool = inputs.pools[0]
    journal = os.path.join(workdir, "journal")

    def setup(layer: dict):
        t0 = pc()
        dyn = DynamicQHLIndex.build(
            pool.network, num_index_queries=sizes.index_queries,
            seed=INDEX_SEED,
        )
        manager = EpochManager(dyn, journal)
        service = QueryService(epoch_manager=manager)
        seconds = pc() - t0
        _build_stats(layer, dyn.index)
        return seconds, (manager, service)

    def discard(served) -> None:
        served[0].close()
        shutil.rmtree(journal, ignore_errors=True)

    setup_s, layer, (manager, service) = _set_up(setup, discard)

    epochs = {manager.epoch.id: manager.epoch.dyn}
    updates: list[dict] = []
    notes: list[str] = []
    phases.set(True, "update")

    start = pc() + 0.05
    stop = start + seconds

    def feeder() -> None:
        for k, deltas in enumerate(inputs.deltas):
            due = start + sizes.rush_first_s + k * sizes.rush_interval_s
            if due >= stop:
                break
            delay = due - pc()
            if delay > 0:
                time.sleep(delay)
            try:
                report = manager.apply(deltas)
            except Exception as exc:  # a failed update is counted, not fatal
                updates.append({"failed": True})
                _note(notes, exc)
                continue
            updates.append({"staleness": pc() - due, "report": report})
            epochs[manager.epoch.id] = manager.epoch.dyn

    thread = threading.Thread(target=feeder, name="delta-feeder")
    thread.start()
    stride = KEEP_STRIDE[inputs.workload]
    count = len(inputs.refs)
    rate = sizes.rush_rate
    slices = [array("d") for _ in range(ROUNDS)]  # call times
    slice_start = [0.0] * ROUNDS
    slice_end = [0.0] * ROUNDS
    from_due = array("d")
    late = array("d")
    kept: list[Kept] = []
    errors = 0
    current = -1
    per_slice = count / ROUNDS
    try:
        for i in range(count):
            due = start + i / rate
            delay = due - pc()
            if delay > 0:
                time.sleep(delay)
            if int(i / per_slice) != current:
                current = int(i / per_slice)
                slice_start[current] = due
                phases.set(phases.enabled and current % 2 == 0, "query")
            _pool, s, t, budget = inputs.request(i)
            before = manager.epoch.id
            a = pc()
            try:
                result = service.query(s, t, budget)
            except Exception as exc:  # a failed request is counted, not fatal
                result = None
                errors += 1
                _note(notes, exc)
            b = pc()
            slice_end[current] = b
            slices[current].append(b - a)
            from_due.append(b - due)
            late.append(a - due)
            if i % stride == 0 and manager.epoch.id == before:
                kept.append(Kept(0, s, t, budget, result, epoch=before))
    finally:
        thread.join()
        phases.set(False, "all")
    errors += sum(1 for u in updates if u.get("failed"))

    segments = [
        Segment(phases.enabled and n % 2 == 0,
                slice_end[n] - slice_start[n], times)
        for n, times in enumerate(slices)
    ]
    outcome = Outcome(
        setup_s, segments, count + len(updates), errors, kept, [], layer,
        epochs=epochs, error_notes=notes,
        extra={"from_due": from_due, "late": late, "updates": updates},
    )
    manager.close()
    shutil.rmtree(journal, ignore_errors=True)
    return outcome


RUNNERS = {
    "interactive-short": interactive_short,
    "bulk-long": bulk_long,
    "zipf-cached": zipf_cached,
    "rush-hour": rush_hour,
}


def percentiles_us(latencies) -> tuple[float, float]:
    """``(p50, p99)`` in µs of latencies given in seconds."""
    ordered = sorted(latencies)
    return percentile(ordered, 0.50) * 1e6, percentile(ordered, 0.99) * 1e6


def observed(workload: str, segments: list[Segment]) -> dict:
    """What the load generator saw in the untraced measured segments:
    p50 and p99 latency (µs) and throughput (answers/s).

    Closed loops take each number as the median over the rounds of that
    round's value, so a burst of other load on the host that spoils
    fewer than half the rounds does not move it.  bulk-long and
    rush-hour pool their segments, which are not alike: every bulk-long
    cycle forks fresh workers and draws fresh budgets, and repairs run
    in some rush-hour slices and not in others.
    """
    measured = [s for s in segments
                if not s.traced and not s.extra.get("replay")]
    if workload in ("bulk-long", "rush-hour"):
        latencies = [x for seg in measured for x in seg.latencies]
        p50, p99 = percentiles_us(latencies)
        return {"query_p50_us": p50, "query_p99_us": p99,
                "throughput_qps": len(latencies)
                / sum(seg.wall for seg in measured)}
    p50, p99 = zip(*(percentiles_us(seg.latencies) for seg in measured))
    return {"query_p50_us": median(p50), "query_p99_us": median(p99),
            "throughput_qps": median(len(seg.latencies) / seg.wall
                                     for seg in measured)}
