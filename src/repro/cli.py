"""Command-line interface: ``repro-qhl`` (or ``python -m repro``).

Subcommands::

    generate   write a named synthetic dataset to a network file
    build      build the QHL index for a network file
    query      answer a CSP query against a saved index
    stats      print index statistics (Table 2-style)
    verify     deep-audit a saved index (invariants + spot-checks)
    workload   generate the paper's Q1..Q5 query sets for a network
    bench      race QHL / CSP-2Hop (/ COLA) over a query-set file
    update     apply/replay/inspect journalled live metric updates
    lint       run the QHL invariant linter (docs/static-analysis.md)
    flight     inspect a flight-recorder dump (dump / tail, --json)

Example session::

    repro-qhl generate --dataset NY --scale small --out ny.csp
    repro-qhl build --network ny.csp --out ny.idx --index-queries 2000
    repro-qhl query --index ny.idx --source 0 --target 140 --budget 400 --path
    repro-qhl query --index ny.idx --source 0 --target 140 --budget 400 --trace
    repro-qhl stats --index ny.idx

``build`` saves the one index format (version 4): label and
pruning-condition columns mapped into memory on load, plus provenance
columns for ``query --path`` unless ``--no-paths`` is given.  A pickled
version-2 index or a version-3 file from an older release is refused
with a hint to rebuild it.

``build``, ``workload``, ``bench`` and ``query`` accept
``--metrics-out PATH`` to dump the run's metrics registry as JSON-lines
(counters, gauges, and latency histograms with p50/p95/p99);
``query --trace`` prints the phase-by-phase span tree of one query.

Serving-style robustness flags (see ``docs/robustness.md``): ``query``
takes ``--deadline-ms`` (time budget), ``--fallback`` (degradation
ladder QHL -> CSP-2Hop -> SkyDijkstra, tolerating engine failures and
corrupt indexes) and ``--verify-checksum on|off``; ``bench`` takes
``--deadline-ms`` (over-budget queries land in the fail column).

Build-hardening flags (same doc): ``build`` takes ``--lenient`` /
``--lcc-fallback`` (validating ingestion with typed, located errors and
explicit drop policies), ``--checkpoint-dir`` + ``--resume``
(label-build checkpoints, one per segment of the top-down sweep; an
interrupted build continues after its last saved segment and lands on
an identical index) and
``--max-build-seconds`` / ``--max-rss-mb`` (checkpoint-then-raise
watchdog); ``verify`` deep-audits a saved index — storage checksum,
skyline canonicality, hoplink coverage, tree/LCA structure, plus
seeded spot-checks against constrained Dijkstra — and exits 1 if any
check fails.

Observability flags (see ``docs/observability.md``): ``query`` and
``bench`` accept ``--flight-out PATH`` (record every query into a
bounded flight-recorder ring and dump it as JSON-lines at exit),
``--flight-size N`` (ring capacity) and ``--slow-ms X`` (slow-query
threshold); ``repro-qhl flight dump|tail --file PATH`` pretty-prints a
dump (``--json`` for machine-readable output).

Live-update flags (see ``docs/robustness.md``): ``update apply``
journals a delta batch (``--deltas FILE`` or ``--edge/--weight/
--cost``) and publishes the repaired epoch, rolling back on any
failure; ``update replay`` re-applies the whole journal onto a fresh
build (the crash-recovery path — the label payload is bit-identical to
a fresh build with the final metrics, and the same journal always
gives the same pruning conditions); ``update status`` inspects the
journal (exit 1 when batches are pending); ``bench --updates N``
streams N random deltas through the epoch pipeline while re-running
each query set, reporting p50/p99 under churn.

Performance flags (see ``docs/performance.md``): ``bench --cache-size
N`` races a QHL+cache engine (skyline-frontier LRU over N pairs)
alongside the others, ``--batch`` runs each query set through the
batch API in cache-friendly order, and ``--workers N`` fans a batched
run out across N worker processes.  Every fan-out is supervised (dead
workers respawn and their lost chunk is retried); ``--heartbeat-ms``
and ``--max-worker-restarts`` tune that policy.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.core.engine import QHLIndex
from repro.datasets.catalog import DATASET_NAMES, load_dataset
from repro.exceptions import ReproError
from repro.graph.io import read_csp_text, write_csp_text
from repro.instrument.timing import Timer, format_bytes, format_seconds
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.observability.export import write_jsonl
from repro.observability.tracing import SpanTracer, use_tracer
from repro.storage.serialize import (
    load_index,
    load_index_with_retry,
    save_index,
)


@contextlib.contextmanager
def _metrics_scope(path: str | None):
    """Run the body under a live metrics registry, dumping it to ``path``.

    A no-op (the default null registry stays active) when ``path`` is
    falsy, so commands pay nothing unless ``--metrics-out`` was given.
    """
    if not path:
        yield
        return
    registry = MetricsRegistry()
    with use_registry(registry):
        yield
    try:
        count = write_jsonl(registry, path)
    except OSError as exc:
        raise ReproError(f"cannot write metrics to {path}: {exc}") from exc
    print(f"wrote {count} metrics -> {path}")


@contextlib.contextmanager
def _flight_scope(args: argparse.Namespace):
    """Run the body under a live flight recorder, dumping it at exit.

    A no-op (the inert null recorder stays active) when
    ``--flight-out`` was not given, mirroring :func:`_metrics_scope`.
    """
    path = getattr(args, "flight_out", None)
    if not path:
        yield
        return
    from repro.observability.flight import (
        FlightRecorder,
        use_flight_recorder,
    )

    recorder = FlightRecorder(
        capacity=getattr(args, "flight_size", None) or 256,
        slow_ms=getattr(args, "slow_ms", None),
    )
    with use_flight_recorder(recorder):
        yield
    try:
        count = recorder.dump(path, reason="cli")
    except OSError as exc:
        raise ReproError(
            f"cannot write flight records to {path}: {exc}"
        ) from exc
    print(f"wrote {count} flight records -> {path}")


@contextlib.contextmanager
def _incident_scope(args: argparse.Namespace):
    """Run the body under a live incident sink, dumping it at exit.

    A no-op (the inert null sink stays active) when ``--incident-out``
    was not given, mirroring :func:`_metrics_scope`.  The dump is
    JSON-lines, readable back with ``repro-qhl supervise status``.
    """
    path = getattr(args, "incident_out", None)
    if not path:
        yield
        return
    from repro.supervise import IncidentLog, use_incident_log

    log = IncidentLog()
    with use_incident_log(log):
        yield
    try:
        count = log.dump(path)
    except OSError as exc:
        raise ReproError(
            f"cannot write incidents to {path}: {exc}"
        ) from exc
    print(f"wrote {count} supervision incidents -> {path}")


def _supervision_from_args(args: argparse.Namespace):
    """The worker pools' ``SupervisionConfig`` for ``args`` (``None``
    keeps the defaults)."""
    restarts = getattr(args, "max_worker_restarts", None)
    heartbeat_ms = getattr(args, "heartbeat_ms", None)
    if restarts is None and heartbeat_ms is None:
        return None
    import dataclasses

    from repro.supervise import SupervisionConfig

    config = SupervisionConfig()
    if restarts is not None:
        config = dataclasses.replace(config, max_restarts=restarts)
    if heartbeat_ms is not None:
        # Keep the stall threshold a comfortable multiple of the beat
        # interval so tuning one flag cannot silently create a
        # shoot-healthy-workers configuration.
        config = dataclasses.replace(
            config,
            heartbeat_ms=heartbeat_ms,
            stall_after_ms=max(config.stall_after_ms, 20.0 * heartbeat_ms),
        )
    return config


#: Flags several subcommands take, each defined once.  A subcommand
#: adds one with :func:`_shared`, overriding ``required``, ``default``
#: or ``help`` where its use differs.
_SHARED: dict[str, dict] = {
    "--network": {"help": "network file (generate writes one)"},
    "--index": {"help": "saved index file (build writes one)"},
    "--out": {"help": "output file"},
    "--seed": {"type": int, "default": 0, "help": "random seed"},
    "--index-queries": {
        "type": int,
        "help": "|Q_index|: workload queries the pruning conditions are "
        "learned from",
    },
    "--metrics-out": {
        "help": "dump the run's metrics (counters, gauges, histograms) "
        "as JSON-lines to this path",
    },
    "--incident-out": {
        "help": "dump supervision incidents (spawns, deaths, restarts, "
        "rollbacks) as JSON-lines to this path (inspect with "
        "`repro-qhl supervise status`)",
    },
    "--json": {
        "action": "store_true",
        "help": "print machine-readable JSON",
    },
    "--verify-checksum": {
        "choices": ("on", "off"),
        "default": "on",
        "help": "verify the index file's SHA-256 payload checksum on "
        "load (default on)",
    },
    "--deadline-ms": {
        "type": float,
        "help": "per-query time budget in milliseconds",
    },
}


def _shared(parser: argparse.ArgumentParser, flag: str, **overrides) -> None:
    """Add the shared ``flag`` to ``parser``."""
    parser.add_argument(flag, **{**_SHARED[flag], **overrides})


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker-supervision option group of ``bench``.

    Its worker fan-out (``--batch --workers >= 2``) always runs
    supervised: dead workers are respawned and their lost chunk retried.
    """
    parser.add_argument(
        "--max-worker-restarts",
        type=int,
        help="consecutive deaths that trip a worker's restart circuit "
        "breaker (default 3)",
    )
    parser.add_argument(
        "--heartbeat-ms",
        type=float,
        help="worker heartbeat interval in milliseconds (default 100)",
    )
    _shared(parser, "--incident-out")


def _add_flight_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--flight-*`` option group (query and bench)."""
    parser.add_argument(
        "--flight-out",
        help="record every query into a flight-recorder ring and dump "
        "it as JSON-lines to this path (inspect with `repro-qhl "
        "flight`)",
    )
    parser.add_argument(
        "--flight-size",
        type=int,
        default=256,
        help="flight-recorder ring capacity (with --flight-out)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        help="flight-recorder slow-query threshold in milliseconds; "
        "slow queries are flagged and kept in the slow/fail side log",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    write_csp_text(dataset.network, args.out)
    print(
        f"{dataset.name} ({dataset.description}): "
        f"|V|={dataset.network.num_vertices} "
        f"|E|={dataset.network.num_edges} -> {args.out}"
    )
    return 0


def _ingest_policy(args: argparse.Namespace):
    """The :class:`~repro.resilience.ingest.ParsePolicy` for ``args``
    (``None`` = the default strict policy)."""
    import dataclasses

    from repro.resilience.ingest import LENIENT, STRICT

    policy = None
    if getattr(args, "lenient", False):
        policy = LENIENT
    if getattr(args, "lcc_fallback", False):
        policy = dataclasses.replace(policy or STRICT, lcc_fallback=True)
    return policy


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.resilience.checkpoint import BuildBudget, CheckpointStore

    network = read_csp_text(args.network, policy=_ingest_policy(args))
    budget = None
    if args.max_build_seconds is not None or args.max_rss_mb is not None:
        budget = BuildBudget(
            max_seconds=args.max_build_seconds, max_rss_mb=args.max_rss_mb
        )
    with _metrics_scope(args.metrics_out), Timer() as timer:
        index = QHLIndex.build(
            network,
            num_index_queries=args.index_queries,
            store_paths=not args.no_paths,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            build_budget=budget,
        )
    size = save_index(index, args.out)
    if args.checkpoint_dir:
        # The index reached durable storage; the checkpoints served
        # their purpose.
        CheckpointStore(args.checkpoint_dir).clear()
    print(
        f"built index for |V|={network.num_vertices} in "
        f"{format_seconds(timer.seconds)}; file {format_bytes(size)} "
        f"-> {args.out}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.exceptions import SerializationError
    from repro.resilience.audit import AuditCheck, AuditReport, audit_index

    with _metrics_scope(args.metrics_out):
        storage = AuditCheck("storage-checksum", checked=1)
        try:
            index = load_index(
                args.index, verify_checksum=args.verify_checksum != "off"
            )
        except SerializationError as exc:
            storage.add(str(exc))
            report = AuditReport(checks=[storage])
        else:
            report = audit_index(
                index, queries=args.queries, seed=args.seed
            )
            report.checks.insert(0, storage)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service import Deadline, QueryService, ServiceConfig

    verify = args.verify_checksum != "off"
    deadline = (
        Deadline.from_ms(args.deadline_ms)
        if args.deadline_ms is not None
        else None
    )
    with _metrics_scope(args.metrics_out), _flight_scope(args):
        if args.fallback:
            network = (
                read_csp_text(args.network) if args.network else None
            )
            service = QueryService(
                index_path=args.index,
                network=network,
                config=ServiceConfig(verify_checksum=verify),
            )
            if service.index_load_error is not None:
                print(
                    f"warning: index unusable "
                    f"({service.index_load_error}); serving degraded "
                    f"via {' -> '.join(service.tiers)}",
                    file=sys.stderr,
                )

            def run(want_path: bool):
                return service.query(
                    args.source, args.target, args.budget,
                    want_path=want_path, deadline=deadline,
                )
        else:
            index = load_index_with_retry(
                args.index, verify_checksum=verify
            )

            def run(want_path: bool):
                return index.query(
                    args.source, args.target, args.budget,
                    want_path=want_path, deadline=deadline,
                )

        tracer = SpanTracer() if args.trace else None
        if tracer is not None:
            with use_tracer(tracer):
                result = run(args.path)
        else:
            result = run(args.path)
        if not args.fallback:
            # The QueryService path flight-records internally; the
            # plain-index path records here.
            from repro.observability.flight import get_flight_recorder

            recorder = get_flight_recorder()
            if recorder.enabled:
                recorder.record(
                    engine=result.engine or "qhl",
                    source=args.source,
                    target=args.target,
                    budget=args.budget,
                    outcome="ok" if result.feasible else "infeasible",
                    seconds=result.stats.seconds,
                    stats=result.stats,
                )
        if result.feasible:
            via = f" via {result.engine}" if result.engine else ""
            print(
                f"optimal weight {result.weight} at cost {result.cost} "
                f"(budget {args.budget}) in "
                f"{format_seconds(result.stats.seconds)}{via}"
            )
            if args.path and result.path is not None:
                print(" -> ".join(str(v) for v in result.path))
        else:
            print(
                f"no path from {args.source} to {args.target} within "
                f"budget {args.budget}"
            )
        if tracer is not None and tracer.last() is not None:
            from repro.core.explain import explain_trace

            print()
            print(explain_trace(tracer.last()))
    return 0 if result.feasible else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    stats = index.stats()
    print(f"vertices          {index.network.num_vertices}")
    print(f"edges             {index.network.num_edges}")
    print(f"treewidth         {stats.treewidth}")
    print(f"treeheight        {stats.treeheight}")
    print(f"avg height        {stats.average_height:.1f}")
    print(f"tree build        {format_seconds(stats.tree_seconds)}")
    print(f"label build       {format_seconds(stats.label_seconds)}")
    print(f"label size        {format_bytes(stats.label_bytes)}")
    print(f"label entries     {stats.label_entries}")
    print(f"max skyline set   {stats.max_skyline_set}")
    print(f"pruning build     {format_seconds(stats.pruning_seconds)}")
    print(f"pruning size      {format_bytes(stats.pruning_bytes)}")
    print(f"pruning conds     {stats.pruning_conditions}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.graph.algorithms import estimate_diameter
    from repro.observability.metrics import get_registry
    from repro.workloads import generate_distance_sets, write_query_sets

    network = read_csp_text(args.network)
    with _metrics_scope(args.metrics_out):
        registry = get_registry()
        phase_seconds = lambda phase: registry.histogram(  # noqa: E731
            "qhl_workload_phase_seconds",
            {"phase": phase},
            help="query-set generation phase latency",
        )
        with Timer() as timer:
            d_max = estimate_diameter(network)
        phase_seconds("estimate-diameter").observe(timer.seconds)
        with Timer() as timer:
            sets = generate_distance_sets(
                network, size=args.size, d_max=d_max, seed=args.seed
            )
        phase_seconds("generate-sets").observe(timer.seconds)
        for name, query_set in sets.items():
            registry.gauge(
                "qhl_workload_queries", {"set": name}
            ).set(len(query_set))
    write_query_sets(sets, args.out)
    print(
        f"wrote {sum(len(s) for s in sets.values())} queries "
        f"({', '.join(sets)}) for d_max={d_max:g} -> {args.out}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.instrument import WorkloadReport, run_workload
    from repro.workloads import index_queries_from_sets, read_query_sets

    network = read_csp_text(args.network)
    sets = read_query_sets(args.queries)
    supervision = _supervision_from_args(args)
    with _metrics_scope(args.metrics_out), _flight_scope(args), \
            _incident_scope(args):
        index_queries = index_queries_from_sets(
            list(sets.values()), args.index_queries, seed=args.seed
        )
        with Timer() as timer:
            index = QHLIndex.build(
                network,
                index_queries=index_queries,
                store_paths=False,
                seed=args.seed,
            )
        print(f"index built in {format_seconds(timer.seconds)}")

        engines = [index.qhl_engine(), index.csp2hop_engine()]
        if args.cache_size:
            engines.insert(0, index.cached_engine(args.cache_size))
        if args.cola:
            from repro.baselines import COLAEngine

            engines.append(COLAEngine(network, num_parts=8, seed=args.seed))

        print(WorkloadReport.header())
        for name, query_set in sets.items():
            for engine in engines:
                report = run_workload(
                    engine, query_set.queries, name,
                    deadline_ms=args.deadline_ms,
                    batch=args.batch,
                    workers=args.workers,
                    supervision=supervision,
                )
                print(report.row())
        if args.cache_size:
            if args.batch and args.workers >= 2:
                # Worker processes queried forked engine copies; their
                # caches died with them, so parent-side numbers would
                # read as a (misleading) string of zeros.
                print("cache: per-worker caches are not aggregated")
            else:
                cached = engines[0]
                stats = cached.cache.stats()
                print(
                    f"cache: {stats.entries}/{stats.capacity} pairs, "
                    f"{stats.hits} hits / {stats.misses} misses "
                    f"(hit rate {stats.hit_rate:.1%}), "
                    f"{stats.evictions} evictions"
                )
        if args.updates:
            import tempfile

            from repro.dynamic import (
                DynamicQHLIndex,
                EpochManager,
                UpdateConfig,
            )

            # The built index serves from frozen columns; updates repair
            # the object labels a dynamic build keeps.
            dyn = DynamicQHLIndex.build(
                network,
                index_queries=index_queries,
                store_paths=False,
                seed=args.seed,
            )
            with tempfile.TemporaryDirectory(
                prefix="qhl-bench-journal-"
            ) as journal_dir:
                manager = EpochManager(
                    dyn, journal_dir, UpdateConfig(audit_on_publish=False)
                )
                for name, query_set in sets.items():
                    _bench_updates(
                        manager, query_set, name, args.updates, args.seed
                    )
    return 0


def _read_deltas(path: str):
    """Parse a JSON-lines delta file into :class:`EdgeDelta` rows.

    Each line is ``{"edge": i, "weight": w, "cost": c}`` — ``weight`` /
    ``cost`` optional or ``null`` to leave that metric unchanged.
    """
    import json

    from repro.dynamic import EdgeDelta

    deltas = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    deltas.append(
                        EdgeDelta(
                            int(obj["edge"]),
                            obj.get("weight"),
                            obj.get("cost"),
                        )
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise ReproError(
                        f"{path}, line {lineno}: bad delta record: {exc}"
                    ) from exc
    except OSError as exc:
        raise ReproError(f"cannot read deltas from {path}: {exc}") from exc
    return deltas


def _update_manager(args: argparse.Namespace):
    """Build the epoch manager for ``update apply|replay``.

    Saved indexes drop elimination shortcuts (the repair's raw
    material), so the dynamic index is rebuilt from the network file —
    with the same ``--index-queries`` / ``--seed`` every run, the build
    is deterministic and ``base_seq=0`` replay of the journal converges
    to the label payload a fresh build with the final metrics produces,
    with the pruning conditions the same journal always gives.
    """
    from repro.dynamic import DynamicQHLIndex, EpochManager, UpdateConfig

    network = read_csp_text(args.network)
    with Timer() as timer:
        dyn = DynamicQHLIndex.build(
            network,
            num_index_queries=args.index_queries,
            store_paths=False,
            seed=args.seed,
        )
    print(f"index built in {format_seconds(timer.seconds)}")
    config = UpdateConfig(
        audit_on_publish=args.audit == "on",
        max_repair_seconds=args.max_repair_seconds,
        replay_on_start=False,
    )
    manager = EpochManager(dyn, args.journal, config, base_seq=0)
    return manager


def _print_update_report(manager, report) -> None:
    print(
        f"epoch {manager.epoch.id}: applied {report.edges_applied} "
        f"delta(s) in {format_seconds(report.seconds)} "
        f"({report.shortcuts_changed} shortcuts, "
        f"{report.labels_changed} labels changed, "
        f"{report.pruning_rows_rebuilt} pruning rows rebuilt)"
    )


def _cmd_update(args: argparse.Namespace) -> int:
    import json

    from repro.dynamic import UpdateJournal

    if args.mode == "status":
        journal = UpdateJournal(args.journal)
        pending = journal.pending()
        if args.json:
            print(json.dumps({
                "journal": args.journal,
                "last_seq": journal.last_seq(),
                "published_seq": journal.published_seq(),
                "pending": len(pending),
                "torn_lines": journal.torn_lines,
            }, indent=2, sort_keys=True))
            return 0
        print(f"journal    {args.journal}")
        print(f"acknowledged batches  {journal.last_seq()}")
        print(f"published watermark   {journal.published_seq()}")
        print(f"pending batches       {len(pending)}")
        if journal.torn_lines:
            print(f"torn lines truncated  {journal.torn_lines}")
        for record in pending:
            print(
                f"  seq {record.seq}: {len(record.deltas)} delta(s), "
                f"ts {record.ts:.3f}"
            )
        return 1 if pending else 0

    if not args.network:
        raise ReproError(
            f"update {args.mode} needs --network (the dynamic index is "
            "rebuilt from it; see --help)"
        )
    with _metrics_scope(args.metrics_out), _incident_scope(args):
        manager = _update_manager(args)
        replayed = manager.replay()
        if replayed:
            print(f"replayed {replayed} journalled batch(es)")
        if args.mode == "apply":
            if args.deltas:
                deltas = _read_deltas(args.deltas)
            elif args.edge is not None:
                from repro.dynamic import EdgeDelta

                deltas = [EdgeDelta(args.edge, args.weight, args.cost)]
            else:
                raise ReproError(
                    "update apply needs --deltas FILE or --edge I "
                    "(with --weight/--cost)"
                )
            report = manager.apply(deltas)
            _print_update_report(manager, report)
        else:  # replay
            print(
                f"epoch {manager.epoch.id}, backlog {manager.backlog()}"
            )
        if args.out:
            size = save_index(manager.epoch.dyn.index, args.out)
            print(f"saved repaired index -> {args.out} "
                  f"({format_bytes(size)})")
    return 0


def _bench_updates(manager, query_set, name: str, updates: int,
                   seed: int) -> None:
    """Race a Zipf-ish repeated workload against live update churn.

    Applies one random metric delta every ``len(queries) // updates``
    queries through the epoch manager while timing every query; prints
    a summary row with query p50/p99 and the update pipeline's cost.
    """
    import random
    import statistics
    import time as _time

    from repro.dynamic import EdgeDelta

    rng = random.Random(seed)
    edges = manager.epoch.dyn.network_edges()
    queries = query_set.queries
    every = max(1, len(queries) // max(1, updates))
    latencies = []
    repair_seconds = []
    rows_rebuilt = 0
    applied = 0
    for i, (s, t, c) in enumerate(queries):
        if applied < updates and i % every == 0 and i > 0:
            edge = rng.randrange(len(edges))
            u, v, w, cost = edges[edge]
            factor = rng.uniform(0.5, 2.0)
            report = manager.apply([EdgeDelta(edge, w * factor, None)])
            repair_seconds.append(report.seconds)
            rows_rebuilt += report.pruning_rows_rebuilt
            applied += 1
        started = _time.perf_counter()
        manager.query(s, t, c)
        latencies.append(_time.perf_counter() - started)
    latencies.sort()
    p50 = latencies[len(latencies) // 2] * 1e3
    p99 = latencies[int(len(latencies) * 0.99)] * 1e3
    mean_repair = (
        statistics.mean(repair_seconds) if repair_seconds else 0.0
    )
    print(
        f"updates[{name}]: {len(queries)} queries with {applied} live "
        f"updates  p50 {p50:.3f} ms  p99 {p99:.3f} ms  "
        f"mean repair {mean_repair * 1e3:.1f} ms  "
        f"pruning rows rebuilt {rows_rebuilt}  "
        f"epoch {manager.epoch.id}"
    )


def _cmd_supervise(args: argparse.Namespace) -> int:
    import json

    from repro.supervise import INCIDENT_KINDS, load_incidents, summarize

    try:
        incidents = load_incidents(args.incidents)
    except OSError as exc:
        raise ReproError(f"cannot read incident dump: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ReproError(
            f"malformed incident dump {args.incidents}: {exc}"
        ) from exc
    summary = summarize(incidents)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not incidents:
        print("no incidents")
        return 0
    kinds = list(INCIDENT_KINDS)
    for extra in sorted(summary["totals"]):
        if extra not in kinds:
            kinds.append(extra)
    header = f"{'worker':<10}" + "".join(f"{k:>14}" for k in kinds)
    print(header)
    for worker in sorted(summary["workers"]):
        row = summary["workers"][worker]
        print(
            f"{worker:<10}"
            + "".join(f"{row.get(k, 0):>14}" for k in kinds)
        )
    print(
        f"{'total':<10}"
        + "".join(f"{summary['totals'].get(k, 0):>14}" for k in kinds)
    )
    if args.tail > 0:
        print()
        for incident in incidents[-args.tail:]:
            pid = incident.pid if incident.pid is not None else "-"
            print(
                f"{incident.seq:>5}  {incident.kind:<13}  "
                f"{incident.worker:<10}  pid {pid!s:<8}  "
                f"{incident.detail}"
            )
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    import json

    from repro.observability.flight import load_flight

    try:
        records = load_flight(args.file)
    except OSError as exc:
        raise ReproError(f"cannot read flight dump: {exc}") from exc
    except ValueError as exc:
        raise ReproError(
            f"malformed flight dump {args.file}: {exc}"
        ) from exc
    if args.slow:
        records = [r for r in records if r.slow or r.failed]
    if args.mode == "tail":
        records = records[-args.n:] if args.n > 0 else []
    if args.json:
        for record in records:
            print(json.dumps(record.to_dict(), sort_keys=True))
        return 0
    if not records:
        print("no flight records")
        return 0
    print(
        f"{'seq':>5}  {'engine':<10}  {'query':<16}  {'outcome':<22}  "
        f"{'time':>10}  {'flags':<5}  trace"
    )
    for r in records:
        flags = ("S" if r.slow else "") + ("F" if r.failed else "")
        query = f"{r.source}->{r.target}@{r.budget:g}"
        line = (
            f"{r.seq:>5}  {r.engine:<10}  {query:<16}  {r.outcome:<22}  "
            f"{r.seconds * 1e3:>7.3f} ms  {flags:<5}  {r.trace_id or '-'}"
        )
        if r.error:
            line += f"  {r.error}"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-qhl",
        description="QHL: exact constrained shortest path search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    p_gen.add_argument(
        "--scale", choices=("benchmark", "small"), default="small"
    )
    _shared(p_gen, "--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_build = sub.add_parser("build", help="build the QHL index")
    _shared(p_build, "--network", required=True)
    _shared(p_build, "--out", required=True)
    _shared(p_build, "--index-queries", default=2000)
    _shared(p_build, "--seed")
    p_build.add_argument(
        "--no-paths",
        action="store_true",
        help="skip path provenance: the saved file holds (weight, "
        "cost) label columns only (no path retrieval)",
    )
    _shared(p_build, "--metrics-out")
    p_build.add_argument(
        "--checkpoint-dir",
        help="persist label-build checkpoints, one per segment of the "
        "top-down sweep, into this directory (atomic, checksummed); "
        "an interrupted build can "
        "then continue with --resume; cleared after a successful build",
    )
    p_build.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint-dir, continue an interrupted build "
        "after its last saved segment (result identical to a fresh "
        "build)",
    )
    p_build.add_argument(
        "--max-build-seconds",
        type=float,
        help="time budget for the label build; when exceeded, the "
        "build checkpoints and raises instead of running away "
        "(requires --checkpoint-dir)",
    )
    p_build.add_argument(
        "--max-rss-mb",
        type=float,
        help="peak-memory budget (MiB) for the label build; when "
        "exceeded, the build checkpoints and raises (requires "
        "--checkpoint-dir)",
    )
    p_build.add_argument(
        "--lenient",
        action="store_true",
        help="lenient network parsing: skip junk lines, drop "
        "self-loops / duplicate edges / non-positive metrics, and fall "
        "back to the largest connected component (all counted in "
        "--metrics-out) instead of rejecting the file",
    )
    p_build.add_argument(
        "--lcc-fallback",
        action="store_true",
        help="keep only the largest connected component of a "
        "disconnected input (strict parsing otherwise; implied by "
        "--lenient)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser(
        "verify", help="deep-audit a saved index (exit 1 on failure)"
    )
    _shared(p_verify, "--index", required=True)
    p_verify.add_argument(
        "--queries",
        type=int,
        default=8,
        help="seeded random queries to spot-check against the exact "
        "constrained-Dijkstra baseline (0 = structural checks only)",
    )
    _shared(p_verify, "--seed")
    _shared(p_verify, "--json")
    _shared(p_verify, "--verify-checksum")
    _shared(p_verify, "--metrics-out")
    p_verify.set_defaults(func=_cmd_verify)

    p_query = sub.add_parser("query", help="answer one CSP query")
    _shared(p_query, "--index", required=True)
    p_query.add_argument("--source", type=int, required=True)
    p_query.add_argument("--target", type=int, required=True)
    p_query.add_argument("--budget", type=float, required=True)
    p_query.add_argument(
        "--path", action="store_true", help="print the vertex path"
    )
    p_query.add_argument(
        "--trace",
        action="store_true",
        help="print the per-phase span trace of the query",
    )
    _shared(
        p_query, "--deadline-ms",
        help="per-query time budget in milliseconds; exceeding it "
        "raises a DeadlineExceededError instead of answering late",
    )
    p_query.add_argument(
        "--fallback",
        action="store_true",
        help="serve through the degradation ladder "
        "(QHL -> CSP-2Hop -> SkyDijkstra): engine failures and a "
        "missing/corrupt index degrade instead of failing",
    )
    _shared(
        p_query, "--network",
        help="network file backing the index-free fallback tier; with "
        "--fallback, lets a missing/corrupt index degrade to direct "
        "skyline Dijkstra search instead of erroring out",
    )
    _shared(p_query, "--verify-checksum")
    _shared(p_query, "--metrics-out")
    _add_flight_arguments(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_stats = sub.add_parser("stats", help="print index statistics")
    _shared(p_stats, "--index", required=True)
    p_stats.set_defaults(func=_cmd_stats)

    p_workload = sub.add_parser(
        "workload", help="generate the paper's Q1..Q5 query sets"
    )
    _shared(p_workload, "--network", required=True)
    _shared(p_workload, "--out", required=True)
    p_workload.add_argument("--size", type=int, default=100)
    _shared(p_workload, "--seed")
    _shared(p_workload, "--metrics-out")
    p_workload.set_defaults(func=_cmd_workload)

    p_bench = sub.add_parser(
        "bench", help="race engines over a query-set file"
    )
    _shared(p_bench, "--network", required=True)
    p_bench.add_argument("--queries", required=True)
    _shared(p_bench, "--index-queries", default=1000)
    _shared(p_bench, "--seed")
    p_bench.add_argument(
        "--cola", action="store_true",
        help="include the (slow) COLA baseline",
    )
    _shared(
        p_bench, "--deadline-ms",
        help="per-query time budget; queries over it are counted in "
        "the report's fail column instead of aborting the run",
    )
    _shared(p_bench, "--metrics-out")
    p_bench.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="add a QHL+cache engine with a skyline-frontier LRU of "
        "this many pairs to the race (0 = off)",
    )
    p_bench.add_argument(
        "--batch",
        action="store_true",
        help="execute each query set through the batch API "
        "(cache-friendly sorted order instead of file order)",
    )
    p_bench.add_argument(
        "--workers",
        type=int,
        default=0,
        help="with --batch, fan each query set out across this many "
        "worker processes (0 = in-process)",
    )
    p_bench.add_argument(
        "--updates",
        type=int,
        default=0,
        help="after the race, stream this many random metric deltas "
        "through the epoch-versioned update pipeline while re-running "
        "each query set, reporting query p50/p99 under churn (0 = off)",
    )
    _add_flight_arguments(p_bench)
    _add_supervision_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_update = sub.add_parser(
        "update",
        help="apply, replay, or inspect journalled live metric updates",
    )
    p_update.add_argument(
        "mode",
        choices=("apply", "replay", "status"),
        help="apply journals + publishes new deltas; replay re-applies "
        "the journal onto a fresh build; status inspects the journal",
    )
    p_update.add_argument(
        "--journal",
        required=True,
        help="journal directory (created on first use); holds "
        "journal.jsonl and the published-watermark checkpoint",
    )
    _shared(
        p_update, "--network",
        help="network file (apply/replay rebuild the dynamic index "
        "from it — saved indexes drop the elimination shortcuts the "
        "repair needs)",
    )
    p_update.add_argument(
        "--deltas",
        help="JSON-lines delta file: {\"edge\": i, \"weight\": w, "
        "\"cost\": c} per line (weight/cost optional = unchanged)",
    )
    p_update.add_argument(
        "--edge", type=int, help="single-delta form: edge index"
    )
    p_update.add_argument(
        "--weight", type=float, help="new absolute weight for --edge"
    )
    p_update.add_argument(
        "--cost", type=float, help="new absolute cost for --edge"
    )
    _shared(p_update, "--out", help="save the repaired index to this path")
    p_update.add_argument(
        "--audit",
        choices=("on", "off"),
        default="on",
        help="audit the repaired index before publishing (default on); "
        "a failing audit rolls the batch back",
    )
    p_update.add_argument(
        "--max-repair-seconds",
        type=float,
        help="roll back any repair running longer than this",
    )
    _shared(p_update, "--index-queries", default=1000)
    _shared(p_update, "--seed")
    _shared(p_update, "--json", help="status: print machine-readable JSON")
    _shared(p_update, "--metrics-out")
    _shared(p_update, "--incident-out")
    p_update.set_defaults(func=_cmd_update)

    p_flight = sub.add_parser(
        "flight", help="inspect a flight-recorder JSON-lines dump"
    )
    p_flight.add_argument(
        "mode",
        choices=("dump", "tail"),
        help="dump prints every record; tail prints the last -n",
    )
    p_flight.add_argument(
        "--file",
        required=True,
        help="flight dump written by --flight-out or the QueryService "
        "dump-on-failure hook",
    )
    p_flight.add_argument(
        "-n",
        type=int,
        default=10,
        help="records to show in tail mode (default 10)",
    )
    _shared(
        p_flight, "--json",
        help="print records as JSON-lines instead of a table",
    )
    p_flight.add_argument(
        "--slow",
        action="store_true",
        help="show only slow or failed records",
    )
    p_flight.set_defaults(func=_cmd_flight)

    p_supervise = sub.add_parser(
        "supervise",
        help="inspect a worker-supervision incident dump",
    )
    p_supervise.add_argument(
        "mode",
        choices=("status",),
        help="status prints per-worker lifecycle tallies",
    )
    p_supervise.add_argument(
        "--incidents",
        required=True,
        help="incident JSON-lines dump written by --incident-out",
    )
    p_supervise.add_argument(
        "--tail",
        type=int,
        default=5,
        help="also print the last N raw incidents (0 = table only)",
    )
    _shared(
        p_supervise, "--json",
        help="print the summary as JSON instead of a table",
    )
    p_supervise.set_defaults(func=_cmd_supervise)

    p_lint = sub.add_parser("lint", help="run the QHL invariant linter")
    from repro.lint.cli import add_lint_arguments, cmd_lint

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
