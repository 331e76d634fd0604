"""The fault-tolerant query service: deadline + degradation ladder.

:class:`QueryService` wraps the paper's engines into a degradation
ladder: hop labelings fall back to skyline Dijkstra when labels are
absent, as COLA-style overlays degrade to plain constrained search:

    QHL  →  CSP-2Hop  →  SkyDijkstra (index-free, always available)

Every tier answers the *exact* optimum — degradation trades speed, not
correctness — so stepping down on an engine exception or a missing /
corrupt index is always safe.  Each tier sits behind its own
:class:`~repro.service.breaker.CircuitBreaker`: consecutive failures
open the breaker (the ladder skips the tier without paying the failure
again), and after a backoff it half-opens to probe recovery.

Observability (PR-1 registry, when one is installed):

* ``service_queries_total{tier}`` — answers per tier,
* ``service_fallback_total{from,to,reason}`` — every ladder step down,
* ``service_deadline_exceeded_total{engine}`` — budget exhaustions,
* ``service_breaker_transitions_total{tier,state}`` — breaker flips,
* ``service_index_load_failures_total`` — degraded-from-birth starts.

PR-6 adds the query flight recorder: every query leaves one
:class:`~repro.observability.flight.FlightRecord` (trace id, tier
used, cache hit/miss, deadline margin, op counters, outcome) in the
service's bounded ring (``ServiceConfig.flight_records``), and breaker
trips / fully failed ladders automatically dump the ring to
``ServiceConfig.flight_dump_dir`` so a production incident leaves
forensic evidence behind.

Deadlines are *not* tier failures: a query that exhausts its budget on
the fastest tier would only get slower below, so
:class:`~repro.exceptions.DeadlineExceededError` propagates to the
caller immediately.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.sky_dijkstra import SkyDijkstraEngine
from repro.core.engine import QHLIndex
from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    ReproError,
    SerializationError,
    ServiceUnavailableError,
)
from repro.graph.network import RoadNetwork
from repro.observability.flight import (
    FlightRecorder,
    get_flight_recorder,
)
from repro.observability.metrics import get_registry
from repro.observability.propagation import new_trace_id
from repro.service.breaker import CircuitBreaker
from repro.service.deadline import Deadline
from repro.service.faults import get_injector
from repro.storage.serialize import load_index_with_retry
from repro.types import CSPQuery, QueryResult

#: Ladder order: fastest first, index-free last resort last.
DEFAULT_TIERS: tuple[str, ...] = ("QHL", "CSP-2Hop", "SkyDijkstra")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`QueryService`."""

    #: Default per-query budget in milliseconds (``None`` = no deadline).
    deadline_ms: float | None = None
    #: Ladder tiers, tried in order; unknown names raise at build time.
    tiers: tuple[str, ...] = DEFAULT_TIERS
    #: Consecutive failures that open a tier's breaker.
    breaker_failure_threshold: int = 3
    #: Seconds an open breaker waits before half-opening.
    breaker_reset_s: float = 30.0
    #: Half-open probe failure multiplies the wait by this factor…
    breaker_backoff_factor: float = 2.0
    #: …capped here.
    breaker_max_reset_s: float = 300.0
    #: Attempts for loading an index from ``index_path``.
    load_attempts: int = 3
    #: Verify the SHA-256 payload checksum when loading an index.
    verify_checksum: bool = True
    #: Skyline-frontier cache capacity for the QHL tier (pairs);
    #: ``0`` disables caching and keeps the plain QHL engine.
    cache_size: int = 0
    #: Audit the index (structural invariants + seeded spot-checks
    #: against constrained Dijkstra) before serving from it; an index
    #: that fails is dropped and the service degrades to its index-free
    #: tier, with the report kept in ``service.audit_report``.
    require_audit: bool = False
    #: Spot-check queries the audit gate runs (see
    #: :func:`repro.resilience.audit.audit_index`).
    audit_queries: int = 8
    #: Seed for the audit gate's sampling.
    audit_seed: int = 0
    #: Flight-recorder ring capacity for this service; ``0`` gives the
    #: service no recorder of its own — it then reports into whatever
    #: recorder is globally installed (the inert one by default).
    flight_records: int = 256
    #: Slow-query threshold in milliseconds for the flight recorder's
    #: slow/failed side log (``None`` = no slow classification).
    flight_slow_ms: float | None = None
    #: Directory for automatic flight dumps on breaker-open and
    #: service-unavailable; ``None`` disables the automatic dumps.
    flight_dump_dir: str | None = None
    #: With an ``epoch_manager`` attached: when its journal backlog
    #: exceeds this many batches, the labeled tiers (serving the lagging
    #: epoch) are shed and queries step down to the index-free tier on
    #: the *live* metric state — fresh answers at search latency instead
    #: of fast answers at unbounded staleness.  ``None`` never sheds.
    max_update_backlog: int | None = None


class _EpochTierEngine:
    """A ladder tier that re-resolves the serving epoch on every call.

    The manager's epoch pointer swaps atomically on publish; binding it
    per query means the service picks up a freshly published epoch
    without being rebuilt, and a query that already resolved the old
    epoch finishes on that consistent view.  The index-free tier runs
    on :meth:`~repro.dynamic.epochs.EpochManager.live_network` — the
    metric state including *pending* batches — so shed traffic gets
    fresh answers.
    """

    def __init__(self, manager, name: str):
        self._manager = manager
        self.name = name
        self._live_engine = None
        self._live_net = None

    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        if self.name == "SkyDijkstra":
            net = self._manager.live_network()
            if self._live_net is not net:
                self._live_engine = SkyDijkstraEngine(net)
                self._live_net = net
            return self._live_engine.query(
                source, target, budget,
                want_path=want_path, deadline=deadline,
            )
        return self._manager.epoch.tier_engine(self.name).query(
            source, target, budget, want_path=want_path, deadline=deadline
        )


class _Tier:
    """One rung of the ladder: an engine plus its breaker."""

    __slots__ = ("name", "engine", "breaker")

    def __init__(self, name: str, engine, breaker: CircuitBreaker):
        self.name = name
        self.engine = engine
        self.breaker = breaker


class QueryService:
    """Resilient CSP serving over the QHL degradation ladder.

    Build from an in-memory index, an index path (load failures degrade
    the service to its index-free tier instead of killing it), or a
    bare network (index-free from the start)::

        service = QueryService(index=index)
        service = QueryService(index_path="ny.idx", network=network)
        service = QueryService(network=network)

    ``engines`` overrides the auto-built tier engines (for tests and
    custom ladders); each needs ``name`` and
    ``query(s, t, budget, want_path=..., deadline=...)``.  The service
    itself satisfies the harness'
    :class:`~repro.instrument.harness.QueryEngine` protocol.
    """

    name = "service"

    def __init__(
        self,
        index: QHLIndex | None = None,
        network: RoadNetwork | None = None,
        index_path: str | None = None,
        config: ServiceConfig | None = None,
        engines: Sequence | None = None,
        clock: Callable[[], float] | None = None,
        epoch_manager=None,
    ):
        self.config = config or ServiceConfig()
        #: Optional :class:`~repro.dynamic.epochs.EpochManager`; when
        #: set, tier engines resolve the manager's *current* epoch per
        #: query (so a publish is picked up without rebuilding the
        #: service) and ``max_update_backlog`` governs backlog shedding.
        self.epoch_manager = epoch_manager
        self._clock = clock if clock is not None else time.monotonic
        self.index_load_error: ReproError | None = None
        #: The service's own flight recorder (``None`` when
        #: ``flight_records == 0``; the global recorder is used then).
        self.flight: FlightRecorder | None = (
            FlightRecorder(
                self.config.flight_records,
                slow_ms=self.config.flight_slow_ms,
            )
            if self.config.flight_records > 0
            else None
        )
        #: Path of the most recent automatic flight dump, if any.
        self.last_flight_dump: str | None = None
        self._dump_seq = itertools.count(1)
        self._last_flight = None
        #: The :class:`~repro.resilience.audit.AuditReport` of the
        #: ``require_audit`` gate (``None`` when the gate is off or no
        #: index was available to audit).
        self.audit_report = None
        if index is None and index_path is not None:
            index = self._load_index(index_path)
        if index is None and epoch_manager is not None:
            index = epoch_manager.epoch.dyn.index
        if network is None and index is not None:
            network = index.network
        if index is not None and self.config.require_audit:
            index = self._audit_gate(index)
        if network is None and index is None and not engines:
            if self.index_load_error is not None:
                # Nothing to degrade to: surface the typed load error.
                raise self.index_load_error
            raise ValueError(
                "QueryService needs an index, an index_path, a network, "
                "or explicit engines"
            )
        self.index = index
        self.network = network
        self._tiers = [
            _Tier(engine.name, engine, self._make_breaker(engine.name))
            for engine in (
                engines if engines is not None else self._build_engines()
            )
        ]
        if not self._tiers:
            if self.index_load_error is not None:
                raise self.index_load_error
            raise ValueError("QueryService ended up with no tiers")

    # ------------------------------------------------------------------
    def _load_index(self, path: str) -> QHLIndex | None:
        try:
            return load_index_with_retry(
                path,
                attempts=self.config.load_attempts,
                verify_checksum=self.config.verify_checksum,
            )
        except (SerializationError, OSError) as exc:
            # Degrade instead of dying: the index is a rebuildable cache
            # over the always-available online search.
            self.index_load_error = (
                exc
                if isinstance(exc, ReproError)
                else SerializationError(str(exc))
            )
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "service_index_load_failures_total",
                    help="index loads that failed and degraded the service",
                ).inc()
            return None

    def _audit_gate(self, index: QHLIndex) -> QHLIndex | None:
        """Run the opt-in index audit; drop a failing index.

        Degradation, not death: like a corrupt index file, an index
        that fails its self-audit is treated as a rebuildable cache —
        the service keeps running on the index-free tier, the typed
        :class:`~repro.exceptions.AuditError` (with the full report)
        lands in ``index_load_error``, and the report is kept in
        ``audit_report`` either way.
        """
        from repro.exceptions import AuditError
        from repro.resilience.audit import audit_index

        report = audit_index(
            index,
            queries=self.config.audit_queries,
            seed=self.config.audit_seed,
        )
        self.audit_report = report
        if report.ok:
            return index
        self.index_load_error = AuditError(
            "index failed its self-audit "
            f"({', '.join(report.failed_checks())}); "
            "serving index-free",
            report=report,
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_index_audit_failures_total",
                help="indexes rejected by the require_audit gate",
            ).inc()
        return None

    def _build_engines(self) -> list:
        if self.epoch_manager is not None:
            return [
                _EpochTierEngine(self.epoch_manager, name)
                for name in self.config.tiers
            ]
        engines = []
        for name in self.config.tiers:
            if name == "QHL":
                if self.index is not None:
                    engines.append(
                        self.index.cached_engine(self.config.cache_size)
                        if self.config.cache_size > 0
                        else self.index.qhl_engine()
                    )
            elif name == "CSP-2Hop":
                if self.index is not None:
                    engines.append(self.index.csp2hop_engine())
            elif name == "SkyDijkstra":
                if self.network is not None:
                    engines.append(SkyDijkstraEngine(self.network))
            else:
                raise ValueError(
                    f"unknown tier {name!r}; known: "
                    f"{', '.join(DEFAULT_TIERS)}"
                )
        return engines

    def _make_breaker(self, tier: str) -> CircuitBreaker:
        def on_transition(state: str, _tier: str = tier) -> None:
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "service_breaker_transitions_total",
                    {"tier": _tier, "state": state},
                    help="circuit breaker state transitions",
                ).inc()
            if state == "open":
                # A tripped breaker is exactly when forensic evidence
                # matters: dump the flight ring before it rolls over.
                self._auto_dump(self._recorder(), f"breaker-open-{_tier}")

        return CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_s,
            backoff_factor=self.config.breaker_backoff_factor,
            max_timeout=self.config.breaker_max_reset_s,
            clock=self._clock,
            on_transition=on_transition,
        )

    # ------------------------------------------------------------------
    def _recorder(self):
        """The flight recorder this service reports into."""
        return self.flight if self.flight is not None else (
            get_flight_recorder()
        )

    def _auto_dump(self, recorder, reason: str) -> None:
        """Dump the flight ring to ``flight_dump_dir`` (best-effort)."""
        directory = self.config.flight_dump_dir
        if directory is None or not recorder.enabled:
            return
        if not recorder.records():
            return
        name = (
            f"flight-{os.getpid()}-{next(self._dump_seq):04d}-"
            f"{reason}.jsonl"
        )
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, exist_ok=True)
            recorder.dump(path, reason=reason)
        except OSError:
            return
        self.last_flight_dump = path

    # ------------------------------------------------------------------
    @property
    def tiers(self) -> list[str]:
        """The active ladder, fastest first."""
        return [tier.name for tier in self._tiers]

    def breaker(self, tier: str) -> CircuitBreaker:
        """The circuit breaker guarding ``tier`` (KeyError if absent)."""
        for candidate in self._tiers:
            if candidate.name == tier:
                return candidate.breaker
        raise KeyError(tier)

    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        """Answer one CSP query through the ladder.

        ``deadline_ms`` arms a fresh per-query deadline (defaulting to
        the config's); pass an existing ``deadline`` instead to share a
        per-batch budget across queries.  The answer's
        :attr:`~repro.types.QueryResult.engine` names the tier that
        produced it.

        Raises
        ------
        QueryError
            Malformed queries fail fast — no tier could answer them.
        DeadlineExceededError
            The budget ran out (falling back would only be slower).
        ServiceUnavailableError
            Every tier failed or had an open breaker.
        """
        recorder = self._recorder()
        flight_on = recorder.enabled
        trace_id = new_trace_id() if flight_on else None
        started = time.perf_counter() if flight_on else 0.0
        self._last_flight = None

        def note(
            engine: str,
            outcome: str,
            result: QueryResult | None = None,
            error: BaseException | None = None,
            cache_hit: bool | None = None,
        ) -> None:
            stats = getattr(result, "stats", None)
            if stats is None and error is not None:
                stats = getattr(error, "stats", None)
            margin = (
                deadline.remaining() * 1000.0
                if deadline is not None else None
            )
            self._last_flight = recorder.record(
                engine=engine,
                source=source,
                target=target,
                budget=budget,
                outcome=outcome,
                seconds=time.perf_counter() - started,
                trace_id=trace_id,
                cache_hit=cache_hit,
                deadline_margin_ms=margin,
                stats=stats,
                error=str(error) if error is not None else "",
            )

        num_vertices = (
            self.network.num_vertices if self.network is not None else None
        )
        if num_vertices is not None:
            try:
                CSPQuery(source, target, budget).validated(num_vertices)
            except QueryError as exc:
                if flight_on:
                    note("none", type(exc).__name__, error=exc)
                raise
        if deadline is None:
            ms = deadline_ms if deadline_ms is not None else (
                self.config.deadline_ms
            )
            if ms is not None:
                deadline = Deadline.from_ms(ms, clock=self._deadline_clock())
        injector = get_injector()
        registry = get_registry()
        last_error: BaseException | None = None
        shed_stale = (
            self.epoch_manager is not None
            and self.config.max_update_backlog is not None
            and self.epoch_manager.backlog() > self.config.max_update_backlog
            # Shedding only makes sense when the index-free tier is in
            # the ladder to land on; with a labeled-only ladder, a
            # lagging-but-healthy answer beats a guaranteed outage.
            and any(t.name == "SkyDijkstra" for t in self._tiers)
        )
        for position, tier in enumerate(self._tiers):
            next_name = (
                self._tiers[position + 1].name
                if position + 1 < len(self._tiers)
                else None
            )
            if shed_stale and tier.name != "SkyDijkstra":
                # The labeled tiers serve the lagging epoch; past the
                # backlog threshold, prefer fresh-but-slower answers
                # from the index-free tier on the live metrics.
                self._record_fallback(
                    registry, tier.name, next_name, "update-backlog"
                )
                continue
            if not tier.breaker.allow():
                self._record_fallback(
                    registry, tier.name, next_name, "breaker-open"
                )
                continue
            cache = (
                getattr(tier.engine, "cache", None) if flight_on else None
            )
            hits_before = getattr(cache, "hits", 0)
            try:
                if injector.enabled:
                    injector.fire("engine-query", engine=tier.name)
                result = tier.engine.query(
                    source, target, budget,
                    want_path=want_path, deadline=deadline,
                )
            except DeadlineExceededError as exc:
                # Not a tier fault: the query is out of time everywhere.
                if registry.enabled:
                    registry.counter(
                        "service_deadline_exceeded_total",
                        {"engine": tier.name},
                        help="queries that exhausted their time budget",
                    ).inc()
                if flight_on:
                    note(tier.name, type(exc).__name__, error=exc)
                raise
            except QueryError as exc:
                if flight_on:
                    note(tier.name, type(exc).__name__, error=exc)
                raise
            except Exception as exc:  # lint: allow=QHL002 the ladder's contract is to absorb any tier crash and fall through; the cause is kept in last_error
                last_error = exc
                tier.breaker.record_failure()
                self._record_fallback(
                    registry, tier.name, next_name, type(exc).__name__
                )
                continue
            tier.breaker.record_success()
            result.engine = tier.name
            if registry.enabled:
                registry.counter(
                    "service_queries_total",
                    {"tier": tier.name},
                    help="queries answered, by ladder tier",
                ).inc()
            if flight_on:
                note(
                    tier.name,
                    "ok" if result.feasible else "infeasible",
                    result=result,
                    cache_hit=(
                        cache.hits > hits_before
                        if cache is not None else None
                    ),
                )
            return result
        error = ServiceUnavailableError(
            f"no tier could answer query ({source}, {target}, {budget}); "
            f"tried {', '.join(self.tiers)}; last error: {last_error}",
            last_error=last_error,
        )
        if flight_on:
            note("none", type(error).__name__, error=error)
            self._auto_dump(recorder, "service-unavailable")
        raise error

    # ------------------------------------------------------------------
    def query_batch(
        self,
        queries: Sequence,
        want_path: bool = False,
        deadline_ms: float | None = None,
        batch_deadline_ms: float | None = None,
    ):
        """Answer a whole workload through the ladder.

        Queries run in cache-friendly order (sorted by normalised
        ``(s, t)`` pair, so a cache-enabled QHL tier answers repeated
        pairs from one frontier) but results come back in *input*
        order, in a :class:`~repro.perf.batch.BatchReport`.

        The PR-2 deadline checkpoints are preserved inside the batch
        loop: ``deadline_ms`` arms a fresh per-query deadline,
        ``batch_deadline_ms`` arms one shared deadline — it is checked
        between queries (remaining queries land in ``skipped``) and
        threaded into every engine, so a single slow query cannot
        overrun the batch budget unchecked.  Per-query failures —
        including deadline expiries and a fully failed ladder — become
        :class:`~repro.perf.batch.BatchFailure` rows instead of
        aborting the batch.
        """
        from repro.perf.batch import BatchFailure, BatchReport
        from repro.perf.batch import sorted_batch_order

        batch_deadline = (
            Deadline.from_ms(batch_deadline_ms, clock=self._deadline_clock())
            if batch_deadline_ms is not None
            else None
        )
        results: list[QueryResult | None] = [None] * len(queries)
        failures: list[BatchFailure] = []
        skipped = 0
        for i in sorted_batch_order(queries):
            if batch_deadline is not None and batch_deadline.expired():
                skipped += 1
                continue
            s, t, c = queries[i]
            per_query = (
                Deadline.from_ms(deadline_ms, clock=self._deadline_clock())
                if deadline_ms is not None
                else batch_deadline
            )
            try:
                results[i] = self.query(
                    s, t, c, want_path=want_path, deadline=per_query
                )
            except ReproError as exc:
                # Join the failure row to the flight record query()
                # just wrote for it (None when no recorder is active).
                entry = self._last_flight
                failures.append(
                    BatchFailure(
                        i, CSPQuery(s, t, c), type(exc).__name__,
                        str(exc),
                        trace_id=(
                            entry.trace_id if entry is not None else None
                        ),
                        flight_seq=(
                            entry.seq if entry is not None else None
                        ),
                    )
                )
        failures.sort(key=lambda f: f.index)
        return BatchReport(
            results=results, failures=failures, skipped=skipped
        )

    # ------------------------------------------------------------------
    def _deadline_clock(self) -> Callable[[], float]:
        injector = get_injector()
        if injector.enabled and injector.clock is not None:
            return injector.clock
        return self._clock

    @staticmethod
    def _record_fallback(registry, frm: str, to: str | None, reason: str
                         ) -> None:
        if registry.enabled:
            registry.counter(
                "service_fallback_total",
                {"from": frm, "to": to or "none", "reason": reason},
                help="degradation ladder step-downs",
            ).inc()
