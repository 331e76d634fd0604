"""Epoch-versioned live updates: never-block swap, rollback on failure.

The dynamic repair (:mod:`repro.dynamic.updates`) makes a metric update
cheap, but applying it *in place* is unsafe against live traffic: a
crash mid-repair tears the index, and pre-update cached frontiers keep
serving afterwards.  This module wraps the repair in a crash-safe
pipeline:

1. **Journal** — the delta batch is appended to the checksummed
   write-ahead journal (:class:`~repro.dynamic.journal.UpdateJournal`)
   and fsynced before anything else moves.  An acknowledged batch
   survives any crash.
2. **Repair on a copy** — the repair sweep runs on a copy-on-write
   clone (:meth:`~repro.dynamic.updates.DynamicQHLIndex.clone`) of the
   *current epoch* while readers keep querying it.  Readers never see a
   half-repaired structure.
3. **Publish** — on success (optionally gated by
   :func:`~repro.resilience.audit.audit_index` and a repair deadline)
   the clone becomes the new epoch via an atomic pointer swap; the
   journal watermark advances through the PR-2 atomic envelope.
4. **Rollback** — on *any* failure (repair exception, audit failure,
   deadline breach, injected fault at ``update-repair`` /
   ``update-publish``) the clone is discarded, the old epoch keeps
   serving, the incident lands in the PR-7
   :class:`~repro.supervise.incidents.IncidentLog`, and the batch stays
   *pending* in the journal so :meth:`EpochManager.replay` can retry —
   deltas are absolute, so retries converge.

Startup mirrors the PR-4 kill-resume contract: the manager replays
every journalled batch above the published watermark, so updates
acknowledged before a crash are recovered exactly once (idempotently).
Each epoch carries its own :class:`~repro.perf.cache.SkylineCache`, so
cache entries are keyed by epoch construction — a published epoch can
never serve a frontier computed from an older one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only, imported lazily below
    from repro.graph.network import RoadNetwork

from repro.dynamic.journal import EdgeDelta, JournalRecord, UpdateJournal
from repro.dynamic.updates import DynamicQHLIndex, UpdateReport
from repro.exceptions import (
    DeadlineExceededError,
    InvalidGraphError,
    ReproError,
    UpdateFailedError,
)
from repro.observability.metrics import get_registry
from repro.resilience.audit import audit_index
from repro.service.deadline import Deadline
from repro.service.faults import get_injector, injected_clock
from repro.supervise.incidents import get_incident_log
from repro.types import QueryResult

#: Seconds a repair-timing histogram bucket ladder suited to
#: incremental repairs (milliseconds to tens of seconds).
REPAIR_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0,
)


def validate_deltas(
    deltas: Sequence[EdgeDelta], num_edges: int
) -> None:
    """Reject a batch the repair sweep could never apply.

    Mirrors (and slightly tightens: NaN is refused here) the checks in
    :meth:`DynamicQHLIndex.apply_deltas`, so a batch that passes here
    cannot fail repair-side validation later.  Must run *before*
    :meth:`UpdateJournal.append`: a journalled batch is durably
    acknowledged, and one that deterministically fails repair would
    otherwise stay pending forever and abort every replay.
    """
    for delta in deltas:
        if not 0 <= delta.edge < num_edges:
            raise InvalidGraphError(
                f"edge index {delta.edge} out of range for "
                f"{num_edges} edges"
            )
        for value in (delta.weight, delta.cost):
            if value is not None and not value > 0:
                raise InvalidGraphError(
                    "metrics must stay strictly positive"
                )


@dataclass(frozen=True)
class UpdateConfig:
    """Knobs of the live-update pipeline."""

    #: Per-epoch skyline-cache capacity; 0 queries the plain engine.
    cache_size: int = 0
    #: Run :func:`audit_index` on the repaired clone before publishing.
    audit_on_publish: bool = True
    audit_queries: int = 8
    audit_seed: int = 0
    #: Abort (and roll back) a repair running longer than this.
    max_repair_seconds: float | None = None
    #: Replay pending journal records when the manager starts.
    replay_on_start: bool = True


class Epoch:
    """One immutable published version of the index.

    Holds the dynamic index and its own skyline cache — readers that
    grabbed a reference keep a fully consistent view even after newer
    epochs publish.
    """

    def __init__(
        self,
        epoch_id: int,
        dyn: DynamicQHLIndex,
        config: UpdateConfig,
        created_ts: float,
    ) -> None:
        self.id = epoch_id
        self.dyn = dyn
        self.created_ts = created_ts
        # The per-epoch cache IS the epoch-keying: a fresh cache per
        # epoch means no frontier outlives the labels it came from.
        self._engine = (
            dyn.index.cached_engine(config.cache_size)
            if config.cache_size > 0
            else None
        )
        self._tier_engines: dict[str, object] = {}

    # ------------------------------------------------------------------
    def tier_engine(self, name: str) -> object:
        """A ladder-tier engine bound to this epoch's frozen view.

        Built lazily and memoised per epoch, so the service's
        degradation ladder (``QHL`` / ``CSP-2Hop`` / ``SkyDijkstra``)
        always runs against one consistent version.
        """
        engine = self._tier_engines.get(name)
        if engine is not None:
            return engine
        if name == "QHL":
            engine = (
                self._engine
                if self._engine is not None
                else self.dyn.index.qhl_engine()
            )
        elif name == "CSP-2Hop":
            engine = self.dyn.index.csp2hop_engine()
        elif name == "SkyDijkstra":
            from repro.baselines.sky_dijkstra import SkyDijkstraEngine

            engine = SkyDijkstraEngine(self.dyn.index.network)
        else:
            raise ValueError(f"unknown tier {name!r}")
        self._tier_engines[name] = engine
        return engine

    # ------------------------------------------------------------------
    def query(
        self, source: int, target: int, budget: float,
        want_path: bool = False,
    ) -> QueryResult:
        """Answer one query against this epoch's frozen view."""
        if self._engine is not None:
            return self._engine.query(
                source, target, budget, want_path=want_path
            )
        return self.dyn.query(source, target, budget, want_path=want_path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Epoch(id={self.id})"


class EpochManager:
    """Owns the journal, the current epoch, and the publish lifecycle."""

    def __init__(
        self,
        dyn: DynamicQHLIndex,
        journal_dir: str,
        config: UpdateConfig | None = None,
        clock: Callable[[], float] | None = None,
        base_seq: int | None = None,
    ) -> None:
        """``base_seq`` anchors replay: the highest journal sequence
        already reflected in ``dyn``.  ``None`` (the default) means the
        published watermark — right when the caller persisted the index
        at publish time or keeps the manager in-process.  Pass ``0``
        when ``dyn`` was rebuilt from the *original* network so every
        journalled batch (published or not) is re-applied; deltas are
        absolute, so over-replay converges and the watermark never
        regresses.
        """
        self.config = config or UpdateConfig()
        self._clock = clock if clock is not None else time.monotonic
        self.journal = UpdateJournal(journal_dir)
        if self.journal.torn_lines:
            get_incident_log().new(
                kind="update-journal-torn",
                worker="epoch-manager",
                pid=os.getpid(),
                detail=(
                    f"truncated {self.journal.torn_lines} torn journal "
                    f"line(s) in {journal_dir}"
                ),
            )
        start = (
            self.journal.published_seq()
            if base_seq is None
            else int(base_seq)
        )
        self._epoch = Epoch(start, dyn, self.config, self._now())
        self._live_net = None
        self._live_net_key: tuple[int, int] | None = None
        self._publish_metrics()
        if self.config.replay_on_start:
            self.replay()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return (injected_clock() or self._clock)()

    @property
    def epoch(self) -> Epoch:
        """The currently published epoch (atomic attribute read)."""
        return self._epoch

    def query(
        self, source: int, target: int, budget: float,
        want_path: bool = False,
    ) -> QueryResult:
        """Answer a query; never blocks on an in-flight update."""
        return self._epoch.query(source, target, budget, want_path)

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Acknowledged batches this manager has not yet published."""
        return max(0, self.journal.last_seq() - self._epoch.id)

    def staleness_seconds(self) -> float:
        """Age of the oldest pending batch (0.0 when fully caught up).

        Clamped at zero: journal timestamps come from a monotonic
        clock, which restarts with the process, so a replayed record
        from a previous run can carry a "future" timestamp.
        """
        pending = self._pending()
        if not pending:
            return 0.0
        return max(0.0, self._now() - pending[0].ts)

    def _pending(self) -> list[JournalRecord]:
        return [
            r for r in self.journal.records() if r.seq > self._epoch.id
        ]

    def live_network(self) -> "RoadNetwork":
        """The network with *every* acknowledged delta applied.

        Unlike the serving epoch (which lags behind by the backlog),
        this view includes pending batches — no labels, so it is cheap
        to refresh.  The degradation ladder's index-free tier runs on
        it when the backlog forces a shed: fresh answers at search
        latency instead of fast answers at unbounded staleness.
        """
        key = (self._epoch.id, self.journal.last_seq())
        if self._live_net_key == key and self._live_net is not None:
            return self._live_net
        network = self._epoch.dyn.index.network
        deltas: list[EdgeDelta] = []
        for record in self._pending():
            try:
                validate_deltas(record.deltas, network.num_edges)
            except InvalidGraphError:
                # Unrepairable batch (foreign/hand-edited journal);
                # replay() quarantines it — don't let it poison the
                # index-free shed tier in the meantime.
                continue
            deltas += record.deltas
        # One derivation for every pending batch: a later delta of an
        # edge wins, as applying the batches in order would.
        self._live_net = network.with_edge_metrics(deltas)
        self._live_net_key = key
        return self._live_net

    # ------------------------------------------------------------------
    def apply(
        self,
        deltas: Sequence[EdgeDelta] | Sequence[
            tuple[int, float | None, float | None]
        ],
    ) -> UpdateReport:
        """Journal one delta batch, repair a clone, publish it.

        The batch is validated first (edge range, strictly positive
        metrics — :exc:`InvalidGraphError` rejects it *unacknowledged*),
        then made durable (journalled + fsynced) before the repair
        starts; on any repair/audit/publish failure the update rolls
        back but stays pending, and :exc:`UpdateFailedError` propagates.
        """
        batch = tuple(EdgeDelta(*d) for d in deltas)
        validate_deltas(batch, self._epoch.dyn.index.network.num_edges)
        record = self.journal.append(batch, ts=self._now())
        self._refresh_gauges()
        return self._apply_record(record)

    def replay(self) -> int:
        """Apply every pending journal record, oldest first.

        Returns the number of batches published.  This is the startup
        recovery path *and* the retry path after a rolled-back apply.
        A batch that can *never* repair (fails delta validation — only
        possible in a journal this code did not write, since
        :meth:`apply` validates before acknowledging) is quarantined
        and skipped instead of aborting the replay: re-raising on it
        every restart would permanently brick the journal directory.
        """
        published = 0
        for record in self._pending():
            try:
                self._apply_record(record)
            except UpdateFailedError as exc:
                if isinstance(exc.__cause__, InvalidGraphError):
                    self._quarantine(record, exc.__cause__)
                    continue
                raise
            published += 1
        return published

    # ------------------------------------------------------------------
    def _apply_record(self, record: JournalRecord) -> UpdateReport:
        injector = get_injector()
        clone = self._epoch.dyn.clone()
        reason = "repair"
        try:
            injector.fire("update-repair", seq=record.seq)
            deadline = None
            if self.config.max_repair_seconds is not None:
                deadline = Deadline(
                    self.config.max_repair_seconds, clock=self._now
                )
            report = clone.apply_deltas(record.deltas, deadline=deadline)
            if self.config.audit_on_publish:
                reason = "audit"
                audit = audit_index(
                    clone.index,
                    queries=self.config.audit_queries,
                    seed=self.config.audit_seed,
                )
                if not audit.ok:
                    raise UpdateFailedError(
                        "repaired index failed its audit: "
                        + ", ".join(audit.failed_checks()),
                        seq=record.seq,
                        reason="audit",
                    )
            reason = "publish"
            new_epoch = Epoch(
                record.seq, clone, self.config, self._now()
            )
            injector.fire(
                "update-publish", seq=record.seq, epoch=record.seq
            )
        except DeadlineExceededError as exc:
            self._rollback(record, "deadline", exc)
            raise UpdateFailedError(
                f"update batch {record.seq} overran its repair budget",
                seq=record.seq,
                reason="deadline",
            ) from exc
        except UpdateFailedError as exc:
            self._rollback(record, exc.reason or reason, exc)
            raise
        except (ReproError, OSError, RuntimeError) as exc:
            self._rollback(record, reason, exc)
            raise UpdateFailedError(
                f"update batch {record.seq} failed during {reason}: {exc}",
                seq=record.seq,
                reason=reason,
            ) from exc

        # The swap: readers racing this line see either epoch, whole.
        self._epoch = new_epoch
        self.journal.mark_published(record.seq)
        self._count_publish(record, report)
        return report

    def _rollback(
        self,
        record: JournalRecord,
        reason: str,
        exc: BaseException,
    ) -> None:
        """Drop the failed clone; the old epoch keeps serving."""
        get_incident_log().new(
            kind="update-rollback",
            worker="epoch-manager",
            pid=os.getpid(),
            detail=(
                f"batch seq={record.seq} rolled back during {reason}: "
                f"{exc}"
            ),
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "update_rollbacks_total",
                {"reason": reason},
                help="update batches rolled back, by failure stage",
            ).inc()
            registry.counter(
                "update_batches_total",
                {"status": "rolled-back"},
                help="journalled update batches by outcome",
            ).inc()
        self._refresh_gauges()

    def _quarantine(
        self, record: JournalRecord, exc: BaseException
    ) -> None:
        """Skip past a batch that deterministically can never repair.

        The batch has no legal effect on the index, so the serving
        epoch is re-badged with its sequence number and the watermark
        advances — equivalent to publishing it as a no-op.  The loss is
        logged as an incident and counted; the alternative (re-raising
        on it forever) turns one bad record into a permanent startup
        failure.
        """
        get_incident_log().new(
            kind="update-quarantined",
            worker="epoch-manager",
            pid=os.getpid(),
            detail=(
                f"batch seq={record.seq} quarantined "
                f"(unrepairable, skipped): {exc}"
            ),
        )
        self._epoch.id = record.seq  # lint: allow=QHL009 re-badge only: quarantine publishes the serving epoch as the no-op batch, and an int store is atomic for readers
        self.journal.mark_published(record.seq)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "update_batches_total",
                {"status": "quarantined"},
                help="journalled update batches by outcome",
            ).inc()
        self._publish_metrics()

    # ------------------------------------------------------------------
    def _count_publish(
        self, record: JournalRecord, report: UpdateReport
    ) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "update_batches_total",
                {"status": "published"},
                help="journalled update batches by outcome",
            ).inc()
            registry.counter(
                "update_edges_total",
                help="edge-metric deltas applied to published epochs",
            ).inc(len(record.deltas))
            registry.histogram(
                "update_repair_seconds",
                help="incremental repair wall time per published batch",
                buckets=REPAIR_BUCKETS,
            ).observe(report.seconds)
        self._publish_metrics()

    def _publish_metrics(self) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "update_epoch",
                help="journal sequence number of the serving epoch",
            ).set(self._epoch.id)
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "update_backlog",
                help="acknowledged update batches not yet published",
            ).set(self.backlog())
            registry.gauge(
                "update_staleness_seconds",
                help="age of the oldest pending update batch",
            ).set(self.staleness_seconds())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the manager's life.

        A no-op: epochs live in memory and the journal holds no open
        handle, so there is nothing to release.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EpochManager(epoch={self._epoch.id}, "
            f"backlog={self.backlog()})"
        )
