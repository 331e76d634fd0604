"""Epoch lifecycle chaos: rollback on any failure, replay converges.

The ISSUE acceptance matrix: with faults injected at each of
``update-journal-append`` / ``update-repair`` / ``update-publish``,
queries keep answering *correctly from the old epoch*, the journal
replay converges, and the final index is bit-identical on
``pack_labels`` to a fresh build over the final edge metrics.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines import constrained_dijkstra
from repro.dynamic import EdgeDelta, EpochManager, UpdateConfig
from repro.dynamic.journal import UpdateJournal
from repro.exceptions import (
    InvalidGraphError,
    UpdateFailedError,
    UpdateJournalError,
)
from repro.graph import RoadNetwork
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.service.faults import FaultInjector, use_injector
from repro.storage.compact import pack_labels
from repro.supervise.incidents import IncidentLog, use_incident_log

QUERY = (0, 24, 500)

#: One manager-level config shared by most tests: no audit (covered
#: separately; it triples the apply cost).
FAST = UpdateConfig(audit_on_publish=False, replay_on_start=False)


def ground_truth(manager_or_edges, s, t, budget):
    """The exact CSP answer over the given edge list / manager epoch."""
    edges = (
        manager_or_edges
        if isinstance(manager_or_edges, list)
        else manager_or_edges.epoch.dyn.network_edges()
    )
    num_vertices = max(max(u, v) for u, v, _w, _c in edges) + 1
    net = RoadNetwork.from_edges(num_vertices, edges)
    return constrained_dijkstra(net, s, t, budget, want_path=False).pair()


class TestPublishLifecycle:
    def test_apply_advances_the_epoch(self, dyn, tmp_path):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        assert manager.epoch.id == 0
        manager.apply([EdgeDelta(3, 55.0, None)])
        assert manager.epoch.id == 1
        assert manager.backlog() == 0
        assert manager.journal.published_seq() == 1

    def test_queries_match_ground_truth_after_each_epoch(
        self, dyn, tmp_path
    ):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        rng = random.Random(4)
        for _ in range(3):
            manager.apply([
                EdgeDelta(
                    rng.randrange(dyn.index.network.num_edges),
                    float(rng.randint(1, 40)),
                    float(rng.randint(1, 40)),
                )
            ])
            s, t, budget = QUERY
            assert manager.query(s, t, budget).pair() == ground_truth(
                manager, s, t, budget
            )

    def test_readers_holding_the_old_epoch_stay_consistent(
        self, dyn, tmp_path
    ):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        old = manager.epoch
        s, t, budget = QUERY
        before = old.query(s, t, budget).pair()
        manager.apply([EdgeDelta(3, 999.0, 999.0)])
        # The swapped-out epoch still answers its own (pre-update)
        # version — a reader mid-request never sees a half repair.
        assert old.query(s, t, budget).pair() == before
        assert manager.epoch is not old

    def test_batched_deltas_publish_as_one_epoch(self, dyn, tmp_path):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        report = manager.apply([
            EdgeDelta(0, 11.0, None),
            EdgeDelta(1, None, 12.0),
            EdgeDelta(2, 13.0, 14.0),
        ])
        assert report.edges_applied == 3
        assert manager.epoch.id == 1
        assert manager.epoch.dyn.network_edges()[2][2:] == (13.0, 14.0)

    def test_per_epoch_cache_serves_fresh_answers(self, dyn, tmp_path):
        manager = EpochManager(
            dyn,
            str(tmp_path),
            UpdateConfig(
                cache_size=64, audit_on_publish=False,
                replay_on_start=False,
            ),
        )
        s, t, budget = QUERY
        manager.query(s, t, budget)  # warm the epoch-0 cache
        manager.apply([EdgeDelta(3, 77.0, 3.0)])
        # The new epoch carries a fresh cache: no pre-update frontier
        # can leak through the swap.
        assert manager.query(s, t, budget).pair() == ground_truth(
            manager, s, t, budget
        )


class TestChaosMatrix:
    """Faults at every update injection point, rollback, convergence."""

    @pytest.mark.parametrize("point", ["update-repair", "update-publish"])
    def test_fault_rolls_back_and_replay_converges(
        self, dyn, tmp_path, fresh_index, point
    ):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        s, t, budget = QUERY
        before_edges = manager.epoch.dyn.network_edges()
        before = ground_truth(before_edges, s, t, budget)
        incidents = IncidentLog()
        injector = FaultInjector()
        injector.fail(point, exc=RuntimeError, times=1)
        with use_incident_log(incidents), use_injector(injector):
            with pytest.raises(UpdateFailedError) as excinfo:
                manager.apply([EdgeDelta(3, 64.0, 8.0)])
        # Rolled back: the old epoch serves, the batch stays pending.
        assert manager.epoch.id == 0
        assert manager.query(s, t, budget).pair() == before
        assert manager.backlog() == 1
        assert excinfo.value.seq == 1
        kinds = [i.kind for i in incidents.records()]
        assert "update-rollback" in kinds
        # Replay (no fault this time) converges to the repaired index.
        assert manager.replay() == 1
        assert manager.backlog() == 0
        assert manager.epoch.id == 1
        assert manager.query(s, t, budget).pair() == ground_truth(
            manager, s, t, budget
        )
        fresh = fresh_index(manager.epoch.dyn.network_edges())
        assert pack_labels(manager.epoch.dyn.index.labels) == pack_labels(
            fresh.labels
        )

    def test_journal_append_fault_never_acknowledges(
        self, dyn, tmp_path
    ):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        s, t, budget = QUERY
        before = manager.query(s, t, budget).pair()
        injector = FaultInjector()
        injector.fail(
            "update-journal-append", exc=OSError, times=1,
            match={"stage": "write"},
        )
        with use_injector(injector):
            with pytest.raises(UpdateJournalError):
                manager.apply([EdgeDelta(3, 64.0, None)])
        # Nothing was acknowledged: no pending work, nothing to replay.
        assert manager.journal.last_seq() == 0
        assert manager.backlog() == 0
        assert manager.replay() == 0
        assert manager.query(s, t, budget).pair() == before

    def test_fault_reasons_are_staged(self, dyn, tmp_path):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        injector = FaultInjector()
        injector.fail("update-repair", exc=RuntimeError, times=1)
        with use_injector(injector):
            with pytest.raises(UpdateFailedError) as excinfo:
                manager.apply([EdgeDelta(0, 9.0, None)])
        assert excinfo.value.reason == "repair"
        injector = FaultInjector()
        injector.fail("update-publish", exc=OSError, times=1)
        with use_injector(injector):
            with pytest.raises(UpdateFailedError) as excinfo:
                manager.replay()
        assert excinfo.value.reason == "publish"

    def test_repeated_faults_then_replay_bit_identical(
        self, dyn, tmp_path, fresh_index
    ):
        """A storm: every batch fails once before publishing."""
        manager = EpochManager(dyn, str(tmp_path), FAST)
        deltas = [
            [EdgeDelta(3, 40.0, None)],
            [EdgeDelta(7, None, 25.0)],
            [EdgeDelta(11, 18.0, 6.0)],
        ]
        for i, batch in enumerate(deltas):
            point = "update-repair" if i % 2 == 0 else "update-publish"
            injector = FaultInjector()
            injector.fail(point, exc=RuntimeError, times=1)
            with use_injector(injector):
                with pytest.raises(UpdateFailedError):
                    manager.apply(batch)
            assert manager.replay() == 1
        assert manager.epoch.id == 3
        fresh = fresh_index(manager.epoch.dyn.network_edges())
        assert pack_labels(manager.epoch.dyn.index.labels) == pack_labels(
            fresh.labels
        )

    def test_audit_gate_blocks_a_bad_publish(
        self, dyn, tmp_path, monkeypatch
    ):
        class DoomedAudit:
            ok = False

            @staticmethod
            def failed_checks():
                return ["query-ground-truth"]

        monkeypatch.setattr(
            "repro.dynamic.epochs.audit_index",
            lambda *a, **k: DoomedAudit,
        )
        manager = EpochManager(
            dyn,
            str(tmp_path),
            UpdateConfig(replay_on_start=False),
        )
        with pytest.raises(UpdateFailedError) as excinfo:
            manager.apply([EdgeDelta(3, 33.0, None)])
        assert excinfo.value.reason == "audit"
        assert "query-ground-truth" in str(excinfo.value)
        assert manager.epoch.id == 0
        assert manager.backlog() == 1

    def test_audit_gate_passes_a_good_publish(self, dyn, tmp_path):
        manager = EpochManager(
            dyn,
            str(tmp_path),
            UpdateConfig(
                audit_queries=4, replay_on_start=False
            ),
        )
        manager.apply([EdgeDelta(3, 33.0, None)])
        assert manager.epoch.id == 1

    def test_repair_deadline_rolls_back(self, dyn, tmp_path):
        ticks = iter(range(0, 10_000, 100))  # 100 s per reading

        manager = EpochManager(
            dyn,
            str(tmp_path),
            UpdateConfig(
                audit_on_publish=False, max_repair_seconds=1.0,
                replay_on_start=False,
            ),
            clock=lambda: float(next(ticks)),
        )
        with pytest.raises(UpdateFailedError) as excinfo:
            manager.apply([EdgeDelta(3, 12.0, None)])
        assert excinfo.value.reason == "deadline"
        assert manager.epoch.id == 0
        assert manager.backlog() == 1

    def test_rollback_metrics_and_gauges(self, dyn, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            manager = EpochManager(dyn, str(tmp_path), FAST)
            injector = FaultInjector()
            injector.fail("update-repair", exc=RuntimeError, times=1)
            with use_injector(injector):
                with pytest.raises(UpdateFailedError):
                    manager.apply([EdgeDelta(3, 50.0, None)])
            assert registry.counter(
                "update_rollbacks_total", {"reason": "repair"}
            ).value == 1
            assert registry.gauge("update_backlog").value == 1
            manager.replay()
            assert registry.gauge("update_epoch").value == 1
            assert registry.gauge("update_backlog").value == 0
            assert registry.counter(
                "update_batches_total", {"status": "published"}
            ).value == 1
            assert registry.counter("update_edges_total").value == 1
            assert registry.histogram(
                "update_repair_seconds"
            ).count == 1


class TestValidationAndQuarantine:
    """Bad batches are refused *before* durable acknowledgement; a bad
    record that nevertheless reaches the journal (written by foreign
    code) is quarantined on replay instead of bricking startup."""

    def test_invalid_batch_is_refused_before_journalling(
        self, dyn, tmp_path
    ):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        with pytest.raises(InvalidGraphError):
            manager.apply([EdgeDelta(10**6, 5.0, None)])
        with pytest.raises(InvalidGraphError):
            manager.apply([EdgeDelta(0, -1.0, None)])
        with pytest.raises(InvalidGraphError):
            manager.apply([EdgeDelta(0, None, 0.0)])
        # Never acknowledged: nothing pending, nothing to replay.
        assert manager.journal.last_seq() == 0
        assert manager.backlog() == 0
        assert manager.replay() == 0

    def test_foreign_bad_batch_is_quarantined_on_replay(
        self, dyn, tmp_path
    ):
        # A journal this code did not write: an unrepairable batch,
        # then a good one behind it.
        journal = UpdateJournal(str(tmp_path))
        journal.append([EdgeDelta(10**6, 5.0, None)], ts=0.0)
        journal.append([EdgeDelta(3, 44.0, None)], ts=1.0)
        incidents = IncidentLog()
        with use_incident_log(incidents):
            # replay_on_start=True must NOT raise — one bad record
            # would otherwise abort every restart forever.
            manager = EpochManager(
                dyn,
                str(tmp_path),
                UpdateConfig(audit_on_publish=False),
            )
        assert manager.epoch.id == 2
        assert manager.backlog() == 0
        assert manager.epoch.dyn.network_edges()[3][2] == 44.0
        kinds = [i.kind for i in incidents.records()]
        assert "update-quarantined" in kinds
        # The skip is durable: a restart does not re-trip on it.
        assert manager.journal.published_seq() == 2

    def test_live_network_skips_an_unrepairable_pending_batch(
        self, dyn, tmp_path
    ):
        journal = UpdateJournal(str(tmp_path))
        journal.append([EdgeDelta(10**6, 5.0, None)], ts=0.0)
        manager = EpochManager(dyn, str(tmp_path), FAST)  # no replay
        live = manager.live_network()  # must not IndexError
        assert live.num_vertices == dyn.index.network.num_vertices


class TestRecoveryAndStaleness:
    def test_restart_replays_acknowledged_unpublished_batches(
        self, dyn, tmp_path, build_dyn, fresh_index
    ):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        manager.apply([EdgeDelta(3, 44.0, None)])  # published
        injector = FaultInjector()
        injector.fail("update-publish", exc=RuntimeError, times=1)
        with use_injector(injector):
            with pytest.raises(UpdateFailedError):
                manager.apply([EdgeDelta(9, None, 17.0)])  # pending
        # "Restart": a new process rebuilds from the ORIGINAL network,
        # so base_seq=0 re-applies every batch; absolute deltas make
        # the over-replay of batch 1 idempotent.
        restarted = EpochManager(
            build_dyn(),
            str(tmp_path),
            UpdateConfig(audit_on_publish=False),
            base_seq=0,
        )
        assert restarted.epoch.id == 2
        assert restarted.backlog() == 0
        assert restarted.journal.published_seq() == 2
        final_edges = restarted.epoch.dyn.network_edges()
        assert final_edges[3][2] == 44.0
        assert final_edges[9][3] == 17.0
        fresh = fresh_index(final_edges)
        assert pack_labels(
            restarted.epoch.dyn.index.labels
        ) == pack_labels(fresh.labels)

    def test_torn_journal_logs_an_incident(self, dyn, tmp_path):
        from repro.dynamic.journal import JOURNAL_NAME

        manager = EpochManager(dyn, str(tmp_path), FAST)
        manager.apply([EdgeDelta(3, 44.0, None)])
        path = os.path.join(str(tmp_path), JOURNAL_NAME)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-10])
        incidents = IncidentLog()
        with use_incident_log(incidents):
            EpochManager(dyn, str(tmp_path), FAST)
        kinds = [i.kind for i in incidents.records()]
        assert "update-journal-torn" in kinds

    def test_staleness_tracks_the_oldest_pending_batch(
        self, dyn, tmp_path
    ):
        now = [100.0]
        manager = EpochManager(
            dyn, str(tmp_path), FAST, clock=lambda: now[0]
        )
        assert manager.staleness_seconds() == 0.0
        injector = FaultInjector()
        injector.fail("update-publish", exc=RuntimeError, times=1)
        with use_injector(injector):
            with pytest.raises(UpdateFailedError):
                manager.apply([EdgeDelta(3, 19.0, None)])
        now[0] = 107.5
        assert manager.staleness_seconds() == pytest.approx(7.5)
        assert manager.backlog() == 1
        manager.replay()
        assert manager.staleness_seconds() == 0.0

    def test_live_network_sees_pending_deltas(self, dyn, tmp_path):
        manager = EpochManager(dyn, str(tmp_path), FAST)
        injector = FaultInjector()
        injector.fail("update-publish", exc=RuntimeError, times=1)
        with use_injector(injector):
            with pytest.raises(UpdateFailedError):
                manager.apply([EdgeDelta(5, 123.0, 77.0)])
        # The serving epoch lags; the live network does not.
        assert manager.epoch.dyn.network_edges()[5][2:] != (123.0, 77.0)
        live = manager.live_network()
        assert list(live.edges())[5][2:] == (123.0, 77.0)
        manager.replay()
        assert list(manager.live_network().edges())[5][2:] == (123.0, 77.0)

