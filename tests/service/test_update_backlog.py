"""The degradation ladder over a live :class:`EpochManager`.

When the update backlog grows past ``max_update_backlog``, the labeled
tiers are serving an epoch that lags the acknowledged metric state, so
the ladder sheds them and answers from the index-free tier on the
*live* network — fresh answers at search latency instead of fast
answers at unbounded staleness.
"""

from __future__ import annotations

import pytest

from repro.baselines import constrained_dijkstra
from repro.core import random_index_queries
from repro.dynamic import DynamicQHLIndex, EpochManager, UpdateConfig
from repro.exceptions import UpdateFailedError
from repro.graph import grid_network
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.service import (
    FaultInjector,
    QueryService,
    ServiceConfig,
    use_injector,
)

QUERY = (0, 63, 250)

CONFIG = UpdateConfig(
    audit_on_publish=False, replay_on_start=False
)


@pytest.fixture()
def manager(tmp_path):
    g = grid_network(8, 8, seed=1)
    queries = random_index_queries(g, 150, seed=1)
    dyn = DynamicQHLIndex.build(g, index_queries=queries, seed=0)
    return EpochManager(dyn, str(tmp_path / "journal"), CONFIG)


def live_truth(manager, s, t, budget):
    return constrained_dijkstra(
        manager.live_network(), s, t, budget, want_path=False
    ).pair()


class TestEpochBackedService:
    def test_serves_from_the_current_epoch(self, manager):
        service = QueryService(epoch_manager=manager)
        s, t, budget = QUERY
        result = service.query(s, t, budget)
        assert result.engine == "QHL"
        assert result.pair() == live_truth(manager, s, t, budget)

    def test_publish_is_picked_up_without_rebuilding(self, manager):
        service = QueryService(epoch_manager=manager)
        s, t, budget = QUERY
        before = service.query(s, t, budget).pair()
        manager.apply([(3, 999.0, 999.0)])
        result = service.query(s, t, budget)
        assert result.engine == "QHL"
        assert result.pair() == live_truth(manager, s, t, budget)
        # And the service noticed the new epoch, not a stale snapshot.
        assert manager.epoch.id == 1
        del before  # the pair may or may not change; exactness is the claim

    def _force_backlog(self, manager, deltas):
        injector = FaultInjector()
        injector.fail("update-publish", exc=RuntimeError, times=len(deltas))
        with use_injector(injector):
            for delta in deltas:
                with pytest.raises(UpdateFailedError):
                    manager.apply([delta])

    def test_backlog_past_threshold_sheds_to_the_live_network(
        self, manager
    ):
        service = QueryService(
            epoch_manager=manager,
            config=ServiceConfig(max_update_backlog=1),
        )
        s, t, budget = QUERY
        self._force_backlog(manager, [(3, 999.0, 999.0), (9, 1.0, 1.0)])
        assert manager.backlog() == 2
        registry = MetricsRegistry()
        with use_registry(registry):
            result = service.query(s, t, budget)
        # Shed past the labeled tiers onto the pending-inclusive view.
        assert result.engine == "SkyDijkstra"
        assert result.pair() == live_truth(manager, s, t, budget)
        assert registry.counter(
            "service_fallback_total",
            {"from": "QHL", "to": "CSP-2Hop", "reason": "update-backlog"},
        ).value == 1

    def test_backlog_at_threshold_does_not_shed(self, manager):
        service = QueryService(
            epoch_manager=manager,
            config=ServiceConfig(max_update_backlog=1),
        )
        self._force_backlog(manager, [(3, 999.0, 999.0)])
        assert manager.backlog() == 1
        s, t, budget = QUERY
        assert service.query(s, t, budget).engine == "QHL"

    def test_replay_restores_the_fast_tier(self, manager):
        service = QueryService(
            epoch_manager=manager,
            config=ServiceConfig(max_update_backlog=0),
        )
        s, t, budget = QUERY
        self._force_backlog(manager, [(3, 999.0, 999.0)])
        assert service.query(s, t, budget).engine == "SkyDijkstra"
        manager.replay()
        result = service.query(s, t, budget)
        assert result.engine == "QHL"
        assert result.pair() == live_truth(manager, s, t, budget)

    def test_shed_without_skydijkstra_tier_still_answers(self, manager):
        # A labeled-only ladder has nowhere to shed to; backlog past
        # the threshold must degrade to lagging-but-correct answers,
        # not a ServiceUnavailableError outage.
        service = QueryService(
            epoch_manager=manager,
            config=ServiceConfig(
                tiers=("QHL", "CSP-2Hop"), max_update_backlog=0
            ),
        )
        self._force_backlog(manager, [(3, 999.0, 999.0)])
        assert manager.backlog() == 1
        s, t, budget = QUERY
        result = service.query(s, t, budget)
        assert result.engine == "QHL"

    def test_no_threshold_never_sheds(self, manager):
        service = QueryService(epoch_manager=manager)
        self._force_backlog(manager, [(3, 999.0, 999.0), (9, 1.0, 1.0)])
        s, t, budget = QUERY
        # Unbounded staleness was asked for: the fast tier keeps serving
        # the (lagging) epoch, still exactly for that epoch's metrics.
        assert service.query(s, t, budget).engine == "QHL"
