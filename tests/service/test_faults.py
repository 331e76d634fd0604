"""Chaos suite: every registered injection point, injected.

The invariant under test (ISSUE acceptance): an injected fault at any
point yields either a *correct* answer (verified against
``sky_dijkstra_csp`` ground truth) via the degradation ladder, or a
typed :class:`~repro.exceptions.ReproError` — never an unhandled
exception, never a silently wrong path.
"""

import os

import pytest

from repro.baselines import sky_dijkstra_csp
from repro.core.qhl import QHLEngine
from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
)
from repro.service import (
    INJECTION_POINTS,
    FaultInjector,
    FaultyLabelStore,
    QueryService,
    ServiceConfig,
    use_injector,
)
from repro.storage import save_index

QUERY = (0, 63, 250)


def assert_correct_or_typed(network, run):
    """Run ``run()``; the outcome must be exact or a typed ReproError."""
    s, t, budget = QUERY
    truth = sky_dijkstra_csp(network, s, t, budget).pair()
    try:
        result = run()
    except ReproError:
        return None
    assert result.pair() == truth
    return result


class TestInjectorMechanics:
    def test_unknown_point_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.fail("warp-drive")

    def test_schedule_is_deterministic(self):
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=2, after=1)
        outcomes = []
        for _ in range(5):
            try:
                injector.fire("engine-query")
                outcomes.append("ok")
            except RuntimeError:
                outcomes.append("boom")
        assert outcomes == ["ok", "boom", "boom", "ok", "ok"]

    def test_match_filters_context(self):
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None,
                      match={"engine": "QHL"})
        injector.fire("engine-query", engine="CSP-2Hop")  # no raise
        with pytest.raises(RuntimeError):
            injector.fire("engine-query", engine="QHL")

    def test_null_injector_cannot_hold_rules(self):
        from repro.service import NULL_INJECTOR

        with pytest.raises(NotImplementedError):
            NULL_INJECTOR.fail("engine-query")
        NULL_INJECTOR.fire("engine-query")  # inert

    def test_exception_factory_and_instance(self):
        injector = FaultInjector()
        marker = OSError("the very one")
        injector.fail("index-load", exc=marker)
        with pytest.raises(OSError) as excinfo:
            injector.fire("index-load")
        assert excinfo.value is marker


class TestEveryInjectionPoint:
    """One chaos scenario per registered point, plus a sweep guard."""

    def test_all_points_are_exercised_here(self):
        covered = {
            "index-load", "save-index", "label-fetch", "engine-query",
            # (Time travel is not a registered point: the injector's
            # clock= argument replaces the deadline time source
            # directly, with no fire site — see docs/robustness.md.)
            # build-segment's scenarios live in test_kill_resume.py: it
            # crashes checkpointed builds at every segment boundary.
            "build-segment",
            # The worker-supervision points live in tests/supervise:
            # the chaos matrix fails spawns, SIGKILLs tasks, and
            # suppresses heartbeats against real forked workers, and
            # test_worker_outcomes.py::TestWorkerTaskFault fails a task
            # at worker-task.
            "worker-spawn",
            "worker-task",
            "worker-heartbeat",
            # The live-update points live in tests/dynamic: the epoch
            # chaos matrix faults the journal append, the repair, and
            # the publish swap, and test_kill_update SIGKILLs a real
            # applier between append and publish.
            "update-journal-append",
            "update-repair",
            "update-publish",
        }
        assert covered == set(INJECTION_POINTS)

    def test_index_load_fault_degrades_to_exact_answer(
        self, service_index, service_grid, tmp_path
    ):
        path = str(tmp_path / "x.idx")
        save_index(service_index, path)
        injector = FaultInjector()
        injector.fail("index-load", exc=OSError, times=None)
        with use_injector(injector):
            service = QueryService(
                index_path=path, network=service_grid,
                config=ServiceConfig(load_attempts=2),
            )
            result = assert_correct_or_typed(
                service_grid, lambda: service.query(*QUERY)
            )
        # The ladder degraded to the index-free tier but stayed exact.
        assert result is not None and result.engine == "SkyDijkstra"
        assert service.index_load_error is not None

    @pytest.mark.parametrize("stage", ["write", "fsync", "replace"])
    def test_save_index_fault_is_typed_and_non_corrupting(
        self, service_index, tmp_path, stage
    ):
        path = str(tmp_path / "x.idx")
        injector = FaultInjector()
        injector.fail("save-index", exc=OSError, match={"stage": stage})
        with use_injector(injector):
            with pytest.raises(OSError):
                save_index(service_index, path)
        assert not os.path.exists(path)

    def test_label_fetch_fault_falls_back_to_exact_answer(
        self, service_index, service_grid
    ):
        faulty = QHLEngine(
            service_index.tree,
            FaultyLabelStore(service_index.labels),
            service_index.lca,
            service_index.pruning,
        )
        service = QueryService(
            index=service_index,
            engines=[faulty, service_index.csp2hop_engine()],
            network=service_grid,
        )
        injector = FaultInjector()
        injector.fail("label-fetch", exc=OSError, times=None)
        with use_injector(injector):
            result = assert_correct_or_typed(
                service_grid, lambda: service.query(*QUERY)
            )
        assert result is not None and result.engine == "CSP-2Hop"

    @pytest.mark.parametrize("tier", ["QHL", "CSP-2Hop", "SkyDijkstra"])
    def test_engine_query_fault_per_tier(
        self, service_index, service_grid, tier
    ):
        service = QueryService(index=service_index)
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None,
                      match={"engine": tier})
        with use_injector(injector):
            result = assert_correct_or_typed(
                service_grid, lambda: service.query(*QUERY)
            )
        # Killing one tier still gets an exact answer from another.
        assert result is not None and result.engine != tier

    def test_engine_query_fault_everywhere_is_typed(
        self, service_index, service_grid
    ):
        service = QueryService(index=service_index)
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None)
        with use_injector(injector):
            assert assert_correct_or_typed(
                service_grid, lambda: service.query(*QUERY)
            ) is None

    def test_clock_fault_controls_the_deadline(
        self, service_index, service_grid, fake_clock
    ):
        service = QueryService(index=service_index)

        # A frozen injected clock: even a microscopic budget never
        # expires, proving deadlines run on the injected time source.
        with use_injector(FaultInjector(clock=fake_clock)):
            result = service.query(*QUERY, deadline_ms=0.001)
        assert result.pair() == sky_dijkstra_csp(
            service_grid, *QUERY
        ).pair()

        # A clock that leaps 100 s per reading: the first cooperative
        # checkpoint after arming sees the budget blown — typed error.
        class JumpingClock:
            now = 0.0

            def __call__(self):
                JumpingClock.now += 100.0
                return JumpingClock.now

        with use_injector(FaultInjector(clock=JumpingClock())):
            with pytest.raises(DeadlineExceededError):
                service.query(*QUERY, deadline_ms=50)

    def test_chaos_sweep_random_schedules_never_unhandled(
        self, service_index, service_grid
    ):
        """A deterministic storm: staggered faults across many queries."""
        service = QueryService(
            index=service_index,
            config=ServiceConfig(breaker_failure_threshold=2,
                                 breaker_reset_s=0.001),
        )
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=3, after=1,
                      match={"engine": "QHL"})
        injector.fail("engine-query", exc=ReproError, times=2, after=2,
                      match={"engine": "CSP-2Hop"})
        s, t, budget = QUERY
        truth = sky_dijkstra_csp(service_grid, s, t, budget).pair()
        answered = 0
        with use_injector(injector):
            for _ in range(8):
                try:
                    result = service.query(s, t, budget)
                except ReproError:
                    continue
                assert result.pair() == truth
                answered += 1
        assert answered >= 6  # the storm only grazed the ladder
