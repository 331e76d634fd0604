"""Deadline mechanics and cooperative enforcement in the engines."""

import time

import pytest

from repro.baselines import constrained_dijkstra, sky_dijkstra_csp
from repro.exceptions import DeadlineExceededError
from repro.graph import grid_network
from repro.service import Deadline


class TestDeadlineObject:
    def test_not_expired_initially(self, fake_clock):
        deadline = Deadline(10.0, clock=fake_clock)
        assert not deadline.expired()
        deadline.check()  # must not raise

    def test_expires_with_the_clock(self, fake_clock):
        deadline = Deadline(10.0, clock=fake_clock)
        fake_clock.advance(10.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_from_ms(self, fake_clock):
        deadline = Deadline.from_ms(250, clock=fake_clock)
        assert deadline.seconds == pytest.approx(0.25)
        fake_clock.advance(0.249)
        assert not deadline.expired()
        fake_clock.advance(0.002)
        assert deadline.expired()

    def test_remaining_and_elapsed(self, fake_clock):
        deadline = Deadline(5.0, clock=fake_clock)
        fake_clock.advance(2.0)
        assert deadline.elapsed() == pytest.approx(2.0)
        assert deadline.remaining() == pytest.approx(3.0)

    def test_error_carries_budget_elapsed_and_stats(self, fake_clock):
        from repro.types import QueryStats

        deadline = Deadline.from_ms(100, clock=fake_clock)
        fake_clock.advance(0.35)
        stats = QueryStats(concatenations=42)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check(stats)
        err = excinfo.value
        assert err.budget_ms == pytest.approx(100)
        assert err.elapsed_ms == pytest.approx(350)
        assert err.stats.concatenations == 42

    def test_zero_budget_expires_immediately(self, fake_clock):
        deadline = Deadline(0.0, clock=fake_clock)
        with pytest.raises(DeadlineExceededError):
            deadline.check()


@pytest.fixture(scope="module")
def big_grid():
    """Large enough that a full skyline search takes well over 1 ms."""
    return grid_network(40, 40, seed=2)


class TestEngineDeadlines:
    def test_sky_dijkstra_1ms_budget_raises_promptly(self, big_grid):
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError) as excinfo:
            sky_dijkstra_csp(
                big_grid, 0, 1599, 10_000, deadline=Deadline.from_ms(1)
            )
        overshoot = time.perf_counter() - started
        # Bounded overshoot: the heap loop checks every 256 pops, so the
        # raise lands within a generous margin of the 1 ms budget.
        assert overshoot < 0.5
        # Partial stats survive on the exception.
        assert excinfo.value.stats is not None
        assert excinfo.value.stats.concatenations > 0

    def test_same_query_without_deadline_is_exact(self, big_grid):
        result = sky_dijkstra_csp(big_grid, 0, 1599, 10_000)
        truth = constrained_dijkstra(
            big_grid, 0, 1599, 10_000, want_path=False
        )
        assert result.pair() == truth.pair()

    def test_constrained_dijkstra_deadline(self, big_grid):
        with pytest.raises(DeadlineExceededError):
            constrained_dijkstra(
                big_grid, 0, 1599, 10_000, want_path=False,
                deadline=Deadline.from_ms(1),
            )

    def test_generous_deadline_does_not_interfere(self, service_index):
        plain = service_index.query(0, 63, 250)
        with_deadline = service_index.query(
            0, 63, 250, deadline=Deadline(60.0)
        )
        assert with_deadline.pair() == plain.pair()

    def test_qhl_engine_expired_deadline_raises(
        self, service_index, fake_clock
    ):
        engine = service_index.qhl_engine()
        deadline = Deadline(1.0, clock=fake_clock)
        fake_clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            engine.query(0, 63, 250, deadline=deadline)

    def test_csp2hop_engine_expired_deadline_raises(
        self, service_index, fake_clock
    ):
        engine = service_index.csp2hop_engine()
        deadline = Deadline(1.0, clock=fake_clock)
        fake_clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            engine.query(0, 63, 250, deadline=deadline)


class StepClock:
    """Reads 0.0 for its first ``calm`` readings and 10.0 after: a
    one-second deadline armed on it (one reading) expires at its
    ``calm``-th check."""

    def __init__(self, calm: int):
        self.calm = calm
        self.readings = 0

    def __call__(self) -> float:
        self.readings += 1
        return 0.0 if self.readings <= self.calm else 10.0


class TestLoopChecks:
    """The deadline checks inside the loops, each caught at its first
    step: a query or repair that only checked on entry, or in a later
    loop, would not raise where these tests expect it to."""

    def test_algorithm3_checks_before_each_hoplink(self, service_index):
        engine = service_index.qhl_engine()
        plain = engine.query(0, 63, 250)
        assert plain.stats.hoplinks > 0
        # Armed (1 reading), entry check (2), first hoplink (3).
        deadline = Deadline(1.0, clock=StepClock(calm=2))
        with pytest.raises(DeadlineExceededError) as excinfo:
            engine.query(0, 63, 250, deadline=deadline)
        stats = excinfo.value.stats
        # Separators chosen, no hoplink concatenated yet.
        assert stats.candidates == plain.stats.candidates
        assert stats.hoplinks == plain.stats.hoplinks
        assert stats.concatenations == 0

    def test_repair_checks_the_shortcut_sweep(self):
        from repro.dynamic import DynamicQHLIndex

        dyn = DynamicQHLIndex.build(
            grid_network(6, 6, seed=4), num_index_queries=30, seed=4
        )
        tree, pruning = dyn.index.tree, dyn.index.pruning
        shortcuts = {
            (x, w): entries
            for x, row in tree.shortcuts.items()
            for w, entries in row.items()
        }
        _u, _v, weight, cost = dyn.network_edges()[0]
        # Armed (1 reading), first vertex of the shortcut sweep (2).
        deadline = Deadline(1.0, clock=StepClock(calm=1))
        with pytest.raises(DeadlineExceededError):
            dyn.apply_deltas([(0, weight / 2, cost / 2)], deadline=deadline)
        # Aborted before any shortcut, label or pruning row was redone.
        assert dyn.index.pruning is pruning
        assert all(
            tree.shortcuts[x][w] is entries
            for (x, w), entries in shortcuts.items()
        )
        # The same batch, undeadlined, does change a shortcut.
        dyn.apply_deltas([(0, weight / 2, cost / 2)])
        assert any(
            tree.shortcuts[x][w] is not entries
            for (x, w), entries in shortcuts.items()
        )
