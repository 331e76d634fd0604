"""Supervised parallel label builds must stay byte-identical.

A parallel build, whose level pools always run supervised, equals a
sequential one on the canonical compact form — including when a worker
is genuinely SIGKILLed mid-level and its vertex chunk is recomputed by
a respawned worker.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.graph import grid_network
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels
from repro.labeling.parallel import build_labels_parallel, fork_available
from repro.service import FaultInjector, use_injector
from repro.supervise import SupervisionConfig

from tests.labeling.test_parallel_build import assert_stores_equal

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

FAST = SupervisionConfig(
    heartbeat_ms=20.0, stall_after_ms=2000.0,
    backoff_base_s=0.005, backoff_max_s=0.05,
    max_task_retries=10, drain_grace_s=1.0,
)


def die():
    """Fault factory: SIGKILL this worker instead of raising."""
    os.kill(os.getpid(), signal.SIGKILL)
    return RuntimeError("unreachable")  # pragma: no cover


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(8, 8, seed=3))


@pytest.fixture(scope="module")
def sequential(tree):
    return build_labels(tree)


class TestSupervisedBuildIdentity:
    def test_clean_supervised_build_is_byte_identical(
        self, tree, sequential
    ):
        supervised = build_labels_parallel(
            tree, workers=2, supervision=FAST
        )
        assert_stores_equal(tree, sequential, supervised)

    def test_build_survives_a_mid_level_sigkill(self, tree, sequential):
        # The third task of one worker incarnation per level SIGKILLs
        # it; the supervisor respawns (re-forking the current store
        # snapshot) and recomputes the lost chunk.  The labels must
        # still match the sequential build byte for byte.
        injector = FaultInjector()
        injector.fail("worker-task", exc=die, after=2, times=1)
        with use_injector(injector):
            supervised = build_labels_parallel(
                tree, workers=2, supervision=FAST
            )
        assert_stores_equal(tree, sequential, supervised)

    def test_engine_results_match_after_a_kill(self, tree, sequential):
        # End to end through the facade: a supervised build under fault
        # injection answers queries identically to a sequential one.
        from repro.core.qhl import QHLEngine
        from repro.hierarchy.lca import LCAIndex
        from repro.core.pruning import PruningConditionIndex

        injector = FaultInjector()
        injector.fail("worker-task", exc=die, after=2, times=1)
        with use_injector(injector):
            supervised = build_labels_parallel(
                tree, workers=2, supervision=FAST
            )
        lca = LCAIndex(tree)
        pruning = PruningConditionIndex()
        lhs = QHLEngine(tree, sequential, lca, pruning)
        rhs = QHLEngine(tree, supervised, lca, pruning)
        for s, t, c in ((0, 63, 30.0), (7, 56, 45.0), (12, 50, 60.0)):
            assert lhs.query(s, t, c).pair() == rhs.query(s, t, c).pair()
