"""One real SIGKILL mid-update: acknowledged batches survive the kill.

A subprocess journals two batches, publishes the first, and is
SIGKILLed between the second batch's journal append and its publish
swap — no cleanup, no atexit, exactly what a power cut leaves behind.
The parent then "restarts": it rebuilds the index from the original
network and replays the journal, and the result must be bit-identical
on ``pack_labels`` to a fresh build over the final edge metrics.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

from repro.core import QHLIndex, random_index_queries
from repro.dynamic import (
    DynamicQHLIndex,
    EpochManager,
    UpdateConfig,
    UpdateJournal,
)
from repro.graph import RoadNetwork, random_connected_network
from repro.storage.compact import pack_labels

_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.core import random_index_queries
    from repro.dynamic import DynamicQHLIndex, EpochManager, UpdateConfig
    from repro.graph import random_connected_network
    from repro.service.faults import FaultInjector, set_injector

    journal_dir = sys.argv[1]

    g = random_connected_network(20, 16, seed=8)
    queries = random_index_queries(g, 100, seed=8)
    dyn = DynamicQHLIndex.build(g, index_queries=queries, seed=0)
    manager = EpochManager(
        dyn, journal_dir,
        UpdateConfig(audit_on_publish=False,
                     replay_on_start=False),
    )
    manager.apply([(3, 44.0, None)])   # batch 1: published cleanly

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    injector = FaultInjector()
    injector.fail("update-publish", exc=die, match={"seq": 2})
    set_injector(injector)
    manager.apply([(7, None, 17.0)])   # batch 2: killed pre-publish
    raise SystemExit("unreachable: the applier should have been killed")
    """
)


def test_sigkilled_apply_replays_to_bit_identical_index(tmp_path):
    journal_dir = str(tmp_path / "journal")
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "src"
    )
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, journal_dir],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

    # The kill left batch 2 acknowledged (durable) but unpublished.
    journal = UpdateJournal(journal_dir)
    assert journal.torn_lines == 0
    assert journal.last_seq() == 2
    assert journal.published_seq() == 1

    # "Restart": rebuild from the original network, replay everything
    # (base_seq=0 — absolute deltas make the over-replay idempotent).
    g = random_connected_network(20, 16, seed=8)
    queries = random_index_queries(g, 100, seed=8)
    dyn = DynamicQHLIndex.build(g, index_queries=queries, seed=0)
    manager = EpochManager(
        dyn,
        journal_dir,
        UpdateConfig(audit_on_publish=False),
        base_seq=0,
    )
    assert manager.epoch.id == 2
    assert manager.backlog() == 0
    assert manager.journal.published_seq() == 2

    edges = manager.epoch.dyn.network_edges()
    assert edges[3][2] == 44.0
    assert edges[7][3] == 17.0
    fresh = QHLIndex.build(
        RoadNetwork.from_edges(20, edges), index_queries=queries, seed=0
    )
    assert pack_labels(manager.epoch.dyn.index.labels) == pack_labels(
        fresh.labels
    )
