"""A model-based test of copy-on-write epochs.

A seeded hypothesis state machine clones indexes, repairs clones,
repairs clone sources in place, publishes batches through an
:class:`~repro.dynamic.EpochManager` and queries any version it holds.
Clones share label lists, shortcut dicts, pruning bounds and networks
with their sources until a repair writes, so after every step:

* every version still holds, by value, what it held after its own last
  repair: label lists, shortcut lists, pruning bounds and network edges
  (a published epoch never changes at all);
* every answer equals constrained Dijkstra on the metrics of the index
  that served it.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.baselines import constrained_dijkstra
from repro.core import random_index_queries
from repro.dynamic import DynamicQHLIndex, EdgeDelta, EpochManager, UpdateConfig
from repro.graph import random_connected_network

NETWORK = random_connected_network(25, 20, seed=8)
QUERIES = random_index_queries(NETWORK, 150, seed=8)
#: Unpublished versions kept at once; the oldest goes first.
MAX_SCRATCH = 4

deltas = st.lists(
    st.tuples(
        st.integers(0, NETWORK.num_edges - 1),
        st.integers(1, 80),
        st.one_of(st.none(), st.integers(1, 80)),
    ),
    min_size=1,
    max_size=3,
)
picks = st.integers(0, 1 << 16)


def _pairs(entries):
    return tuple((entry[0], entry[1]) for entry in entries)


def snapshot(dyn: DynamicQHLIndex):
    """What ``dyn`` serves from, by value."""
    index = dyn.index
    labels = index.labels
    return (
        [
            tuple(
                None if entries is None else _pairs(entries)
                for entries in labels.label(v)
            )
            for v in range(labels.num_vertices)
        ],
        {
            (x, w): _pairs(entries)
            for x, row in index.tree.shortcuts.items()
            for w, entries in row.items()
        },
        index.pruning.bounds.tolist(),
        dyn.network_edges(),
    )


class EpochModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.journal = tempfile.mkdtemp(prefix="epoch-model-")
        self.manager = EpochManager(
            DynamicQHLIndex.build(NETWORK, index_queries=QUERIES, seed=0),
            self.journal,
            UpdateConfig(audit_on_publish=False, replay_on_start=False),
        )
        #: ``[dyn, snapshot]`` per version: published epochs in
        #: ``published``, unpublished clones in ``scratch``.
        self.published = [self._version(self.manager.epoch.dyn)]
        self.scratch: list[list] = []

    @staticmethod
    def _version(dyn: DynamicQHLIndex) -> list:
        return [dyn, snapshot(dyn)]

    def _pick(self, pick: int) -> list:
        versions = self.published + self.scratch
        return versions[pick % len(versions)]

    def _keep(self, dyn: DynamicQHLIndex) -> None:
        self.scratch.append(self._version(dyn))
        if len(self.scratch) > MAX_SCRATCH:
            self.scratch.pop(0)

    @rule(pick=picks)
    def clone(self, pick: int) -> None:
        self._keep(self._pick(pick)[0].clone())

    @rule(pick=picks, batch=deltas)
    def repair_a_clone(self, pick: int, batch) -> None:
        twin = self._pick(pick)[0].clone()
        twin.apply_deltas(batch)
        self._keep(twin)

    @precondition(lambda self: self.scratch)
    @rule(pick=picks, batch=deltas)
    def repair_a_source_in_place(self, pick: int, batch) -> None:
        """Clone an unpublished version, then repair it, not the clone."""
        version = self.scratch[pick % len(self.scratch)]
        self._keep(version[0].clone())
        version[0].apply_deltas(batch)
        version[1] = snapshot(version[0])

    @rule(batch=deltas)
    def publish(self, batch) -> None:
        self.manager.apply([EdgeDelta(*delta) for delta in batch])
        self.published.append(self._version(self.manager.epoch.dyn))

    @rule(
        pick=picks,
        s=st.integers(0, NETWORK.num_vertices - 1),
        t=st.integers(0, NETWORK.num_vertices - 1),
        budget=st.integers(0, 600),
    )
    def query(self, pick: int, s: int, t: int, budget: int) -> None:
        dyn = self._pick(pick)[0]
        got = dyn.query(s, t, budget)
        want = constrained_dijkstra(dyn.index.network, s, t, budget)
        assert got.pair() == want.pair(), (s, t, budget)

    @invariant()
    def every_version_holds_what_it_held(self) -> None:
        for dyn, held in self.published + self.scratch:
            assert snapshot(dyn) == held

    def teardown(self) -> None:
        shutil.rmtree(self.journal, ignore_errors=True)


TestEpochModel = EpochModel.TestCase
TestEpochModel.settings = settings(
    max_examples=40,
    stateful_step_count=12,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
