"""Hypothesis fuzzing for the dynamic subsystem.

It gets the same treatment the core received: random networks,
random queries, exact agreement with an independent ground-truth
search.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import constrained_dijkstra
from repro.dynamic import DynamicQHLIndex
from repro.graph import RoadNetwork, random_connected_network

SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**SETTINGS)
@given(
    n=st.integers(min_value=3, max_value=14),
    extra=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=5000),
    data=st.data(),
)
def test_fuzz_dynamic_update_sequences(n, extra, seed, data):
    g = random_connected_network(n, extra, seed=seed)
    dyn = DynamicQHLIndex.build(g, num_index_queries=30, seed=0)
    for _ in range(3):
        edge = data.draw(
            st.integers(min_value=0, max_value=g.num_edges - 1)
        )
        dyn.update_edge(
            edge,
            weight=data.draw(st.integers(min_value=1, max_value=25)),
            cost=data.draw(st.integers(min_value=1, max_value=25)),
        )
    current = RoadNetwork.from_edges(n, dyn.network_edges())
    for _ in range(5):
        s = data.draw(st.integers(min_value=0, max_value=n - 1))
        t = data.draw(st.integers(min_value=0, max_value=n - 1))
        budget = data.draw(st.integers(min_value=0, max_value=250))
        truth = constrained_dijkstra(current, s, t, budget, want_path=False)
        assert dyn.query(s, t, budget).pair() == truth.pair()
