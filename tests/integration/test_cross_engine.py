"""Integration: every engine answers every query identically.

The strongest correctness statement the repo makes: QHL (all ablation
variants), CSP-2Hop, COLA and the index-free searches return the same
``(weight, cost)`` pair on every query, across network families.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import COLAEngine, constrained_dijkstra
from repro.core import QHLIndex
from repro.graph import (
    grid_network,
    random_connected_network,
    random_geometric_network,
    ring_network,
)


def assert_engines_agree(network, index, cola, rng, rounds=40):
    engines = [
        index.qhl_engine(),
        index.qhl_engine(use_pruning_conditions=False),
        index.qhl_engine(use_two_pointer=False),
        index.csp2hop_engine(),
        cola,
    ]
    n = network.num_vertices
    for _ in range(rounds):
        s, t = rng.randrange(n), rng.randrange(n)
        budget = rng.randint(1, 400)
        truth = constrained_dijkstra(
            network, s, t, budget, want_path=False
        ).pair()
        for engine in engines:
            assert engine.query(s, t, budget).pair() == truth, (
                engine.name, s, t, budget
            )


class TestNetworkFamilies:
    def test_grid(self):
        g = grid_network(7, 7, seed=31)
        index = QHLIndex.build(g, num_index_queries=300, seed=31)
        cola = COLAEngine(g, num_parts=4, seed=31)
        assert_engines_agree(g, index, cola, random.Random(31))

    def test_ring(self):
        g = ring_network(num_towns=6, town_rows=3, town_cols=3, seed=32)
        index = QHLIndex.build(g, num_index_queries=300, seed=32)
        cola = COLAEngine(g, num_parts=6, seed=32)
        assert_engines_agree(g, index, cola, random.Random(32))

    def test_geometric(self):
        g = random_geometric_network(45, radius=0.25, seed=33)
        index = QHLIndex.build(g, num_index_queries=300, seed=33)
        cola = COLAEngine(g, num_parts=4, seed=33)
        assert_engines_agree(g, index, cola, random.Random(33))

    def test_random_sparse(self):
        g = random_connected_network(45, 10, seed=34)
        index = QHLIndex.build(g, num_index_queries=300, seed=34)
        cola = COLAEngine(g, num_parts=4, seed=34)
        assert_engines_agree(g, index, cola, random.Random(34))

    def test_random_dense(self):
        g = random_connected_network(30, 80, seed=35)
        index = QHLIndex.build(g, num_index_queries=300, seed=35)
        cola = COLAEngine(g, num_parts=3, seed=35)
        assert_engines_agree(g, index, cola, random.Random(35))


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=2, max_value=18),
    extra=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_fuzz_qhl_against_ground_truth(n, extra, seed, data):
    """Hypothesis-driven: random network, random queries, exact match."""
    g = random_connected_network(n, extra, seed=seed)
    index = QHLIndex.build(g, num_index_queries=60, seed=seed)
    for _ in range(8):
        s = data.draw(st.integers(min_value=0, max_value=n - 1))
        t = data.draw(st.integers(min_value=0, max_value=n - 1))
        budget = data.draw(st.integers(min_value=0, max_value=300))
        truth = constrained_dijkstra(g, s, t, budget, want_path=False)
        assert index.query(s, t, budget).pair() == truth.pair()

