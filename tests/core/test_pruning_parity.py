"""Columnar pruning conditions against the dict-of-dicts semantics.

Every builder — the label build, a dynamic index after repairs, and
a save → load round trip — must give exactly the candidate separators that a ``{h: C_ub}`` map
per ``(child, v_end)`` gave: a hoplink ``h`` survives iff
``budget >= bounds.get(h, 0)``.  Budgets sit on, just below and just
above every stored bound, plus ``0`` and ``+inf``.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro.core import QHLIndex
from repro.core.qhl import candidate_separators, initial_separators
from repro.dynamic import DynamicQHLIndex
from repro.graph import random_connected_network
from repro.storage import load_flat_index, save_flat_index

INF = float("inf")


def oracle_candidates(pruning, initial, s, t, budget):
    """Algorithm 4 over ``lookup`` maps, the pre-columnar semantics."""
    candidates, seen = [], set()
    for child, separator in initial:
        pruned_any = False
        for v_end in (s, t):
            bounds = pruning.lookup(child, v_end)
            if bounds is None:
                continue
            pruned = tuple(
                h for h in separator if budget >= bounds.get(h, 0)
            )
            if pruned and pruned not in seen:
                candidates.append(pruned)
                seen.add(pruned)
                pruned_any = True
        if not pruned_any and tuple(separator) not in seen:
            candidates.append(tuple(separator))
            seen.add(tuple(separator))
    return candidates


def budgets_around(*bound_maps):
    """0, +inf, and ub - ε, ub, ub + ε for every stored bound."""
    budgets = {0.0, INF}
    for bounds in bound_maps:
        for ub in (bounds or {}).values():
            budgets.update(
                (ub, math.nextafter(ub, -INF), math.nextafter(ub, INF),
                 ub - 1e-6, ub + 1e-6)
            )
    return sorted(budgets)


def assert_parity(tree, lca, pruning, num_vertices):
    """Compare on every non-ancestor pair of a seeded sample; returns
    how many candidate lists the conditions actually pruned."""
    rng = random.Random(11)
    pruned_lists = 0
    for _ in range(300):
        s, t = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if s == t:
            continue
        lca_v, s_anc, t_anc = lca.relation(s, t)
        if s_anc or t_anc:
            continue
        c_s, h_s, c_t, h_t = initial_separators(tree, lca_v, s, t)
        initial = ((c_s, h_s), (c_t, h_t))
        for budget in budgets_around(
            pruning.lookup(c_s, s), pruning.lookup(c_t, s),
            pruning.lookup(c_s, t), pruning.lookup(c_t, t),
        ):
            got = candidate_separators(pruning, initial, s, t, budget)
            want = oracle_candidates(pruning, initial, s, t, budget)
            assert got == want, (s, t, budget)
            pruned_lists += got != [tuple(h_s), tuple(h_t)]
    assert pruned_lists > 0, "no condition pruned anything: vacuous"


@pytest.fixture(scope="module")
def network():
    return random_connected_network(60, 50, seed=21)


@pytest.fixture(scope="module")
def sequential(network):
    return QHLIndex.build(network, num_index_queries=800, seed=21)


def test_sequential_build(sequential, network):
    assert_parity(
        sequential.tree, sequential.lca, sequential.pruning,
        network.num_vertices,
    )


def test_dynamic_index_after_three_repairs(network):
    dyn = DynamicQHLIndex.build(network, num_index_queries=800, seed=21)
    rng = random.Random(5)
    for _ in range(3):
        edge = rng.randrange(network.num_edges)
        report = dyn.update_edge(
            edge, weight=rng.uniform(1, 50), cost=rng.uniform(1, 50)
        )
    assert report.pruning_rebuilt
    index = dyn.index
    assert index.pruning.validate_structure() == []
    assert_parity(index.tree, index.lca, index.pruning, network.num_vertices)


def test_save_load_round_trip(sequential, network, tmp_path):
    path = os.fspath(tmp_path / "index.qflat")
    save_flat_index(sequential, path)
    loaded = load_flat_index(path)
    assert isinstance(loaded.pruning.bounds, memoryview)
    assert list(loaded.pruning.items()) == list(sequential.pruning.items())
    assert loaded.pruning.size_bytes() == sequential.pruning.size_bytes()
    assert_parity(
        loaded.tree, loaded.lca, loaded.pruning, network.num_vertices
    )
