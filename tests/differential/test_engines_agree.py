"""Seed-pinned differential suite over three graph families.

Each family contributes ~70 queries (``REPRO_DIFF_QUERIES`` overrides),
so a default run diffs 200+ queries — every engine (QHL with and without
pruning conditions, QHL+cache cold *and* hot, CSP-2Hop) over a built
index's flat columns and over a dynamic index's object labels, the
object-sweep QHL over the columns, and SkyDijkstra — against the
constrained-Dijkstra reference on ``(feasible, weight, cost)``.
"""

from __future__ import annotations

import pytest

from repro.graph import (
    grid_network,
    random_connected_network,
    ring_network,
)

from tests.differential.harness import (
    format_disagreements,
    generate_cases,
    query_count,
    run_differential,
)

FAMILIES = {
    "grid": lambda: grid_network(6, 6, seed=21),
    "ring": lambda: ring_network(
        num_towns=4, town_rows=3, town_cols=3, seed=22
    ),
    "random": lambda: random_connected_network(40, 60, seed=23),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_all_engines_agree(family):
    network = FAMILIES[family]()
    queries = generate_cases(network, query_count(70), seed=100 + ord(family[0]))
    disagreements = run_differential(network, queries)
    assert not disagreements, (
        f"{len(disagreements)} disagreement(s) on {family}:\n"
        + format_disagreements(disagreements)
    )


def test_case_generation_is_seed_pinned():
    network = grid_network(4, 4, seed=21)
    assert generate_cases(network, 12, seed=5) == generate_cases(
        network, 12, seed=5
    )
    assert generate_cases(network, 12, seed=5) != generate_cases(
        network, 12, seed=6
    )


def test_case_generation_covers_all_regimes():
    network = grid_network(4, 4, seed=21)
    queries = generate_cases(network, 40, seed=5)
    assert len(queries) == 40
    assert all(q.source != q.target for q in queries)
    from repro.baselines import constrained_dijkstra

    outcomes = {
        constrained_dijkstra(network, *q).feasible for q in queries
    }
    assert outcomes == {True, False}, "budgets never crossed feasibility"


def test_query_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_DIFF_QUERIES", "7")
    assert query_count(70) == 7
    monkeypatch.delenv("REPRO_DIFF_QUERIES")
    assert query_count(70) == 70
