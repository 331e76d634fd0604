"""Index-free baselines vs the labeled engines.

Supports the paper's framing (§1, §6.2): "since it is an NP-hard
problem, these index-free solutions are unscalable to large road
networks".  We race the bi-criteria constrained Dijkstra against
QHL/CSP-2Hop on a small slice of the Q3 workload (it is far too slow
for the full sweep — which is the point).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import get_bundle, record_rows
from repro.baselines import constrained_dijkstra
from repro.instrument import run_workload

SLICE = 15  # queries; the index-free engine pays milliseconds each


class DijkstraEngine:
    name = "Dijkstra-CSP"

    def __init__(self, network):
        self._network = network

    def query(self, source, target, budget):
        return constrained_dijkstra(
            self._network, source, target, budget, want_path=False
        )


@pytest.mark.parametrize("engine_name", ["QHL", "CSP-2Hop", "Dijkstra-CSP"])
def test_index_free_comparison(benchmark, engine_name):
    bundle = get_bundle("NY")
    queries = bundle.q_sets["Q3"].queries[:SLICE]
    if engine_name == "QHL":
        engine = bundle.index.qhl_engine()
    elif engine_name == "CSP-2Hop":
        engine = bundle.index.csp2hop_engine()
    else:
        engine = DijkstraEngine(bundle.network)

    report = benchmark.pedantic(
        run_workload, args=(engine, queries, "Q3"), rounds=1, iterations=1
    )

    benchmark.extra_info["avg_query_ms"] = round(report.avg_ms, 4)
    record_rows(
        "index_free_baselines.txt",
        f"[NY] {'engine':>13} {'avg query':>12}  (Q3 slice of {SLICE})",
        [f"[NY] {engine_name:>13} {report.avg_ms:>9.3f} ms"],
    )
    assert report.feasible == report.num_queries


def test_index_free_answers_agree(benchmark):
    """The slow engine exists to be trusted: cross-check it."""
    bundle = get_bundle("NY")
    queries = bundle.q_sets["Q1"].queries[:8]
    qhl = bundle.index.qhl_engine()
    dijkstra = DijkstraEngine(bundle.network)

    def check():
        mismatches = 0
        for q in queries:
            want = qhl.query(q.source, q.target, q.budget).pair()
            if dijkstra.query(q.source, q.target, q.budget).pair() != want:
                mismatches += 1
        return mismatches

    mismatches = benchmark.pedantic(check, rounds=1, iterations=1)
    assert mismatches == 0
