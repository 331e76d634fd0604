"""Engine face-off: QHL against every baseline on one workload.

A miniature of the paper's Figure 6 experiment that runs in seconds:
build one NY-like network, generate a paper-style query set, and race
QHL, its two ablation variants, CSP-2Hop, COLA and the index-free
constrained Dijkstra — verifying along the way that they all return
identical answers.

Run with::

    python examples/engine_faceoff.py
"""

import time

from repro import COLAEngine, QHLIndex, constrained_dijkstra, grid_network
from repro.graph import estimate_diameter
from repro.instrument import run_workload
from repro.workloads import generate_distance_sets, index_queries_from_sets


class DijkstraEngine:
    """Adapter giving the index-free search the engine interface."""

    name = "Dijkstra-CSP"

    def __init__(self, network):
        self._network = network

    def query(self, source, target, budget, want_path=False, deadline=None):
        return constrained_dijkstra(
            self._network, source, target, budget,
            want_path=want_path, deadline=deadline,
        )


def main() -> None:
    network = grid_network(16, 16, seed=23)
    d_max = estimate_diameter(network)
    sets = generate_distance_sets(network, size=50, d_max=d_max, seed=23)
    queries = sets["Q4"].queries
    print(f"network: {network.num_vertices} vertices; "
          f"workload: {len(queries)} Q4 queries")

    started = time.perf_counter()
    index = QHLIndex.build(
        network,
        index_queries=index_queries_from_sets(
            list(sets.values()), 2000, seed=23
        ),
        seed=23,
    )
    print(f"index built in {time.perf_counter() - started:.1f}s")
    cola = COLAEngine(network, num_parts=8, seed=23)

    engines = [
        index.qhl_engine(),
        index.qhl_engine(use_pruning_conditions=False),
        index.qhl_engine(use_two_pointer=False),
        index.csp2hop_engine(),
        cola,
        DijkstraEngine(network),
    ]
    labels = [
        "QHL", "QHL w/o pruning", "QHL w/o 2-pointer",
        "CSP-2Hop", "COLA", "Dijkstra-CSP",
    ]

    # All engines must agree before we time anything.
    reference = [engines[0].query(q.source, q.target, q.budget).pair()
                 for q in queries]
    for engine, label in zip(engines[1:], labels[1:]):
        answers = [engine.query(q.source, q.target, q.budget).pair()
                   for q in queries]
        assert answers == reference, f"{label} disagrees!"
    print("all six engines agree on every query\n")

    print(f"{'engine':>18}  {'avg query':>12}  {'hoplinks':>9}  "
          f"{'concats':>9}")
    for engine, label in zip(engines, labels):
        report = run_workload(engine, queries)
        print(f"{label:>18}  {report.avg_ms:>9.3f} ms  "
              f"{report.avg_hoplinks:>9.1f}  "
              f"{report.avg_concatenations:>9.1f}")


if __name__ == "__main__":
    main()
