"""Toll-budget routing: the paper's second motivating scenario.

"Under travelers' limited budgets, the fastest route may be infeasible
since it could utilize many highways and bridges with toll charges."

We model a ring of towns around a bay (the BAY-like generator): local
streets are slow but free-ish, the coastal highway and bridges are fast
but expensive.  The weight of each edge is travel time; the cost is its
toll.  Sweeping the toll budget shows the full trade-off curve — each
budget's optimum is one of the skyline paths between the endpoints.

Run with::

    python examples/toll_budget_routing.py
"""

from repro import QHLIndex, ring_network, skyline_between
from repro.skyline import path_of_pairs


def main() -> None:
    network = ring_network(
        num_towns=10, town_rows=4, town_cols=4, num_bridges=4, seed=3
    )
    print(f"bay network: {network.num_vertices} junctions, "
          f"{network.num_edges} segments")

    index = QHLIndex.build(network, num_index_queries=1500, seed=3)

    # Opposite sides of the bay: town 0 and town 5.
    source = 0
    target = 5 * 16  # first junction of town 5

    # The exact trade-off curve (ground truth by skyline Dijkstra).
    skyline = skyline_between(network, source, target)
    print(f"\n{len(skyline)} Pareto-optimal routes between "
          f"{source} and {target}:")
    print(f"{'travel time':>12}  {'toll':>6}")
    for weight, cost in path_of_pairs(skyline):
        print(f"{weight:>12}  {cost:>6}")

    # Sweep the budget across the curve: QHL returns each skyline point
    # exactly when the budget crosses its toll.
    min_toll = skyline[0][1]
    max_toll = skyline[-1][1]
    print(f"\n{'budget':>8}  {'travel time':>12}  {'toll paid':>10}")
    steps = 8
    for i in range(steps + 1):
        budget = min_toll + (max_toll - min_toll) * i / steps
        result = index.query(source, target, budget)
        print(f"{budget:>8.0f}  {result.weight:>12}  {result.cost:>10}")

    # Sanity: with the largest budget the answer is the fastest route.
    fastest = index.query(source, target, budget=max_toll)
    assert fastest.weight == skyline[-1][0]
    print("\nwith the full budget, the fastest route wins — "
          "as the skyline predicts.")


if __name__ == "__main__":
    main()
