"""Design-choice ablation: other forms of pruning conditions (paper §4.3).

The paper argues its (v_end, C)-form conditions strictly generalise the
"s-only" form — conditions valid for *any* budget, i.e. exactly our
bounds with ``C_ub = +inf`` (``P_sh ⊆ P''`` with no θ cut-off).  This
bench quantifies that claim: how many of the learned bounds are finite
(usable only thanks to the budget-aware form), and how much pruning the
s-only subset would lose on the Q2 workload.  Both rows run the flat
engine (the column sweep), so their concatenation counts follow one
rule.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import DATASETS, get_bundle, record_rows
from repro.core import FlatQHLEngine, PruningConditionIndex, dense_rows
from repro.instrument import run_workload

INF = float("inf")


def s_only_subset(tree, pruning: PruningConditionIndex):
    """The §4.3 's-only' restriction: keep only C_ub = +inf bounds."""
    return PruningConditionIndex(tree.bag).freeze(dense_rows(tree.bag, {
        (child, v_end): {h: ub for h, ub in bounds.items() if ub == INF}
        for child, v_end, bounds in pruning.items()
    }))


@pytest.mark.parametrize("dataset", DATASETS)
def test_ablation_condition_forms(benchmark, dataset):
    bundle = get_bundle(dataset)
    index = bundle.index
    queries = bundle.q_sets["Q2"].queries

    full_engine = index.qhl_engine()
    s_only_engine = FlatQHLEngine(
        index.tree, index.labels, index.lca,
        s_only_subset(index.tree, index.pruning),
    )
    s_only_engine.name = "QHL-sOnly"

    def race():
        return (
            run_workload(full_engine, queries, "Q2"),
            run_workload(s_only_engine, queries, "Q2"),
        )

    full, s_only = benchmark.pedantic(race, rounds=1, iterations=1)

    total = index.pruning.num_bounds()
    finite = sum(
        1
        for _child, _v_end, bounds in index.pruning.items()
        for ub in bounds.values()
        if ub != INF
    )
    benchmark.extra_info["finite_bounds"] = finite
    benchmark.extra_info["total_bounds"] = total
    record_rows(
        "ablation_condition_forms.txt",
        f"[{dataset}] {'form':>12} {'bounds':>7} {'hoplinks':>9} "
        f"{'concats':>9}",
        [
            f"[{dataset}] {'(v_end, C)':>12} {total:>7} "
            f"{full.avg_hoplinks:>9.1f} {full.avg_concatenations:>9.1f}",
            f"[{dataset}] {'s-only':>12} {total - finite:>7} "
            f"{s_only.avg_hoplinks:>9.1f} "
            f"{s_only.avg_concatenations:>9.1f}",
        ],
    )
    # Answers must agree; the s-only form may only prune less.
    assert s_only.avg_hoplinks >= full.avg_hoplinks
    assert full.feasible == s_only.feasible == len(queries)
