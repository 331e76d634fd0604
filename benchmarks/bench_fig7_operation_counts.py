"""Figure 7 — numbers of hoplinks and path concatenations, varying Q.

Paper: per-query averages for CSP-2Hop vs QHL on NY/BAY/COL.  Key
shapes: QHL always uses fewer hoplinks (pruning conditions + smaller
initial separators); hoplink counts are flat in the distance band
(bounded by the treewidth, which ignores metrics); concatenation counts
track the query-time curves and blow up for CSP-2Hop on COL's long
bands.

COLA is omitted, as in the paper (no hoplinks / concatenations).  QHL
runs as the object sweep (:class:`~repro.core.qhl.QHLEngine` over the
index's labels), whose counters are Algorithm 5's; the flat engine a
built index serves with skips provably infeasible pairs.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import DATASETS, get_bundle, record_rows
from repro.core import QHLEngine
from repro.instrument import run_workload

Q_SETS = ("Q1", "Q2", "Q3", "Q4", "Q5")
ENGINES = ("QHL", "CSP-2Hop")


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_fig7_operation_counts(benchmark, dataset, engine_name):
    bundle = get_bundle(dataset)
    index = bundle.index
    engine = (
        QHLEngine(index.tree, index.labels, index.lca, index.pruning)
        if engine_name == "QHL"
        else index.csp2hop_engine()
    )

    def sweep():
        return [
            run_workload(engine, bundle.q_sets[name].queries, name)
            for name in Q_SETS
        ]

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for report in reports:
        benchmark.extra_info[f"{report.workload}_hoplinks"] = round(
            report.avg_hoplinks, 1
        )
        benchmark.extra_info[f"{report.workload}_concats"] = round(
            report.avg_concatenations, 1
        )
        rows.append(
            f"[{dataset}] {report.workload:>4} {engine_name:>10} "
            f"{report.avg_hoplinks:>9.1f} {report.avg_concatenations:>12.1f}"
        )
    record_rows(
        "fig7_operation_counts.txt",
        f"[{dataset}] {'set':>4} {'engine':>10} {'hoplinks':>9} "
        f"{'concats':>12}",
        rows,
    )
    assert all(r.avg_hoplinks >= 0 for r in reports)
