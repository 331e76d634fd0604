"""Figure 8 — ablation study on NY.

Paper: two QHL variants, compared on # path concatenations per query:

* "QHL-w/o Alg. 3" — no pruning conditions (all C_ub = 0); picks the
  cheaper of H(s)/H(t) by T(H) but never prunes.  Costs ~2x more
  concatenations on Q1/Q2; the gap narrows for long bands (larger C
  defeats more C_ub bounds).
* "QHL-w/o Alg. 4" — Cartesian concatenation instead of the two-pointer
  sweep.  Costs dramatically more (the complexity regains a multiplier).

Every variant runs as the object sweep (:class:`~repro.core.qhl.
QHLEngine` over the index's labels), so concatenations are counted as
Algorithm 5 counts them.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import get_bundle, record_rows
from repro.core import QHLEngine
from repro.instrument import run_workload

Q_SETS = ("Q1", "Q2", "Q3", "Q4", "Q5")

VARIANTS = {
    "QHL": dict(use_pruning_conditions=True, use_two_pointer=True),
    "QHL-noPrune": dict(use_pruning_conditions=False, use_two_pointer=True),
    "QHL-cartesian": dict(
        use_pruning_conditions=True, use_two_pointer=False
    ),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_fig8_ablation_concatenations(benchmark, variant):
    bundle = get_bundle("NY")
    index = bundle.index
    engine = QHLEngine(
        index.tree, index.labels, index.lca, index.pruning,
        **VARIANTS[variant],
    )
    engine.name = variant

    def sweep():
        return [
            run_workload(engine, bundle.q_sets[name].queries, name)
            for name in Q_SETS
        ]

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for report in reports:
        benchmark.extra_info[f"{report.workload}_concats"] = round(
            report.avg_concatenations, 1
        )
        rows.append(
            f"[NY] {report.workload:>4} {variant:>14} "
            f"{report.avg_concatenations:>12.1f} {report.avg_ms:>9.3f} ms"
        )
    record_rows(
        "fig8_ablation.txt",
        f"[NY] {'set':>4} {'variant':>14} {'concats':>12} {'avg time':>12}",
        rows,
    )
    assert all(r.feasible == r.num_queries for r in reports)
