"""Differential-testing harness.

Every engine in this package claims the same contract: for a query
``(s, t, C)`` return the minimum weight over s-t paths of cost ``<= C``
and, among minimum-weight answers, the smallest cost (see
``repro.core.concatenation.concat_best_under``).  This module
cross-checks the claim by running one query set through every engine and
diffing the ``(feasible, weight, cost)`` triples against the index-free
reference (:func:`repro.baselines.dijkstra_csp.constrained_dijkstra`).

Query generation is seed-pinned (private ``random.Random``) and budgets
are drawn from each pair's true cost range, so every run exercises the
interesting regimes: infeasible budgets, the tight boundary, mid-range
trade-offs, and effectively-unconstrained queries.

``REPRO_DIFF_QUERIES`` scales the per-family query count (CI pins it
for a fixed differential budget; unset, the tests use their defaults).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.baselines import constrained_dijkstra, skyline_between
from repro.baselines.sky_dijkstra import SkyDijkstraEngine
from repro.core import QHLIndex
from repro.core.qhl import QHLEngine
from repro.dynamic import DynamicQHLIndex
from repro.types import CSPQuery


def query_count(default: int) -> int:
    """Per-family query budget, overridable via ``REPRO_DIFF_QUERIES``."""
    raw = os.environ.get("REPRO_DIFF_QUERIES", "")
    return int(raw) if raw else default


@dataclass(frozen=True)
class Disagreement:
    """One engine answering one query differently from the reference."""

    engine: str
    query: CSPQuery
    got: tuple
    want: tuple

    def __str__(self) -> str:  # pragma: no cover - failure diagnostics
        s, t, c = self.query
        return (
            f"{self.engine} on ({s}, {t}, C={c}): "
            f"got {self.got}, reference says {self.want}"
        )


def generate_cases(network, count: int, seed: int) -> list[CSPQuery]:
    """``count`` seed-pinned queries spanning the budget spectrum.

    For each sampled pair the true cost range ``[min_cost, max_cost]``
    of its skyline frontier anchors four budget regimes: just below
    ``min_cost`` (infeasible), exactly ``min_cost`` (the boundary),
    uniform inside the range (the trade-off region), and above
    ``max_cost`` (unconstrained).  Pure function of
    ``(network, count, seed)``.
    """
    rng = random.Random(seed)
    n = network.num_vertices
    cases: list[CSPQuery] = []
    while len(cases) < count:
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        frontier = skyline_between(network, s, t)
        costs = [entry[1] for entry in frontier]
        lo, hi = min(costs), max(costs)
        regime = len(cases) % 4
        if regime == 0:
            budget = max(0.0, lo - 1)
        elif regime == 1:
            budget = lo
        elif regime == 2:
            budget = rng.uniform(lo, hi) if hi > lo else lo
        else:
            budget = hi * 1.5 + 1
        cases.append(CSPQuery(s, t, budget))
    return cases


def engines_under_test(
    index: QHLIndex, cache_size: int = 32
) -> list[tuple[str, object]]:
    """``(label, engine)`` for every label-based engine over every label
    store, plus the index-free ladder floor.

    ``index`` is a built index, which serves from flat columns
    (:class:`~repro.storage.flat.FlatLabelStore`).  The same engines also
    run over object labels — those of a dynamic index built from the
    same network — and the object-sweep :class:`~repro.core.qhl.QHLEngine`
    runs over the columns too, so every differential run diffs each
    engine and store pairing against the reference.
    """
    objects = DynamicQHLIndex.build(
        index.network, num_index_queries=100, seed=17
    ).index
    engines = [
        ("flat", index.qhl_engine()),
        ("flat", index.qhl_engine(use_pruning_conditions=False)),
        ("flat", QHLEngine(index.tree, index.labels, index.lca,
                           index.pruning)),
        ("flat", index.cached_engine(cache_size)),
        ("flat", index.csp2hop_engine()),
        ("objects", objects.qhl_engine()),
        ("objects", objects.qhl_engine(use_pruning_conditions=False)),
        ("objects", objects.cached_engine(cache_size)),
        ("objects", objects.csp2hop_engine()),
        ("graph", SkyDijkstraEngine(index.network)),
    ]
    return [(f"{engine.name} over {store}", engine)
            for store, engine in engines]


def answer(result) -> tuple:
    return (result.feasible, result.weight, result.cost)


def run_differential(
    network,
    queries: list[CSPQuery],
    index: QHLIndex | None = None,
    cache_size: int = 32,
) -> list[Disagreement]:
    """Diff every engine against the constrained-Dijkstra reference.

    The cached engine is queried *twice* per case (cold then hot), so
    the hit path — binary search over a cached frontier — is diffed
    against the reference too, not just the miss path that computed it.
    """
    if index is None:
        index = QHLIndex.build(network, num_index_queries=100, seed=17)
    engines = engines_under_test(index, cache_size=cache_size)
    disagreements: list[Disagreement] = []
    for query in queries:
        s, t, c = query
        want = answer(constrained_dijkstra(network, s, t, c))
        for label, engine in engines:
            repeats = 2 if engine.name == "QHL+cache" else 1
            for _ in range(repeats):
                got = answer(engine.query(s, t, c))
                if got != want:
                    disagreements.append(
                        Disagreement(label, query, got, want)
                    )
    return disagreements


def format_disagreements(disagreements: list[Disagreement]) -> str:
    return "\n".join(str(d) for d in disagreements[:20])
