"""Golden-file regression pin of the paper's worked example.

``tests/golden/paper_example.json`` freezes every observable of the
query ``(v8, v4, C=13)`` over the Figure 1 network — the hoplink sets
``H(s)`` / ``H(t)``, what the pruning conditions removed, the candidate
estimates, the per-hoplink concatenation work (the paper's "3 path
concatenations"), the answer, the per-phase operation counters, and the
skyline sets the worked examples quote.  A behavioural drift anywhere
in the pipeline — decomposition order, label contents, pruning, or
concatenation — shows up here as a readable JSON diff instead of a
silent perf or correctness regression.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import QHLEngine
from repro.datasets.paper_example import v

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "paper_example.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def explanation(paper_index, golden):
    q = golden["query"]
    return _object_sweep(paper_index).explain(
        q["source"], q["target"], q["budget"]
    )


def _object_sweep(index):
    """The object-sweep engine: its counters are Algorithm 5's, which
    the golden file pins (the flat sweep skips provably infeasible
    pairs)."""
    return QHLEngine(index.tree, index.labels, index.lca, index.pruning)


class TestQueryPlan:
    def test_case_and_lca(self, explanation, golden):
        assert explanation.case == golden["case"]
        assert explanation.lca == golden["lca"]

    def test_initial_hoplink_sets(self, explanation, golden):
        """H(s) = {v10, v13} and H(t) = {v10, v12} (Example 11)."""
        got = [
            {"child": child, "separator": list(sep)}
            for child, sep in explanation.initial_separators
        ]
        assert got == golden["initial_separators"]

    def test_pruning_applications(self, explanation, golden):
        got = [
            {
                "child": app.separator_child,
                "v_end": app.v_end,
                "before": list(app.before),
                "after": list(app.after),
            }
            for app in explanation.conditions
        ]
        assert got == golden["pruning_applications"]

    def test_candidates_and_choice(self, explanation, golden):
        got = [
            {"separator": list(sep), "estimated_cost": cost}
            for sep, cost in explanation.candidates
        ]
        assert got == golden["candidates"]
        assert list(explanation.chosen) == golden["chosen"]

    def test_hoplink_concatenation_work(self, explanation, golden):
        """The query costs exactly 3 concatenations (Example 10/15)."""
        got = [
            {
                "hoplink": work.hoplink,
                "size_sh": work.size_sh,
                "size_ht": work.size_ht,
                "inspected": work.inspected,
                "found": list(work.found) if work.found else None,
            }
            for work in explanation.hoplinks
        ]
        assert got == golden["hoplink_work"]
        assert sum(w.inspected for w in explanation.hoplinks) == 3

    def test_answer(self, explanation, golden):
        assert list(explanation.answer) == golden["answer"]


class TestOperationCounters:
    def test_per_phase_op_counts(self, paper_index, golden):
        q = golden["query"]
        result = _object_sweep(paper_index).query(
            q["source"], q["target"], q["budget"]
        )
        want = golden["query_stats"]
        assert result.stats.hoplinks == want["hoplinks"]
        assert result.stats.concatenations == want["concatenations"]
        assert result.stats.label_lookups == want["label_lookups"]
        assert result.stats.candidates == want["candidates"]

    def test_pruning_index_size(self, paper_index, golden):
        assert (
            paper_index.pruning.num_conditions
            == golden["num_pruning_conditions"]
        )


class TestSkylineSets:
    def test_worked_example_frontiers(self, paper_index, golden):
        """The P sets the examples quote, e.g. P_v8v4 (Example 2)."""
        cached = paper_index.cached_engine(cache_size=32)
        for key, want in golden["frontiers"].items():
            a, b = (int(x) for x in key.split(","))
            got = [[e[0], e[1]] for e in cached.frontier(v(a), v(b))]
            assert got == want, f"P_v{a}v{b} drifted"
