"""Query-plan explanation.

``engine.explain(s, t, C)`` re-runs the Algorithm-3 pipeline with an
:class:`ExplainHook` and records every decision — which case fired,
the initial separators, which pruning conditions applied and what they
removed, each candidate's estimated cost, and the per-hoplink
concatenation work.  The paper's
worked examples (10-15) are exactly this trace for one query; the
feature makes that narration available for *any* query.

:func:`explain_trace` is the observability counterpart: it renders a
captured span tree (from :mod:`repro.observability.tracing`) with each
phase annotated by the paper section it implements, so ``repro-qhl
query --trace`` reads like the worked examples but with measured
timings attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.export import render_trace
from repro.observability.tracing import Span
from repro.types import CSPQuery


@dataclass
class ConditionApplication:
    """One pruning condition matched during Algorithm 4."""

    separator_child: int
    v_end: int
    before: tuple[int, ...]
    after: tuple[int, ...]

    @property
    def pruned(self) -> tuple[int, ...]:
        return tuple(h for h in self.before if h not in set(self.after))


@dataclass
class HoplinkWork:
    """Concatenation work for one chosen hoplink."""

    hoplink: int
    size_sh: int
    size_ht: int
    inspected: int
    found: tuple[float, float] | None


@dataclass
class QueryExplanation:
    """Structured trace of one QHL query."""

    query: CSPQuery
    case: str  # "same-vertex" | "ancestor-descendant" | "separator"
    lca: int | None = None
    initial_separators: list[tuple[int, tuple[int, ...]]] = field(
        default_factory=list
    )
    conditions: list[ConditionApplication] = field(default_factory=list)
    candidates: list[tuple[tuple[int, ...], int]] = field(
        default_factory=list
    )
    chosen: tuple[int, ...] = ()
    hoplinks: list[HoplinkWork] = field(default_factory=list)
    answer: tuple[float, float] | None = None

    def render(self) -> str:
        """A human-readable multi-line account of the plan."""
        q = self.query
        lines = [
            f"query: {q.source} -> {q.target} within budget {q.budget:g}"
        ]
        if self.case == "same-vertex":
            lines.append("case: source equals target — zero path")
        elif self.case == "ancestor-descendant":
            lines.append(
                "case: ancestor-descendant — answer read from one label"
            )
        else:
            lines.append(f"case: separator search (LCA bag of {self.lca})")
            for child, separator in self.initial_separators:
                lines.append(
                    f"  initial separator via child {child}: "
                    f"{list(separator)}"
                )
            if self.conditions:
                for app in self.conditions:
                    lines.append(
                        f"  condition (child {app.separator_child}, "
                        f"v_end {app.v_end}) pruned {list(app.pruned)}"
                    )
            else:
                lines.append("  no pruning condition matched")
            for separator, cost in self.candidates:
                marker = "*" if separator == self.chosen else " "
                lines.append(
                    f"  {marker} candidate {list(separator)}  "
                    f"T(H) = {cost}"
                )
            for work in self.hoplinks:
                found = (
                    f"best {work.found}" if work.found else "nothing better"
                )
                lines.append(
                    f"  hoplink {work.hoplink}: |P_sh|={work.size_sh} "
                    f"|P_ht|={work.size_ht} inspected {work.inspected} "
                    f"-> {found}"
                )
        lines.append(
            f"answer: {self.answer}"
            if self.answer
            else "answer: infeasible"
        )
        return "\n".join(lines)


class ExplainHook:
    """The Algorithm-3 phase hook behind ``explain()``.

    Fills :attr:`trace` from the pipeline's phase events (see
    :mod:`repro.core.qhl`).  ``condition_ends`` pairs each
    pruning-condition store with the end vertex its conditions fire on
    (empty when condition pruning is off); the hook re-reads them to
    record which conditions matched.  A query that raises no event is
    the same-vertex case.
    """

    def __init__(self, query: CSPQuery, condition_ends=()):
        self.trace = QueryExplanation(query, "same-vertex")
        self._ends = condition_ends
        self._candidates: list[tuple[int, ...]] = []
        self._best: tuple[float, float] | None = None

    def __call__(self, phase: str, access, value) -> None:
        trace = self.trace
        if phase == "lca":
            trace.case = "separator"
            trace.lca = value
        elif phase == "label-lookup":
            trace.case = "ancestor-descendant"
        elif phase == "separator-init":
            trace.initial_separators = [
                (child, tuple(separator)) for child, separator in value
            ]
            budget = trace.query.budget
            for child, separator in trace.initial_separators:
                for index, v_end in self._ends:
                    pruned = index.prune(child, v_end, separator, budget)
                    if pruned is not None and pruned != separator:
                        trace.conditions.append(
                            ConditionApplication(
                                child, v_end, separator, pruned
                            )
                        )
        elif phase == "pruning":
            self._candidates = value
        elif phase == "hoplink-select":
            trace.candidates = [
                (sep, access.estimated_cost(sep)) for sep in self._candidates
            ]
            trace.chosen = value
        elif phase == "hoplink":
            h, inspected = value
            # A hoplink found something iff it improved the best answer.
            best = access.best()
            found = best if best != self._best else None
            self._best = best
            size_sh, size_ht = access.sizes(h)
            trace.hoplinks.append(
                HoplinkWork(h, size_sh, size_ht, inspected, found)
            )


#: Query-pipeline span names mapped to the paper phase they implement.
PHASE_NOTES: dict[str, str] = {
    "qhl.query": "Algorithm 3 end-to-end",
    "csp2hop.query": "Algorithm 2 end-to-end",
    "lca": "LCA lookup (Alg. 3 line 1)",
    "label-lookup": "ancestor-descendant label fetch (Alg. 3 lines 2-5)",
    "separator-init": "separator initialisation (paper §3.2)",
    "pruning": "pruning-condition checks (paper §3.3, Alg. 4)",
    "hoplink-select": "hoplink selection by T(H) (Alg. 3 line 9)",
    "concatenation": "two-pointer concatenation (paper §3.4, Alg. 5)",
    "hoplink": "one hoplink's P_sh x P_ht sweep",
    "qhl.build": "index construction (paper §2.3 + §4)",
    "tree-decomposition": "tree decomposition (paper §2.2)",
    "label-construction": "2-hop skyline labels (paper §2.3)",
    "lca-index": "LCA structure",
    "pruning-index": "pruning-condition index (paper §4, Alg. 6-7)",
}


def explain_trace(span: Span) -> str:
    """Render a captured span tree with paper-phase annotations.

    The tree body comes from
    :func:`repro.observability.export.render_trace`; a legend below it
    ties each distinct span name to the paper section it implements, so
    a ``--trace`` dump doubles as a guided tour of Algorithm 3.
    """
    lines = [render_trace(span)]
    seen: list[str] = []

    def collect(node: Span) -> None:
        if node.name in PHASE_NOTES and node.name not in seen:
            seen.append(node.name)
        for child in node.children:
            collect(child)

    collect(span)
    if seen:
        lines.append("")
        width = max(len(name) for name in seen)
        for name in seen:
            lines.append(f"  {name:<{width}}  {PHASE_NOTES[name]}")
    return "\n".join(lines)
