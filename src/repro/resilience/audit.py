"""Deep self-audit of a built QHL index.

A QHL index is only as good as its invariants: the tree decomposition
must satisfy Definition 7 and Properties 1-2, every skyline set must be
canonical (cost strictly increasing, weight strictly decreasing — i.e.
dominance-free), every vertex's label must cover exactly its ancestor
chain, the LCA structure must agree with the raw parent pointers, and —
the only *semantic* check — a sample of queries must agree with the
exact constrained-Dijkstra baseline.

:func:`audit_index` runs all of these and returns a machine-readable
:class:`AuditReport`; the ``repro verify`` CLI command and the query
service's opt-in ``require_audit`` gate are thin wrappers around it.
Each class of corruption the storage layer cannot catch with a checksum
(a bit flip *before* the checksum was computed, a buggy build, a
hand-edited file) maps to a named check, so the corruption-matrix test
in ``tests/service/`` can assert one check — and only the right one —
trips per seeded defect.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer

#: Per-check cap on recorded problem strings (the counts are exact; only
#: the examples are truncated).
MAX_PROBLEMS = 20


@dataclass
class AuditCheck:
    """Outcome of one named invariant check."""

    name: str
    checked: int = 0
    problem_count: int = 0
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.problem_count == 0

    def add(self, problem: str) -> None:
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "problem_count": self.problem_count,
            "problems": list(self.problems),
            "seconds": round(self.seconds, 6),
        }


@dataclass
class AuditReport:
    """Machine-readable result of :func:`audit_index`."""

    checks: list[AuditCheck] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def check(self, name: str) -> AuditCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def failed_checks(self) -> list[str]:
        return [check.name for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
            "checks": [check.to_dict() for check in self.checks],
        }

    def summary(self) -> str:
        """Human-readable multi-line summary (one line per check)."""
        lines = []
        for check in self.checks:
            status = "ok" if check.ok else "FAIL"
            line = (
                f"{status:4s} {check.name:16s} "
                f"checked={check.checked}"
            )
            if not check.ok:
                line += f" problems={check.problem_count}"
            lines.append(line)
            for problem in check.problems[:3]:
                lines.append(f"       - {problem}")
            if check.problem_count > 3:
                lines.append(
                    f"       … and {check.problem_count - 3} more"
                )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"audit {verdict} in {self.seconds:.2f}s")
        return "\n".join(lines)


def audit_index(
    index,
    queries: int = 8,
    seed: int = 0,
    deep_tree: bool | None = None,
) -> AuditReport:
    """Audit a :class:`~repro.core.engine.QHLIndex` end to end, over
    object or flat (possibly mmap'd) labels.

    Runs six named checks — seven over flat labels, which add the
    ``flat-columns`` check: offset-table monotonicity and per-vertex
    hub sortedness (the invariants behind the flat engine's binary
    searches), the pruning-condition columns' offsets, rows and bounds,
    and, when the columns carry provenance, in-range kinds
    and child rows, edge rows that name network edges, and seeded
    sampled rows whose expanded path is a walk between the row's two
    vertices with the row's ``(weight, cost)``:

    ``tree-structure``
        Definition 7 plus Properties 1-2 via
        :mod:`repro.hierarchy.validation`.  The Definition-7 subtree
        check is quadratic, so it is skipped above 2000 vertices unless
        ``deep_tree=True`` (Properties 1-2 always run).
    ``label-order``
        Every stored skyline set has strictly increasing costs.
    ``label-dominance``
        Every stored skyline set has strictly decreasing weights (with
        costs increasing this is exactly dominance-freeness), and every
        entry's metrics are finite and non-negative.
    ``label-coverage``
        ``L(v)`` covers exactly the ancestor chain of ``X(v)`` — a
        dropped hoplink or a truncated label table both surface here.
    ``lca``
        The Euler-tour LCA structure agrees with a naive parent-chain
        walk on seeded random pairs.
    ``spot-check``
        ``queries`` seeded random CSP queries answered by the QHL
        engine agree (feasibility and optimal weight) with the exact
        constrained-Dijkstra baseline.

    Pure function of ``(index, queries, seed)`` — a private
    ``random.Random(seed)`` drives all sampling.  Never raises on a bad
    index; defects land in the returned report (use
    :class:`~repro.exceptions.AuditError` at the call site to escalate).
    """
    report = AuditReport()
    started = time.perf_counter()
    with get_tracer().span("audit.index") as span:
        report.checks.append(_check_tree(index, deep_tree))
        if hasattr(index.labels, "validate_structure"):
            report.checks.append(_check_flat_columns(index, seed))
        report.checks.append(_check_label_order(index))
        report.checks.append(_check_label_dominance(index))
        report.checks.append(_check_label_coverage(index))
        report.checks.append(_check_lca(index, seed))
        report.checks.append(_check_queries(index, queries, seed))
        span.set("ok", report.ok)
        span.set("failed", ",".join(report.failed_checks()))
    report.seconds = time.perf_counter() - started

    registry = get_registry()
    if registry.enabled:
        registry.gauge(
            "audit_seconds", help="duration of the last index audit"
        ).set(report.seconds)
        registry.counter(
            "audit_runs_total",
            {"status": "pass" if report.ok else "fail"},
            help="index audits by outcome",
        ).inc()
        for check in report.checks:
            registry.counter(
                "audit_checks_total",
                {"check": check.name, "status": "pass" if check.ok else "fail"},
                help="audit checks by name and outcome",
            ).inc()
            if check.problem_count:
                registry.counter(
                    "audit_problems_total",
                    {"check": check.name},
                    help="invariant violations found by audits",
                ).inc(check.problem_count)
    return report


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _timed(check: AuditCheck, started: float) -> AuditCheck:
    check.seconds = time.perf_counter() - started
    return check


def _check_tree(index, deep_tree: bool | None) -> AuditCheck:
    from repro.hierarchy.validation import (
        validate_definition7,
        validate_property1,
        validate_property2,
    )

    check = AuditCheck("tree-structure")
    started = time.perf_counter()
    tree = index.tree
    run_deep = (
        deep_tree
        if deep_tree is not None
        else tree.num_vertices <= 2000
    )
    try:
        problems = list(validate_property1(tree))
        problems += validate_property2(tree)
        check.checked = 2
        if run_deep:
            problems += validate_definition7(index.network, tree)
            check.checked = 3
        for problem in problems:
            check.add(problem)
    except Exception as exc:  # lint: allow=QHL002 corrupt structures can throw anywhere; the audit's job is to report, not to crash
        check.add(f"tree validation raised {type(exc).__name__}: {exc}")
    return _timed(check, started)


def _check_flat_columns(index, seed: int) -> AuditCheck:
    """Structural audit of a flat label store's columns.

    Runs only for indexes whose labels expose ``validate_structure``
    (:class:`~repro.storage.flat.FlatLabelStore`): offset monotonicity
    and per-vertex hub sortedness — the invariants the flat engine's
    binary searches assume — and the provenance columns, if any (see
    :func:`_check_provenance`).  Cost-sortedness and dominance-freeness
    of the entry columns are covered by ``label-order`` /
    ``label-dominance``, which iterate the store's ``items()`` like any
    object store.  The pruning-condition columns are checked too
    (:meth:`~repro.core.pruning.PruningConditionIndex.
    validate_structure`): ``cond_start`` monotone from 0 to the
    condition count, each ``v_end`` in range and strictly increasing
    within its child, each row as long as its separator, and no
    negative or NaN bound.
    """
    check = AuditCheck("flat-columns")
    started = time.perf_counter()
    labels, pruning = index.labels, index.pruning
    check.checked = (
        labels.num_sets() + labels.num_vertices + pruning.num_conditions
    )
    try:
        for problem in labels.validate_structure():
            check.add(problem)
        for problem in pruning.validate_structure():
            check.add(f"pruning conditions: {problem}")
        if labels.provenance is not None and check.ok:
            _check_provenance(index, check, seed)
    except Exception as exc:  # lint: allow=QHL002 corrupt offset tables can raise anywhere; the audit's job is to report, not to crash
        check.add(
            f"column validation raised {type(exc).__name__}: {exc}"
        )
    return _timed(check, started)


def _check_provenance(
    index, check: AuditCheck, seed: int, samples: int = 32
) -> None:
    """Edge rows must name network edges, and ``samples`` seeded label
    rows must expand to a walk between the row's vertices ``v`` and
    ``u`` (it sits in ``P(v, u)``) whose summed metrics are the row's
    ``(weight, cost)``."""
    from bisect import bisect_right

    from repro.skyline.entries import restore
    from repro.storage.compact import PROV_EDGE

    labels, network = index.labels, index.network
    kinds, a_col, b_col, _c_col = labels.provenance
    for r in range(len(kinds)):
        if kinds[r] != PROV_EDGE or network.has_edge(a_col[r], b_col[r]):
            continue
        check.add(
            f"provenance row {r}: ({a_col[r]}, {b_col[r]}) is not a "
            "network edge"
        )
    check.checked += len(kinds)
    entries = labels.num_entries()
    rng = random.Random(seed)
    for row in sorted(rng.sample(range(entries), min(samples, entries))):
        check.checked += 1
        i = bisect_right(labels.entry_offsets, row) - 1
        v = bisect_right(labels.set_offsets, i) - 1
        u = labels.hubs[i]
        try:
            path = labels.walk(row)
        except Exception as exc:  # lint: allow=QHL002 corrupt provenance can raise anything; record and keep auditing
            check.add(f"row {row} of P({v}, {u}) does not expand: {exc}")
            continue
        if {path[0], path[-1]} != {v, u}:
            check.add(
                f"row {row} of P({v}, {u}) expands to a path between "
                f"{path[0]} and {path[-1]}"
            )
            continue
        problem = _walk_problem(
            network, path,
            restore(labels.weights[row]), restore(labels.costs[row]),
        )
        if problem:
            check.add(f"row {row} of P({v}, {u}): {problem}")


def _walk_problem(network, path, weight, cost) -> str | None:
    """Why ``path`` is no walk with metrics ``(weight, cost)``, or
    ``None``.  With parallel edges, any choice per hop may match."""
    def within(x: float, bound: float) -> bool:
        return x <= bound or math.isclose(x, bound, rel_tol=1e-9)

    sums = {(0, 0)}
    for x, y in zip(path, path[1:], strict=False):
        options = network.edge_metrics(x, y)
        if not options:
            return f"({x}, {y}) on its path is not a network edge"
        sums = {
            (sw + w, sc + c)
            for sw, sc in sums
            for w, c in options
            if within(sw + w, weight) and within(sc + c, cost)
        }
    if not any(
        math.isclose(sw, weight, rel_tol=1e-9, abs_tol=1e-9)
        and math.isclose(sc, cost, rel_tol=1e-9, abs_tol=1e-9)
        for sw, sc in sums
    ):
        return f"its path does not sum to ({weight!r}, {cost!r})"
    return None


def _check_label_order(index) -> AuditCheck:
    check = AuditCheck("label-order")
    started = time.perf_counter()
    for v, u, entries in index.labels.items():
        check.checked += 1
        prev_cost = None
        for i, entry in enumerate(entries):
            cost = entry[1]
            if prev_cost is not None and cost <= prev_cost:
                check.add(
                    f"P({v}, {u}) entry {i}: cost {cost!r} not strictly "
                    f"above previous {prev_cost!r}"
                )
                break
            prev_cost = cost
    return _timed(check, started)


def _check_label_dominance(index) -> AuditCheck:
    check = AuditCheck("label-dominance")
    started = time.perf_counter()
    for v, u, entries in index.labels.items():
        check.checked += 1
        prev_weight = None
        for i, entry in enumerate(entries):
            weight, cost = entry[0], entry[1]
            if not (
                math.isfinite(weight)
                and math.isfinite(cost)
                and weight >= 0
                and cost >= 0
            ):
                check.add(
                    f"P({v}, {u}) entry {i}: non-finite or negative "
                    f"metrics ({weight!r}, {cost!r})"
                )
                break
            if prev_weight is not None and weight >= prev_weight:
                check.add(
                    f"P({v}, {u}) entry {i}: weight {weight!r} not "
                    f"strictly below previous {prev_weight!r} "
                    "(dominated entry)"
                )
                break
            prev_weight = weight
    return _timed(check, started)


def _check_label_coverage(index) -> AuditCheck:
    check = AuditCheck("label-coverage")
    started = time.perf_counter()
    tree = index.tree
    labels = index.labels
    for v in range(tree.num_vertices):
        check.checked += 1
        expected = set(tree.ancestors(v))
        actual = set(labels.label(v).keys())
        missing = expected - actual
        extra = actual - expected
        if missing:
            sample = sorted(missing)[:3]
            check.add(
                f"L({v}) is missing {len(missing)} ancestor hub(s), "
                f"e.g. {sample} (dropped hoplink or truncated table)"
            )
        if extra:
            sample = sorted(extra)[:3]
            check.add(
                f"L({v}) has {len(extra)} non-ancestor hub(s), "
                f"e.g. {sample}"
            )
    return _timed(check, started)


def _check_lca(index, seed: int, pairs: int = 64) -> AuditCheck:
    check = AuditCheck("lca")
    started = time.perf_counter()
    tree = index.tree
    n = tree.num_vertices
    rng = random.Random(seed)

    def naive_lca(a: int, b: int) -> int:
        while tree.depth[a] > tree.depth[b]:
            a = tree.parent[a]
        while tree.depth[b] > tree.depth[a]:
            b = tree.parent[b]
        while a != b:
            a, b = tree.parent[a], tree.parent[b]
        return a

    for _ in range(min(pairs, n * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        check.checked += 1
        try:
            got = index.lca.query(a, b)
        except Exception as exc:  # lint: allow=QHL002 a corrupt LCA index can raise anything; record and keep auditing
            check.add(f"lca({a}, {b}) raised {type(exc).__name__}: {exc}")
            continue
        want = naive_lca(a, b)
        if got != want:
            check.add(f"lca({a}, {b}) = {got}, parent-chain walk says {want}")
    return _timed(check, started)


def _check_queries(index, queries: int, seed: int) -> AuditCheck:
    from repro.baselines.dijkstra_csp import constrained_dijkstra
    from repro.graph.algorithms import dijkstra, sample_connected_pair

    check = AuditCheck("spot-check")
    started = time.perf_counter()
    if queries <= 0 or index.network.num_vertices < 2:
        return _timed(check, started)
    rng = random.Random(seed)
    engine = index.qhl_engine()
    for _ in range(queries):
        s, t = sample_connected_pair(index.network, rng)
        # Budget between d_c(s, t) and 1.6 * d_c(s, t): always feasible,
        # and the spread exercises the interesting part of the skyline.
        d_cost = dijkstra(index.network, s, metric="cost", targets=[t])[t]
        budget = d_cost * (1.0 + 0.6 * rng.random())
        check.checked += 1
        expected = constrained_dijkstra(
            index.network, s, t, budget, want_path=False
        )
        try:
            got = engine.query(s, t, budget)
        except Exception as exc:  # lint: allow=QHL002 a corrupt index can raise anything; record and keep auditing
            check.add(
                f"query({s}, {t}, {budget:.6g}) raised "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        if got.feasible != expected.feasible:
            check.add(
                f"query({s}, {t}, {budget:.6g}): index says "
                f"feasible={got.feasible}, baseline says "
                f"{expected.feasible}"
            )
        elif got.feasible and not math.isclose(
            got.weight, expected.weight, rel_tol=1e-9, abs_tol=1e-9
        ):
            check.add(
                f"query({s}, {t}, {budget:.6g}): index weight "
                f"{got.weight!r} != baseline {expected.weight!r}"
            )
    return _timed(check, started)
