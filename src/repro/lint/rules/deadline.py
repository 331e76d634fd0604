"""QHL001: every loop in a deadline-taking function must checkpoint.

The PR-2 serving invariant: a :class:`~repro.service.deadline.Deadline`
threaded into an engine is only worth anything if the engine's loops
actually look at it — a single missed loop turns a 50 ms budget into an
unbounded stall on a pathological query.  The invariant was previously
enforced by reviewer memory across ``core/``, ``baselines/`` and
``perf/``; this rule machine-checks it.

A loop body satisfies the rule when, anywhere in its subtree, it

* calls ``.check(...)`` / ``.expired()`` on the function's deadline
  parameter or on any deadline-named receiver (``self._deadline``, a
  rebound ``remaining_deadline``) — masked variants like ``if pops &
  MASK == 0: deadline.check(stats)`` count, the call just has to be
  reachable inside the iteration; or
* calls a function that **transitively checkpoints** (bounded by
  ``interprocedural_depth`` hops over the call graph) — cooperative
  delegation, now *verified* instead of assumed; or
* forwards the deadline to a callee the call graph cannot resolve
  (an external library, a constructor, a dynamic dispatch) — the old
  blind-credit idiom, kept only where verification is impossible.

Forwarding the deadline to a **resolved project function that never
checks it** is no longer credit — it is its own finding: the deadline
dies in a sink and the loop runs unbudgeted, which is exactly the bug
the blind idiom used to hide.

Loops over literal tuple/list/set displays (``for v_end in (s, t):``)
are exempt: their trip count is a small syntactic constant.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint.context import Module
from repro.lint.dataflow import call_name, iter_scope
from repro.lint.findings import Finding
from repro.lint.rules.base import Project, Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import CallGraph, _FunctionScope

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_CHECK_METHODS = ("check", "expired")

#: Parameters treated as deadlines: by name, or by an annotation
#: mentioning one of these type names.
PARAM_NAMES = ("deadline",)
ANNOTATION_NAMES = ("Deadline",)
#: How many call-graph hops a checkpoint may sit away from the loop
#: before delegation stops counting.
INTERPROCEDURAL_DEPTH = 5


def _deadline_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Parameter names of ``node`` that carry a deadline."""
    params: set[str] = set()
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg in PARAM_NAMES:
            params.add(arg.arg)
            continue
        annotation = arg.annotation
        if annotation is not None:
            text = ast.dump(annotation)
            if any(name in text for name in ANNOTATION_NAMES):
                params.add(arg.arg)
    return params


def _is_literal_iterable(node: ast.AST) -> bool:
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
        not isinstance(element, ast.Starred) for element in node.elts
    )


def _is_direct_check(node: ast.Call, params: set[str]) -> bool:
    """``<deadline>.check()`` / ``.expired()`` on a param or any
    deadline-named receiver chain."""
    func = node.func
    if not (
        isinstance(func, ast.Attribute) and func.attr in _CHECK_METHODS
    ):
        return False
    receiver = call_name(func.value)
    if receiver is None:
        return False
    if receiver in params:
        return True
    return "deadline" in receiver.rpartition(".")[2].lower()


def _checkpointing_functions(graph: "CallGraph") -> set[str]:
    """Functions that check a deadline, directly or through up to
    :data:`INTERPROCEDURAL_DEPTH` call-graph hops."""
    direct: set[str] = set()
    for qname, info in graph.functions.items():
        params = _deadline_params(info.node)
        for node in iter_scope(info.node):
            if isinstance(node, ast.Call) and _is_direct_check(
                node, params
            ):
                direct.add(qname)
                break
    callers: dict[str, set[str]] = {}
    for caller, callees in graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    known = set(direct)
    frontier = direct
    for _ in range(INTERPROCEDURAL_DEPTH):
        frontier = {
            caller
            for callee in frontier
            for caller in callers.get(callee, ())
            if caller not in known
        }
        if not frontier:
            break
        known |= frontier
    return known


@register
class DeadlineCheckpointRule(Rule):
    id = "QHL001"
    name = "deadline-checkpoint"
    rationale = (
        "Deadlines are cooperative: a loop that never calls "
        "Deadline.check() (or delegates to code that verifiably does) "
        "can overrun any budget, defeating the PR-2 serving guarantee."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        checkpointing = _checkpointing_functions(graph)
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            params = _deadline_params(info.node)
            if not params:
                continue
            scope = graph.scope_for(info)
            for child in iter_scope(info.node):
                if not isinstance(child, _LOOPS):
                    continue
                if isinstance(child, (ast.For, ast.AsyncFor)) and (
                    _is_literal_iterable(child.iter)
                ):
                    continue
                yield from self._loop_findings(
                    graph, scope, info.module, info.node.name, child,
                    params, checkpointing,
                )

    # ------------------------------------------------------------------
    def _loop_findings(
        self,
        graph: "CallGraph",
        scope: "_FunctionScope",
        module: Module,
        func_name: str,
        loop: ast.stmt,
        params: set[str],
        checkpointing: set[str],
    ) -> Iterable[Finding]:
        sinks: set[str] = set()
        blind_credit = False
        for node in iter_scope(loop):
            if not isinstance(node, ast.Call):
                continue
            if _is_direct_check(node, params):
                return
            targets = scope.resolve_call(node)
            resolved = [t for t in targets if t in graph.functions]
            if any(t in checkpointing for t in resolved):
                return  # verified delegation
            forwards = any(
                isinstance(arg, ast.Name) and arg.id in params
                for arg in node.args
            ) or any(
                keyword.arg in params
                or (
                    isinstance(keyword.value, ast.Name)
                    and keyword.value.id in params
                )
                for keyword in node.keywords
            )
            if forwards:
                if resolved:
                    sinks.update(
                        graph.functions[t].name for t in resolved
                    )
                else:
                    # Constructor / external / dynamic callee: cannot
                    # verify, keep the old cooperative credit.
                    blind_credit = True
        if blind_credit:
            return
        joined = "/".join(sorted(params))
        if sinks:
            yield self.finding(
                module,
                loop,
                f"loop in {func_name}() forwards {joined} only to "
                f"{', '.join(sorted(sinks))}(), which never checks a "
                f"deadline (transitively) — the deadline dies in a "
                f"sink and cannot interrupt the loop",
            )
        else:
            yield self.finding(
                module,
                loop,
                f"loop in deadline-taking function {func_name}() "
                f"never checks {joined}, and no callee in its body "
                f"transitively checkpoints — an expired budget cannot "
                f"interrupt it",
            )
