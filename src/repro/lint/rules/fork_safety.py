"""QHL007: no live handles captured across ``fork``.

The process model forks workers (the ``SupervisedPool`` /
``Supervisor`` fan-outs of batches and label builds; the rule also
recognises ``ProcessPoolExecutor``, ``multiprocessing.Pool`` and
``multiprocessing.Process`` spawns) and relies on
a convention the old per-module linter could not see: a forked child
inherits the parent's open file descriptors, lock states, and mmap
handles *by value of the underlying kernel object*, so an entrypoint
that quietly uses a module-level ``open(...)`` handle shares a file
offset with the parent (interleaved torn writes), a captured
``threading.Lock`` can be inherited mid-acquisition (instant deadlock —
fork only clones the acquiring thread), and captured
``Deadline``/``FaultInjector`` state makes a child judge time and
faults by a clock the parent armed.

This rule walks the call graph from every *fork entrypoint* (any
function handed to a spawn API, including ``functools.partial`` and
``"pkg.mod:func"`` string spellings) and flags, in every function
reachable from one:

* reads of module-level names bound to ``open(...)``, ``threading``
  synchronisation primitives, ``mmap.mmap(...)``, ``Deadline(...)`` or
  ``FaultInjector(...)`` — unless the function (or the child side in
  general) re-binds the name before use;
* the same capture through an enclosing function's locals (closures);
* resource-valued parameter defaults (evaluated once, in the parent).

The sanctioned patterns stay quiet: passing *paths* and re-opening in
the child, the ``_WORKER_ENGINE`` module-global handoff (an object
reference, not a kernel handle), and the read-only mmap columns that
are re-derived via ``load_flat_index`` inside the child.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint.dataflow import call_name, iter_scope, scope_bindings
from repro.lint.findings import Finding
from repro.lint.rules.base import Project, Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import CallGraph, FunctionInfo

_LOCK_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier",
})


def classify_resource(
    resolver: object, expr: ast.expr | None
) -> str | None:
    """What fork-unsafe resource an expression constructs, if any.

    ``resolver`` is the call graph's per-module resolver (duck-typed:
    only ``resolve_dotted`` is used).
    """
    if not isinstance(expr, ast.Call):
        return None
    name = call_name(expr.func)
    if name is None:
        return None
    resolved: str = resolver.resolve_dotted(name)  # type: ignore[attr-defined]
    base = resolved.rpartition(".")[2]
    head = resolved.split(".")[0]
    if resolved in ("open", "io.open", "os.fdopen", "gzip.open"):
        return "open file handle"
    if base in _LOCK_CTORS and (
        head in ("threading", "multiprocessing") or resolved == base
    ):
        return "threading synchronisation primitive"
    if resolved in ("mmap.mmap",) or (base == "mmap" and head == "mmap"):
        return "mmap handle"
    if base == "Deadline":
        return "live Deadline"
    if base == "FaultInjector":
        return "live FaultInjector"
    return None


@register
class ForkSafetyRule(Rule):
    id = "QHL007"
    name = "fork-safety"
    rationale = (
        "A forked worker inherits parent file offsets, lock states, "
        "and armed Deadline/FaultInjector clocks; an entrypoint using "
        "a captured handle corrupts shared state instead of re-opening "
        "its own."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        entries = graph.fork_entries()
        if not entries:
            return
        # Which entrypoints reach each function (for the message).
        origins: dict[str, set[str]] = {}
        for entry in sorted(entries):
            for qname in graph.reachable_from({entry}):
                origins.setdefault(qname, set()).add(
                    entry.rpartition(".")[2]
                )

        for qname in sorted(origins):
            info = graph.functions.get(qname)
            if info is None:
                continue
            via = "/".join(sorted(origins[qname]))
            yield from self._check_function(graph, info, via)

    # ------------------------------------------------------------------
    def _check_function(
        self, graph: "CallGraph", info: "FunctionInfo", via: str
    ) -> Iterable[Finding]:
        module = info.module
        resolver = graph.resolver_for(module)

        captured: dict[str, tuple[str, str]] = {}  # name -> (kind, where)
        for name, bindings in scope_bindings(module.tree).items():
            for binding in bindings:
                kind = classify_resource(resolver, binding.value)
                if kind is not None:
                    captured.setdefault(name, (kind, "module scope"))
        # Closure captures: resource locals of every enclosing function.
        outer = info.qname
        while ".<locals>." in outer:
            outer = outer.rsplit(".<locals>.", 1)[0]
            parent = graph.functions.get(outer)
            if parent is None:
                continue
            for name, bindings in scope_bindings(parent.node).items():
                for binding in bindings:
                    kind = classify_resource(resolver, binding.value)
                    if kind is not None:
                        captured.setdefault(
                            name, (kind, f"enclosing {parent.name}()")
                        )

        local = scope_bindings(info.node)
        rebound = {
            name
            for name, bindings in local.items()
            if any(not b.is_param or b.is_default for b in bindings)
        }

        # Parameter defaults are evaluated once, in the parent.
        for name, bindings in local.items():
            for binding in bindings:
                if not binding.is_default:
                    continue
                kind = classify_resource(resolver, binding.value)
                if kind is not None:
                    yield self.finding(
                        module,
                        binding.lineno,
                        f"{info.name}() is reachable from fork "
                        f"entrypoint {via} but binds a {kind} as the "
                        f"default of parameter {name!r} — defaults are "
                        f"evaluated once in the parent and shared "
                        f"across every forked child",
                    )

        reported: set[str] = set()
        for node in iter_scope(info.node):
            if not (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            name = node.id
            if name in reported or name not in captured:
                continue
            if name in rebound:
                continue  # re-opened inside the child
            kind, where = captured[name]
            reported.add(name)
            yield self.finding(
                module,
                node,
                f"{info.name}() is reachable from fork entrypoint "
                f"{via} but uses {name!r}, a {kind} captured from "
                f"{where} — a forked child shares the parent's kernel "
                f"object; re-open it inside the child (or pass a path)",
            )
