"""QHL010: registered telemetry must be fired from *reachable* code.

QHL004/QHL005 cross-check names against their registries, but both are
blind to a subtler drift: an emission site that exists in the tree yet
can never execute.  A metric emitted only from a function nothing calls
is dead telemetry — dashboards chart a flat line, chaos tests target a
fault point no production path fires, and the incident taxonomy
advertises kinds no incident will ever carry.  The call graph makes
the reachability question answerable, so this rule asks it:

* every declared **metric** must have at least one emission site inside
  code reachable from the public surface (module import time plus every
  public function);
* every declared **fault point** must be fired (``fire``/``fail``/the
  ``_fire_fault`` helpers) from reachable code — and fired at all;
* every declared **incident kind** must be recorded
  (``IncidentLog.new(kind=...)``) from reachable code — and at all.

Zero-emission *metrics* stay QHL004's finding (this rule would
duplicate it); for fault points and incident kinds the zero-emission
case is new coverage and is reported here.

The rule needs the whole program to say anything meaningful, so it
skips a registry whose file is outside the linted set.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint.context import Module
from repro.lint.dataflow import iter_scope
from repro.lint.findings import Finding
from repro.lint.rules.base import (
    Project,
    Rule,
    load_declared_names,
    register,
)
from repro.lint.rules import fault_points, metrics
from repro.lint.rules.fault_points import _point_literal
from repro.lint.rules.metrics import _call_metric_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import CallGraph

#: One emission site: (qname of the emitting scope, module, line).
_Emission = tuple[str, Module, int]


#: The module declaring the incident-kind registry, and its name.
INCIDENT_REGISTRY = "repro/supervise/incidents.py"
INCIDENT_TARGETS = ("INCIDENT_KINDS",)
#: Calls whose first (or ``kind=``) argument records an incident.
INCIDENT_METHODS = ("new", "_incident", "incident")

#: (label, registry module, registry names, report never-fired names).
#: Never-emitted metrics stay QHL004's finding.
_CATEGORIES: tuple[tuple[str, str, tuple[str, ...], bool], ...] = (
    ("metric", metrics.REGISTRY_MODULE, metrics.REGISTRY_TARGETS, False),
    ("fault point", fault_points.REGISTRY_MODULE,
     fault_points.REGISTRY_TARGETS, True),
    ("incident kind", INCIDENT_REGISTRY, INCIDENT_TARGETS, True),
)


def _incident_kind(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr not in INCIDENT_METHODS:
            return None
    elif isinstance(func, ast.Name):
        if func.id not in INCIDENT_METHODS:
            return None
    else:
        return None
    kind: ast.expr | None = node.args[0] if node.args else None
    for keyword in node.keywords:
        if keyword.arg == "kind":
            kind = keyword.value
    if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
        return kind.value
    return None


@register
class RegistryReachabilityRule(Rule):
    id = "QHL010"
    name = "registry-reachability"
    rationale = (
        "A metric, fault point, or incident kind whose only emission "
        "sites are unreachable is dead telemetry: dashboards, chaos "
        "tests, and the incident taxonomy all advertise behaviour the "
        "program can never exhibit."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        reachable = graph.reachable()
        emissions = self._collect_emissions(project, graph)
        for label, registry_rel, targets, report_zero in _CATEGORIES:
            registry_module = project.find_module(registry_rel)
            if registry_module is None:
                continue  # cannot claim whole-program coverage
            declared, rel = load_declared_names(
                project, registry_rel, targets
            )
            for name, lineno in sorted(declared.items()):
                sites = emissions.get((label, name), [])
                if not sites:
                    if report_zero:
                        yield Finding(
                            rule=self.id,
                            path=rel,
                            line=lineno,
                            col=0,
                            message=(
                                f"{label} {name!r} is registered but "
                                f"never fired anywhere in the linted "
                                f"code — dead taxonomy entry; remove "
                                f"it or wire up the emission"
                            ),
                            snippet=registry_module.line_text(lineno),
                        )
                    continue
                live = [s for s in sites if s[0] in reachable]
                if live:
                    continue
                example, module, line = sites[0]
                yield Finding(
                    rule=self.id,
                    path=rel,
                    line=lineno,
                    col=0,
                    message=(
                        f"{label} {name!r} is registered but every "
                        f"emission site is unreachable from the public "
                        f"surface (e.g. {example} at {module.rel}:"
                        f"{line}) — dead telemetry; delete the dead "
                        f"code path or the registry entry"
                    ),
                    snippet=registry_module.line_text(lineno),
                )

    # ------------------------------------------------------------------
    def _collect_emissions(
        self, project: Project, graph: "CallGraph"
    ) -> dict[tuple[str, str], list[_Emission]]:
        # Only the metric registry needs excluding from its own scan:
        # its declarations are bare literals a factory call could sit
        # next to.  Fault/incident emissions are call-shaped, so the
        # registry tuples can never read as emissions — and faults.py
        # legitimately hosts fire() wrappers of its own.

        out: dict[tuple[str, str], list[_Emission]] = {}

        def record(
            label: str, name: str, qname: str, module: Module, line: int
        ) -> None:
            out.setdefault((label, name), []).append(
                (qname, module, line)
            )

        for module in project.modules:
            for qname, scope_node in graph.scopes_of(module):
                for node in iter_scope(scope_node):
                    if not isinstance(node, ast.Call):
                        continue
                    if module.package_rel != metrics.REGISTRY_MODULE:
                        metric = _call_metric_name(node)
                        if metric is not None:
                            record(
                                "metric", metric, qname, module,
                                node.lineno,
                            )
                    point = _point_literal(node)
                    if point is not None:
                        record(
                            "fault point", point, qname, module,
                            node.lineno,
                        )
                    kind = _incident_kind(node)
                    if kind is not None:
                        record(
                            "incident kind", kind, qname, module,
                            node.lineno,
                        )
        return out
