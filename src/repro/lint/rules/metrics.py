"""QHL004: metric names in code and the declared registry must agree.

PRs 1-4 accumulated ~44 metric names declared implicitly at their
instrumentation sites; ``docs/observability.md`` drifted behind twice
(the ``build_*`` checkpoint metrics and ``qhl_workload_phase_seconds``
were never documented anywhere).  The registry
:mod:`repro.observability.names` is now the single source of truth and
this rule cross-checks it against the code **both ways**:

* every string literal passed to a ``counter()`` / ``gauge()`` /
  ``histogram()`` factory (or a ``Counter``/``Gauge``/``Histogram``
  constructor) must be a declared name — an unregistered emission is a
  typo or an undeclared metric;
* every declared name must be emitted somewhere in the linted code —
  a dead registry entry is docs/code drift in the other direction.

Names built dynamically (f-strings, variables) cannot be checked at the
call site; the common repo idiom — a tuple of literal names fed through
a loop variable — is still credited as usage, because any full-string
literal matching a metric prefix counts as an emission.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.lint.context import Module
from repro.lint.findings import Finding
from repro.lint.rules.base import (
    Project,
    Rule,
    load_declared_names,
    register,
)

_FACTORY_METHODS = ("counter", "gauge", "histogram")
_FACTORY_CLASSES = ("Counter", "Gauge", "Histogram")

#: The module declaring the metric registry, and its names.
REGISTRY_MODULE = "repro/observability/names.py"
REGISTRY_TARGETS = ("METRICS", "METRIC_NAMES")
#: Full-string literals with these prefixes count as emissions even
#: outside factory calls (the tuple-of-names idiom).
PREFIXES = ("qhl_", "service_", "ingest_", "audit_", "build_", "supervisor_")
_LITERAL = re.compile(
    rf"^({'|'.join(re.escape(p.rstrip('_')) for p in PREFIXES)})_[a-z0-9_]+$"
)


def _call_metric_name(node: ast.Call) -> str | None:
    """The literal metric name of a factory/constructor call, if any."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr not in _FACTORY_METHODS:
            return None
    elif isinstance(func, ast.Name):
        if func.id not in _FACTORY_CLASSES:
            return None
    else:
        return None
    name_arg: ast.expr | None = node.args[0] if node.args else None
    if name_arg is None:
        for keyword in node.keywords:
            if keyword.arg == "name":
                name_arg = keyword.value
    if isinstance(name_arg, ast.Constant) and isinstance(
        name_arg.value, str
    ):
        return name_arg.value
    return None


@register
class MetricNameRegistryRule(Rule):
    id = "QHL004"
    name = "metric-name-registry"
    rationale = (
        "Undeclared metric emissions and dead registry entries are the "
        "two directions of docs/code drift; the declared registry in "
        "repro.observability.names is the single source of truth."
    )

    def __init__(self) -> None:
        self._used: set[str] = set()
        self._calls: list[tuple[Module, ast.Call, str]] = []

    def check_module(self, module: Module) -> Iterable[Finding]:
        if module.package_rel == REGISTRY_MODULE:
            return ()  # the registry's own keys are not emissions
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _call_metric_name(node)
                if name is not None:
                    self._used.add(name)
                    self._calls.append((module, node, name))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _LITERAL.match(node.value)
            ):
                self._used.add(node.value)
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        declared, registry_rel = load_declared_names(
            project, REGISTRY_MODULE, REGISTRY_TARGETS
        )
        for module, node, name in self._calls:
            if name not in declared:
                yield self.finding(
                    module,
                    node,
                    f"metric {name!r} is not declared in "
                    f"{registry_rel}; declare it (or fix the typo)",
                )
        registry_module = project.find_module(registry_rel)
        if registry_module is None:
            # The registry file is outside the linted paths, so the
            # scan cannot claim completeness: skip the unused-entry
            # direction (linting one module must not flag every metric
            # that module happens not to emit).
            return
        for name, lineno in sorted(declared.items()):
            if name not in self._used:
                yield self.finding(
                    registry_module,
                    lineno,
                    f"metric {name!r} is declared but never emitted by "
                    f"the linted code; remove it or instrument the "
                    f"emission",
                )
