"""QHL005: fault-injection point names must be registered.

The chaos harness (:mod:`repro.service.faults`) validates point names
on :meth:`FaultInjector.fail` at *runtime* — a test scheduling a fault
at a misspelled point fails loudly.  But :meth:`fire` call sites in
production code are never validated: a typo'd ``fire("lable-fetch")``
silently fires a point no chaos test can ever target, and the
fault-injection coverage quietly shrinks.  This rule closes that gap
statically: every literal point name passed to ``fire(...)`` /
``fail(...)`` / the ``_fire_fault(...)`` helpers must appear in the
declared ``INJECTION_POINTS`` tuple.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import Module
from repro.lint.findings import Finding
from repro.lint.rules.base import (
    Project,
    Rule,
    load_declared_names,
    register,
)


#: The module declaring the fault-point registry, and its name.
REGISTRY_MODULE = "repro/service/faults.py"
REGISTRY_TARGETS = ("INJECTION_POINTS",)
#: Injector methods and module helpers whose first argument is a point.
METHODS = ("fire", "fail")
HELPERS = ("_fire_fault",)


def _point_literal(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr not in METHODS:
            return None
    elif isinstance(func, ast.Name):
        if func.id not in HELPERS:
            return None
    else:
        return None
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
        node.args[0].value, str
    ):
        return node.args[0].value
    return None


@register
class FaultPointRegistryRule(Rule):
    id = "QHL005"
    name = "fault-point-registry"
    rationale = (
        "fire() sites are not validated at runtime; a typo'd point "
        "name silently removes that site from chaos-test coverage."
    )

    def __init__(self) -> None:
        self._calls: list[tuple[Module, ast.Call, str]] = []

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                point = _point_literal(node)
                if point is not None:
                    self._calls.append((module, node, point))
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        declared, registry_rel = load_declared_names(
            project, REGISTRY_MODULE, REGISTRY_TARGETS
        )
        for module, node, point in self._calls:
            if point not in declared:
                yield self.finding(
                    module,
                    node,
                    f"fault point {point!r} is not registered in "
                    f"{registry_rel} INJECTION_POINTS; chaos tests "
                    f"cannot target it",
                )
