"""QHL006: no raw ``==`` / ``!=`` on weight/cost values in skyline code.

QHL's exactness proof (paper §3) rides on skyline dominance and
canonical ordering; both reduce to weight/cost comparisons.  Metrics
may be floats, and an ad-hoc equality scattered through a dominance
loop is where an accumulated-rounding bug would silently drop an
optimal path.  The comparison *policy* is therefore centralised in the
sanctioned helpers of :mod:`repro.skyline.compare` — the only module
allowed to spell the comparison out — and this rule flags every other
equality whose operand is recognisably a weight/cost:

* a name or attribute containing ``weight`` or ``cost``
  (``last_cost``, ``best_weight``, ``entry.cost``, ...);
* the pervasive entry-pair projection ``(e[0], e[1])`` — a 2-tuple of
  constant subscripts 0 and 1 is how ``(weight, cost)`` is spelled in
  this codebase's hot loops.

Ordering comparisons (``<`` / ``<=`` / ...) stay legal: they are what
dominance *is*, and an epsilon there would break exactness outright.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import Module
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, register

#: Where the rule runs.
PACKAGES = ("repro/skyline/", "repro/core/")
#: The one module allowed to spell out the comparison.
SANCTIONED_MODULE = "repro/skyline/compare.py"
#: Name fragments that mark an operand as a weight or a cost.
MARKERS = ("weight", "cost")


def _is_weight_cost_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        lowered = node.id.lower()
        return any(marker in lowered for marker in MARKERS)
    if isinstance(node, ast.Attribute):
        lowered = node.attr.lower()
        return any(marker in lowered for marker in MARKERS)
    if isinstance(node, ast.Tuple) and len(node.elts) == 2:
        indices = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Subscript)
                and isinstance(element.slice, ast.Constant)
                and isinstance(element.slice.value, int)
            ):
                return False
            indices.append(element.slice.value)
        return indices == [0, 1]
    return False


@register
class FloatEqualityRule(Rule):
    id = "QHL006"
    name = "float-equality"
    rationale = (
        "Skyline dominance/canonicality must compare weights and "
        "costs through one policy (repro.skyline.compare); a raw == "
        "in a hot loop is where a float-drift exactness bug hides."
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.package_rel.startswith(PACKAGES):
            return
        if module.package_rel == SANCTIONED_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands, operands[1:]
            , strict=False):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_weight_cost_operand(left) or (
                    _is_weight_cost_operand(right)
                ):
                    yield self.finding(
                        module,
                        node,
                        "raw == / != on weight/cost values; route "
                        "through repro.skyline.compare "
                        "(weights_equal/costs_equal/pairs_equal)",
                    )
                    break
