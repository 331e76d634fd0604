"""QHL003: pure algorithm packages stay deterministic.

The reproduction's differential and golden tests (PR 3) rely on the
algorithm packages being bit-reproducible under a seed: every RNG is a
``random.Random(seed)`` instance threaded explicitly, and nothing reads
the wall clock into algorithmic state.  This rule bans, inside the
configured pure packages:

* ``time.time()`` / ``time.time_ns()`` — wall-clock reads (the
  monotonic timing clocks ``perf_counter`` / ``monotonic`` stay legal:
  they feed stats, not algorithm state);
* module-level ``random.<anything>(...)`` — the shared global RNG
  (``random.random()``, ``random.randint()``, ``random.seed()``, ...);
* ``random.Random()`` with no seed argument — an unseeded instance.

``random.Random(seed)`` is the sanctioned pattern.  Intentional
nondeterminism (e.g. retry-backoff jitter) needs an inline
``# lint: allow=QHL003 <why>`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import Module
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, register

#: The pure algorithm packages the rule runs on.
PACKAGES = (
    "repro/core/",
    "repro/skyline/",
    "repro/labeling/",
    "repro/hierarchy/",
    "repro/storage/",
    "repro/dynamic/",
)
#: ``time.<attr>()`` reads of the wall clock.
WALLCLOCK_ATTRS = ("time", "time_ns")


@register
class DeterminismRule(Rule):
    id = "QHL003"
    name = "determinism"
    rationale = (
        "Differential/golden exactness tests require the algorithm "
        "packages to be bit-reproducible under a seed; a stray global "
        "RNG call or wall-clock read breaks replay silently."
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.package_rel.startswith(PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
            ):
                continue
            owner, attr = func.value.id, func.attr
            if owner == "time" and attr in WALLCLOCK_ATTRS:
                yield self.finding(
                    module,
                    node,
                    f"time.{attr}() reads the wall clock in a pure "
                    f"algorithm package; use time.perf_counter()/"
                    f"time.monotonic() for timing stats",
                )
            elif owner == "random" and attr == "Random" and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    module,
                    node,
                    "unseeded random.Random() in a pure algorithm "
                    "package; thread an explicit seed "
                    "(random.Random(seed))",
                )
            elif owner == "random" and attr != "Random":
                yield self.finding(
                    module,
                    node,
                    f"random.{attr}() uses the global RNG in a pure "
                    f"algorithm package; thread a random.Random(seed) "
                    f"instance instead",
                )
