"""The rule registry: importing this package registers every rule."""

from repro.lint.rules.base import Project, Rule, all_rules, register
from repro.lint.rules import (  # noqa: F401  (import = registration)
    deadline,
    determinism,
    durability,
    exceptions,
    fault_points,
    floats,
    fork_safety,
    immutability,
    metrics,
    pragmas,
    reachability,
)

__all__ = [
    "Project",
    "Rule",
    "all_rules",
    "register",
]
