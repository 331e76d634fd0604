"""``repro.lint``: whole-program invariant linter for the QHL codebase.

The paper's exactness and the serving guarantees rest on conventions no
generic linter knows and, as seeded violations showed, no test catches;
this package machine-checks them:

======  ======================  ==========================================
 id      name                    invariant
======  ======================  ==========================================
QHL000  stale-pragma            every ``# lint: allow=`` pragma still
                                suppresses a live finding
QHL001  deadline-checkpoint     loops in deadline-taking functions check
                                the deadline, or verifiably delegate
QHL002  exception-taxonomy      library raises stay inside ReproError (or
                                builtin argument errors); no silent
                                catch-alls
QHL003  determinism             pure algorithm packages: no wall clock,
                                no global/unseeded RNG
QHL004  metric-name-registry    emitted metric names == declared registry
                                (repro.observability.names), both ways
QHL005  fault-point-registry    fired fault points are registered
                                INJECTION_POINTS
QHL006  float-equality          weight/cost equality only through
                                repro.skyline.compare
QHL007  fork-safety             code reachable from a worker entrypoint
                                captures no parent handle, lock or clock
QHL008  durability-discipline   durable writes are atomic; acknowledged
                                appends are flushed and fsynced
QHL009  epoch-immutability      published epochs and mmap views are never
                                mutated, even through helpers
QHL010  registry-reachability   registered metrics, fault points and
                                incident kinds fire from reachable code
======  ======================  ==========================================

Run it with ``repro-qhl lint src`` (see ``docs/static-analysis.md`` for
the rule catalog, the suppression pragma, and the evidence each rule
stands on).
"""

from repro.lint.context import Module
from repro.lint.findings import Finding, LintError, LintResult
from repro.lint.report import render_json, render_text
from repro.lint.runner import collect_files, run_lint
from repro.lint.rules import Project, Rule, all_rules, register

__all__ = [
    "Finding",
    "LintError",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "all_rules",
    "collect_files",
    "register",
    "render_json",
    "render_text",
    "run_lint",
]
