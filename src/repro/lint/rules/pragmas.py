"""QHL000: inline suppressions must still suppress something.

Pragmas rot in the opposite direction from findings: the code under a
``# lint: allow=QHL001 reason`` gets refactored, the violation
disappears — and the pragma stays, silently pre-authorising the *next*
violation anyone writes on that line.  After this PR's interprocedural
upgrades, several pragmas written for the old, dumber rules may no
longer suppress anything; this rule makes that drift a finding instead
of an archaeology project.

A pragma is **stale** when the rule it names ran in this invocation and
produced no finding on the pragma's line.  Pragmas naming a rule that
did not run (``--select`` of a subset) are left alone — absence of a
finding proves nothing there.  A pragma naming a rule id that does not
exist at all is always reported: it suppresses nothing under any
configuration.

The detection lives in the runner (which owns suppression matching);
this class exists so QHL000 appears in ``--list-rules``, is valid in
``--select``/``--ignore``, and documents the contract.  A stale-pragma
finding can itself be suppressed with ``# lint: allow=QHL000 reason`` —
the escape hatch for pragmas kept deliberately (documentation
fixtures, in-progress refactors).
"""

from __future__ import annotations

from repro.lint.rules.base import Rule, register


@register
class StalePragmaRule(Rule):
    id = "QHL000"
    name = "stale-pragma"
    rationale = (
        "A pragma that no longer suppresses a live finding "
        "pre-authorises the next violation written on its line; "
        "suppressions must be re-justified when the code they excuse "
        "goes away."
    )
