"""The ``repro-qhl lint`` subcommand (also ``python -m repro.lint``).

Lints the given paths (default ``src``) with every registered rule, or
with the ``--select`` subset, and prints a text report (``--json`` for
the machine-readable one).  ``--list-rules`` prints the catalog and
``--graph-out FILE`` exports the call graph the rules reasoned over.
Deliberate exceptions carry inline ``# lint: allow=QHL00X <why>``
pragmas; a pragma that no longer suppresses anything is a QHL000
finding.

Exit codes (CI contract):

* ``0`` — clean (inline-suppressed findings do not fail);
* ``1`` — findings present;
* ``2`` — the linter itself could not run: unreadable paths, syntax
  errors in linted files, unknown rule ids, unreadable registries.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.exceptions import LintConfigError, ReproError
from repro.lint.report import render_json, render_text
from repro.lint.runner import run_lint
from repro.lint.rules import all_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to ``parser`` (shared with the main CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root for relative paths and registry lookups "
        "(default: current directory)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--graph-out",
        metavar="FILE",
        default=None,
        help="export the whole-program call graph (modules, functions, "
        "call/reference edges, spawn sites, reachability) as JSON",
    )


def _rule_set(value: str | None) -> frozenset[str] | None:
    if value is None:
        return None
    rules = frozenset(part.strip() for part in value.split(",") if part.strip())
    known = set(all_rules())
    unknown = rules - known
    if unknown:
        raise LintConfigError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return rules


def _list_rules() -> str:
    lines = []
    for rule_id, rule_cls in all_rules().items():
        lines.append(f"{rule_id}  {rule_cls.name}")
        lines.append(f"    {rule_cls.rationale}")
    return "\n".join(lines)


def cmd_lint(args: argparse.Namespace) -> int:
    """The subcommand body; returns the process exit code."""
    if args.list_rules:
        print(_list_rules())
        return 0
    root = os.path.abspath(args.root or os.getcwd())
    result = run_lint(args.paths, root=root, select=_rule_set(args.select))

    if args.graph_out is not None and result.project is not None:
        graph_path = os.path.join(root, args.graph_out)
        with open(graph_path, "w", encoding="utf-8") as handle:
            handle.write(result.project.graph().to_json())
            handle.write("\n")
        print(f"wrote call graph -> {graph_path}", file=sys.stderr)

    print(render_json(result) if args.json else render_text(result))
    return result.exit_code()


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-qhl lint",
        description="AST invariant linter for the QHL codebase",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
