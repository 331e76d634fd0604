"""The lint driver: collect files, run rules, apply suppressions."""

from __future__ import annotations

import os

from repro.exceptions import LintConfigError
from repro.lint.context import Module
from repro.lint.findings import Finding, LintError, LintResult
from repro.lint.rules import Project, Rule, all_rules


def collect_files(paths: list[str], root: str) -> list[str]:
    """Python files under ``paths`` (absolute), sorted for determinism."""
    files: set[str] = set()
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            files.add(os.path.abspath(absolute))
        elif os.path.isdir(absolute):
            for dirpath, dirnames, filenames in os.walk(absolute):
                dirnames[:] = [
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith(".")
                ]
                for filename in filenames:
                    if filename.endswith(".py"):
                        files.add(
                            os.path.abspath(os.path.join(dirpath, filename))
                        )
        else:
            raise LintConfigError(f"no such file or directory: {path!r}")
    return sorted(files)


def _relative(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # pragma: no cover - different drive on Windows
        rel = path
    return rel.replace(os.sep, "/")


def _stale_pragma_findings(
    project: Project,
    rules: list[Rule],
    inline_suppressed: list[Finding],
) -> list[Finding]:
    """QHL000: pragmas that suppressed nothing this run.

    Only rules that actually *ran* can prove a pragma stale — a
    ``--select`` subset proves nothing about the others.  Pragmas
    naming a rule id that is not registered at all are always stale:
    they can never suppress anything.
    """
    executed = {rule.id for rule in rules}
    known = set(all_rules())
    used = {(f.path, f.line, f.rule) for f in inline_suppressed}
    findings: list[Finding] = []
    for module in project.modules:
        for line in sorted(module.suppressions):
            for rule_id in sorted(module.suppressions[line]):
                if rule_id == "QHL000":
                    continue
                if rule_id not in known:
                    message = (
                        f"pragma allows unknown rule {rule_id!r} — it "
                        f"can never suppress anything; fix the id or "
                        f"delete the pragma"
                    )
                elif rule_id in executed and (
                    (module.rel, line, rule_id) not in used
                ):
                    message = (
                        f"stale pragma: {rule_id} no longer fires on "
                        f"this line — the suppression pre-authorises "
                        f"the next violation; delete it (or re-justify "
                        f"with an allow=QHL000 pragma)"
                    )
                else:
                    continue
                findings.append(Finding(
                    rule="QHL000",
                    path=module.rel,
                    line=line,
                    col=0,
                    message=message,
                    snippet=module.line_text(line),
                ))
    return findings


def run_lint(
    paths: list[str],
    root: str | None = None,
    select: frozenset[str] | None = None,
) -> LintResult:
    """Lint ``paths`` and return the partitioned result.

    ``select`` names the rules to run (``None`` = all registered ones).
    Pipeline: parse every file -> per-module rule passes -> project
    passes (registry cross-checks, call-graph rules) -> inline-pragma
    suppression -> stale-pragma findings.
    """
    root = os.path.abspath(root or os.getcwd())
    result = LintResult()

    def enabled(rule_id: str) -> bool:
        return select is None or rule_id in select

    project = Project(root=root)
    result.project = project
    for path in collect_files(paths, root):
        rel = _relative(path, root)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            project.modules.append(Module.parse(path, rel, source))
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(LintError(path=rel, message=str(exc)))
    result.files_checked = len(project.modules)

    rules = [
        rule_cls()
        for rule_id, rule_cls in all_rules().items()
        if enabled(rule_id)
    ]

    raw: list[Finding] = []
    for module in project.modules:
        for rule in rules:
            raw.extend(rule.check_module(module))
    for rule in rules:
        raw.extend(rule.finish(project))

    modules_by_rel = {module.rel: module for module in project.modules}

    def triage(finding: Finding) -> None:
        module = modules_by_rel.get(finding.path)
        if module is not None and module.suppressed(
            finding.line, finding.rule
        ):
            result.inline_suppressed.append(finding)
        else:
            result.findings.append(finding)

    for finding in raw:
        triage(finding)
    if enabled("QHL000"):
        for finding in _stale_pragma_findings(
            project, rules, result.inline_suppressed
        ):
            triage(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
