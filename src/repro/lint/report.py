"""Reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json

from repro.lint.findings import LintResult


def render_text(result: LintResult) -> str:
    """The default terminal report: one block per finding + a summary."""
    lines: list[str] = []
    for error in result.errors:
        lines.append(f"{error.path}: error: {error.message}")
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(_summary(result))
    return "\n".join(lines)


def _summary(result: LintResult) -> str:
    parts = [
        f"checked {result.files_checked} files",
        f"{len(result.findings)} finding(s)",
    ]
    if result.inline_suppressed:
        parts.append(f"{len(result.inline_suppressed)} inline-suppressed")
    if result.errors:
        parts.append(f"{len(result.errors)} file error(s)")
    return ", ".join(parts)


def render_json(result: LintResult) -> str:
    """Stable JSON for CI annotation tooling."""
    payload = {
        "version": 2,
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.findings],
        "inline_suppressed": [
            f.to_dict() for f in result.inline_suppressed
        ],
        "errors": [
            {"path": e.path, "message": e.message} for e in result.errors
        ],
    }
    return json.dumps(payload, indent=2)
