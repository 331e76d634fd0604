"""Findings: what a lint rule reports, and the outcome of one run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.lint.rules.base import Project


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class LintError:
    """A file the linter could not process (syntax error, bad encoding)."""

    path: str
    message: str


@dataclass
class LintResult:
    """Outcome of one lint run, split by suppression status."""

    findings: list[Finding] = field(default_factory=list)
    inline_suppressed: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    files_checked: int = 0
    #: The analysed project, for callers that want the call graph
    #: (``--graph-out``) after the run.
    project: "Project | None" = None

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def exit_code(self) -> int:
        """CI exit code: 0 clean, 1 findings, 2 unprocessable input."""
        if self.errors:
            return 2
        if self.findings:
            return 1
        return 0
