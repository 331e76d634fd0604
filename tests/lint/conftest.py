"""Shared helpers for the linter's own tests.

Each test builds a throwaway project tree under ``tmp_path`` (so the
package-prefix logic sees realistic ``src/repro/...`` paths) and runs
the real pipeline through :func:`repro.lint.run_lint`.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import run_lint


class LintHarness:
    """A temp project the linter can be pointed at."""

    def __init__(self, root):
        self.root = root

    def write(self, rel: str, source: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")

    def run(self, *rules: str, paths: list[str] | None = None):
        return run_lint(
            paths or ["src"],
            root=str(self.root),
            select=frozenset(rules) if rules else None,
        )

    def findings(self, *rules: str, paths: list[str] | None = None):
        return self.run(*rules, paths=paths).findings


@pytest.fixture
def harness(tmp_path) -> LintHarness:
    return LintHarness(tmp_path)
