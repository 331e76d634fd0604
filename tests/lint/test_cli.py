"""CLI contract tests: exit codes, JSON report, rule listing and the
call-graph export."""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main


@pytest.fixture(autouse=True)
def _registries(harness):
    # A full CLI run executes QHL004/QHL005, which insist their name
    # registries exist.  Park minimal ones outside src/ so the disk
    # fallback finds them without them entering the scanned module set.
    harness.write(
        "repro/observability/names.py",
        'METRICS = {"qhl_test_total": ("counter", (), "fixture")}\n',
    )
    harness.write(
        "repro/service/faults.py",
        'INJECTION_POINTS = ("index-load",)\n',
    )


_CLEAN = """
def helper(items):
    return sorted(items)
"""

_DIRTY = """
import random

rng = random.Random()
"""


def _lint(harness, *extra: str) -> int:
    return main(["src", "--root", str(harness.root), *extra])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, harness, capsys):
        harness.write("src/repro/core/sample.py", _CLEAN)
        assert _lint(harness) == 0
        out = capsys.readouterr().out
        assert "checked 1 files, 0 finding(s)" in out

    def test_findings_exit_one(self, harness, capsys):
        harness.write("src/repro/core/sample.py", _DIRTY)
        assert _lint(harness) == 1
        out = capsys.readouterr().out
        assert "QHL003" in out
        assert "1 finding(s)" in out

    def test_syntax_error_exits_two(self, harness, capsys):
        harness.write("src/repro/core/sample.py", "def broken(:\n")
        assert _lint(harness) == 2
        out = capsys.readouterr().out
        assert "error" in out.lower()

    def test_unknown_rule_exits_two(self, harness, capsys):
        harness.write("src/repro/core/sample.py", _CLEAN)
        assert _lint(harness, "--select", "QHL099") == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err

    def test_missing_path_exits_two(self, harness, capsys):
        assert main(["no/such/dir", "--root", str(harness.root)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_select_scopes_the_run(self, harness, capsys):
        harness.write("src/repro/core/sample.py", _DIRTY)
        assert _lint(harness, "--select", "QHL001") == 0
        capsys.readouterr()


class TestJsonReport:
    def test_payload_shape(self, harness, capsys):
        harness.write("src/repro/core/sample.py", _DIRTY)
        assert _lint(harness, "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["errors"] == []
        (finding,) = payload["findings"]
        assert finding["rule"] == "QHL003"
        assert finding["path"] == "src/repro/core/sample.py"
        assert finding["line"] == 4

    def test_inline_suppressions_reported(self, harness, capsys):
        harness.write(
            "src/repro/core/sample.py",
            """
            import random

            rng = random.Random()  # lint: allow=QHL003 fixture jitter
            """,
        )
        assert _lint(harness, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        (suppressed,) = payload["inline_suppressed"]
        assert suppressed["rule"] == "QHL003"


class TestListRules:
    def test_catalog_lists_all_six(self, harness, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "QHL001",
            "QHL002",
            "QHL003",
            "QHL004",
            "QHL005",
            "QHL006",
        ):
            assert rule_id in out


@pytest.mark.parametrize("flag", ["--json", None])
def test_main_cli_exposes_lint_subcommand(harness, capsys, flag):
    from repro.cli import main as repro_main

    harness.write("src/repro/core/sample.py", _CLEAN)
    argv = ["lint", "src", "--root", str(harness.root)]
    if flag:
        argv.append(flag)
    assert repro_main(argv) == 0
    capsys.readouterr()


class TestGraphOut:
    def test_graph_export_writes_json(self, harness, capsys, tmp_path):
        harness.write(
            "src/repro/core/sample.py",
            """
def public():
    return _private()

def _private():
    return 1
""",
        )
        out = tmp_path / "graph.json"
        assert _lint(harness, "--graph-out", str(out)) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["version"] == 1
        qnames = {f["qname"] for f in data["functions"]}
        assert "repro.core.sample.public" in qnames
        assert ["repro.core.sample.public", "repro.core.sample._private"] in (
            data["edges"]
        )

    def test_graph_export_does_not_change_exit_code(
        self, harness, capsys, tmp_path
    ):
        harness.write("src/repro/core/sample.py", _DIRTY)
        out = tmp_path / "graph.json"
        assert _lint(harness, "--graph-out", str(out)) == 1
        capsys.readouterr()
        assert out.exists()
