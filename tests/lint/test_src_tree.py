"""The repository's own ``src`` tree passes the linter, and its process
spawn sites are pinned.

Two entrypoints run in forked workers: the batch chunk and the
supervisor's worker loop.  A new fork site fails here until it is added
to ``SPAWN_ENTRIES`` on purpose.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import run_lint

ROOT = pathlib.Path(__file__).resolve().parents[2]

SPAWN_ENTRIES = [
    "repro.perf.batch._worker_chunk",
    "repro.supervise.supervisor._worker_main",
]


@pytest.fixture(scope="module")
def src_result():
    return run_lint(["src"], root=str(ROOT))


def test_src_has_no_findings(src_result):
    assert src_result.errors == []
    assert [
        f"{f.location()} {f.rule} {f.message}" for f in src_result.findings
    ] == []


def test_spawn_sites_are_pinned(src_result):
    assert src_result.project is not None
    sites = src_result.project.graph().to_dict()["spawn_sites"]
    assert sorted(site["entry"] for site in sites) == SPAWN_ENTRIES
