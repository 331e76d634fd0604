"""CLI coverage for the performance flags (cache / batch / workers)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small network, index, and query file shared by these tests."""
    root = tmp_path_factory.mktemp("cli_perf")
    net = str(root / "ny.csp")
    queries = str(root / "ny.queries")
    assert main([
        "generate", "--dataset", "NY", "--scale", "small", "--out", net
    ]) == 0
    assert main([
        "workload", "--network", net, "--out", queries, "--size", "5",
    ]) == 0
    return net, queries


class TestBenchCacheSize:
    def test_cached_engine_rides_along(self, workspace, capsys):
        net, queries = workspace
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100", "--cache-size", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "QHL+cache" in out
        assert "QHL" in out and "CSP-2Hop" in out
        assert "cache:" in out
        assert "hit rate" in out

    def test_no_cache_line_without_flag(self, workspace, capsys):
        net, queries = workspace
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "QHL+cache" not in out
        assert "cache:" not in out


class TestBenchBatch:
    def test_batch_mode_runs_all_sets(self, workspace, capsys):
        net, queries = workspace
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100", "--batch", "--cache-size", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "Q5" in out
        assert "QHL+cache" in out

    def test_batch_with_workers(self, workspace, capsys):
        from repro.supervise import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        net, queries = workspace
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100", "--batch", "--workers", "2",
        ]) == 0
        assert "Q1" in capsys.readouterr().out
