"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated network + built index shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    net = str(root / "ny.csp")
    idx = str(root / "ny.idx")
    assert main([
        "generate", "--dataset", "NY", "--scale", "small", "--out", net
    ]) == 0
    assert main([
        "build", "--network", net, "--out", idx, "--index-queries", "200"
    ]) == 0
    return net, idx


class TestGenerate:
    def test_writes_readable_network(self, workspace):
        from repro.graph import read_csp_text

        net, _idx = workspace
        g = read_csp_text(net)
        assert g.num_vertices == 144

    def test_all_datasets(self, tmp_path):
        for name in ("NY", "BAY", "COL"):
            out = str(tmp_path / f"{name}.csp")
            assert main([
                "generate", "--dataset", name, "--scale", "small",
                "--out", out,
            ]) == 0

    def test_unknown_dataset_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "generate", "--dataset", "MARS",
                "--out", str(tmp_path / "m.csp"),
            ])


class TestQuery:
    def test_feasible_query(self, workspace, capsys):
        _net, idx = workspace
        code = main([
            "query", "--index", idx, "--source", "0", "--target", "140",
            "--budget", "500",
        ])
        assert code == 0
        assert "optimal weight" in capsys.readouterr().out

    def test_path_flag_prints_route(self, workspace, capsys):
        _net, idx = workspace
        main([
            "query", "--index", idx, "--source", "0", "--target", "140",
            "--budget", "500", "--path",
        ])
        out = capsys.readouterr().out
        assert "->" in out

    def test_infeasible_query_exit_code(self, workspace):
        _net, idx = workspace
        code = main([
            "query", "--index", idx, "--source", "0", "--target", "140",
            "--budget", "1",
        ])
        assert code == 1

    def test_bad_vertex_reports_error(self, workspace, capsys):
        _net, idx = workspace
        code = main([
            "query", "--index", idx, "--source", "0", "--target", "9999",
            "--budget", "10",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_prints_index_statistics(self, workspace, capsys):
        _net, idx = workspace
        assert main(["stats", "--index", idx]) == 0
        out = capsys.readouterr().out
        assert "treewidth" in out
        assert "label size" in out
        assert "pruning conds" in out

    def test_missing_index_reports_error(self, tmp_path):
        code = main(["stats", "--index", str(tmp_path / "nope.idx")])
        assert code == 2


class TestWorkloadAndBench:
    def test_workload_generation(self, workspace, tmp_path, capsys):
        net, _idx = workspace
        out = str(tmp_path / "ny.queries")
        assert main([
            "workload", "--network", net, "--out", out, "--size", "10",
        ]) == 0
        from repro.workloads import read_query_sets

        sets = read_query_sets(out)
        assert sorted(sets) == ["Q1", "Q2", "Q3", "Q4", "Q5"]
        assert all(len(s) == 10 for s in sets.values())

    def test_bench_runs_and_prints_rows(self, workspace, tmp_path, capsys):
        net, _idx = workspace
        queries = str(tmp_path / "ny.queries")
        main(["workload", "--network", net, "--out", queries,
              "--size", "5"])
        capsys.readouterr()
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "QHL" in out
        assert "CSP-2Hop" in out
        assert "Q5" in out


class TestObservabilityFlags:
    def test_query_trace_prints_qhl_phases(self, workspace, capsys):
        _net, idx = workspace
        code = main([
            "query", "--index", idx, "--source", "0", "--target", "140",
            "--budget", "500", "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "qhl.query" in out
        for phase in ("lca", "separator-init", "pruning", "concatenation"):
            assert phase in out
        # The legend ties phases back to the paper.
        assert "Algorithm 3" in out

    def test_build_metrics_out(self, workspace, tmp_path, capsys):
        from repro.observability.export import parse_jsonl

        net, _idx = workspace
        idx2 = str(tmp_path / "obs.idx")
        metrics = tmp_path / "build.jsonl"
        assert main([
            "build", "--network", net, "--out", idx2,
            "--index-queries", "50", "--metrics-out", str(metrics),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        records = parse_jsonl(metrics.read_text())
        names = {r["name"] for r in records}
        assert "qhl_index_treewidth" in names
        assert "qhl_index_build_seconds" in names

    def test_workload_metrics_out(self, workspace, tmp_path):
        from repro.observability.export import parse_jsonl

        net, _idx = workspace
        out = str(tmp_path / "obs.queries")
        metrics = tmp_path / "workload.jsonl"
        assert main([
            "workload", "--network", net, "--out", out, "--size", "5",
            "--metrics-out", str(metrics),
        ]) == 0
        records = parse_jsonl(metrics.read_text())
        phases = {
            r["labels"]["phase"]
            for r in records
            if r["name"] == "qhl_workload_phase_seconds"
        }
        assert phases == {"estimate-diameter", "generate-sets"}
        for record in records:
            if record["type"] == "histogram":
                assert {"p50", "p95", "p99"} <= set(record["percentiles"])

    def test_unwritable_metrics_path_reports_error(
        self, workspace, tmp_path, capsys
    ):
        net, _idx = workspace
        code = main([
            "build", "--network", net, "--out", str(tmp_path / "x.idx"),
            "--index-queries", "50",
            "--metrics-out", str(tmp_path / "missing" / "m.jsonl"),
        ])
        assert code == 2
        assert "cannot write metrics" in capsys.readouterr().err

    def test_bench_metrics_out(self, workspace, tmp_path, capsys):
        from repro.observability.export import parse_jsonl

        net, _idx = workspace
        queries = str(tmp_path / "obs.queries")
        main(["workload", "--network", net, "--out", queries, "--size", "5"])
        metrics = tmp_path / "bench.jsonl"
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100", "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        records = parse_jsonl(metrics.read_text())
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        # Per-engine end-to-end latency histograms with percentiles.
        engines = {
            r["labels"]["engine"] for r in by_name["qhl_query_seconds"]
        }
        assert {"QHL-flat", "CSP-2Hop"} <= engines
        for record in by_name["qhl_query_seconds"]:
            assert record["count"] > 0
            assert {"p50", "p95", "p99"} <= set(record["percentiles"])
        # Per-phase histograms from the query pipeline.
        phases = {
            r["labels"]["phase"] for r in by_name["qhl_phase_seconds"]
        }
        assert "lca" in phases
        # The harness's own per-workload histograms rode along too.
        assert "qhl_workload_query_seconds" in by_name


class TestBuildOptions:
    def test_no_paths_build(self, workspace, tmp_path):
        net, _idx = workspace
        idx2 = str(tmp_path / "nopaths.idx")
        assert main([
            "build", "--network", net, "--out", idx2,
            "--index-queries", "50", "--no-paths",
        ]) == 0
        assert main([
            "query", "--index", idx2, "--source", "0", "--target", "10",
            "--budget", "500",
        ]) == 0


@pytest.fixture(scope="module")
def flat_file(workspace, tmp_path_factory):
    """``build --no-paths`` output: a version-4 flat file."""
    net, _idx = workspace
    path = str(tmp_path_factory.mktemp("cli-flat") / "ny.idx")
    assert main([
        "build", "--network", net, "--out", path,
        "--index-queries", "200", "--no-paths",
    ]) == 0
    return path


class TestFlatFile:
    """Every index-reading command takes a v4 file with no format flag."""

    def test_no_paths_writes_the_flat_header(self, flat_file):
        from repro.storage.flatfile import FLAT_MAGIC

        with open(flat_file, "rb") as f:
            assert f.read(8) == FLAT_MAGIC

    def test_fallback_query_serves_from_the_flat_engine(
        self, workspace, flat_file, capsys
    ):
        _net, idx = workspace
        args = ["--source", "0", "--target", "140", "--budget", "500"]
        assert main(["query", "--index", idx, *args]) == 0
        want = capsys.readouterr().out.split(" in ")[0]
        assert main(
            ["query", "--index", flat_file, "--fallback", *args]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.split(" in ")[0] == want
        assert "via QHL-flat" in captured.out
        assert "warning" not in captured.err

    def test_stats(self, flat_file, capsys):
        from repro.storage import load_flat_index

        assert main(["stats", "--index", flat_file]) == 0
        out = capsys.readouterr().out
        entries = load_flat_index(flat_file).labels.num_entries()
        assert f"label entries     {entries}" in out
        assert "pruning conds" in out

    def test_verify(self, flat_file, capsys):
        assert main(["verify", "--index", flat_file, "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "flat-columns" in out
        assert "audit PASS" in out


class TestBuildHardening:
    def test_interrupted_build_resumes_via_cli(
        self, workspace, tmp_path, capsys
    ):
        import os

        net, idx = workspace
        out = str(tmp_path / "resumed.idx")
        ckpt = str(tmp_path / "ckpt")
        # A zero time budget kills the build at the first level
        # boundary (exit 2, typed error), leaving checkpoints behind.
        code = main([
            "build", "--network", net, "--out", out,
            "--index-queries", "50",
            "--checkpoint-dir", ckpt, "--max-build-seconds", "0",
        ])
        assert code == 2
        assert "--resume" in capsys.readouterr().err
        assert not os.path.exists(out)
        # --resume finishes the build and clears the checkpoints.
        assert main([
            "build", "--network", net, "--out", out,
            "--index-queries", "50",
            "--checkpoint-dir", ckpt, "--resume",
        ]) == 0
        assert not any(
            name.endswith(".ckpt") for name in os.listdir(ckpt)
        )
        # The resumed index answers queries like the uninterrupted one.
        from repro.storage.serialize import load_index

        resumed = load_index(out)
        fresh = load_index(idx)
        q = resumed.query(0, 140, budget=500)
        assert q.weight == fresh.query(0, 140, budget=500).weight

    def test_lenient_flag_salvages_messy_network(self, tmp_path, capsys):
        messy = tmp_path / "messy.csp"
        messy.write_text(
            "csp 5 5\n"
            "some junk line\n"
            "e 0 1 1 1\ne 1 2 1 1\ne 2 3 1 1\n"
            "e 3 3 1 1\n"   # self loop
            "e 3 4 0 1\n",  # zero weight (disconnects vertex 4)
        )
        out = str(tmp_path / "messy.idx")
        assert main([
            "build", "--network", str(messy), "--out", out,
            "--index-queries", "20",
        ]) == 2
        assert "error" in capsys.readouterr().err
        assert main([
            "build", "--network", str(messy), "--out", out,
            "--index-queries", "20", "--lenient",
        ]) == 0

    def test_verify_metrics_out(self, workspace, tmp_path, capsys):
        from repro.observability.export import parse_jsonl

        _net, idx = workspace
        metrics = tmp_path / "verify.jsonl"
        assert main([
            "verify", "--index", idx, "--queries", "2",
            "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        names = {r["name"] for r in parse_jsonl(metrics.read_text())}
        assert "audit_runs_total" in names
        assert "audit_checks_total" in names
        assert "audit_seconds" in names


class TestFlightRecorderCLI:
    def _flown(self, workspace, tmp_path):
        """Run a couple of queries with --flight-out; return the dump."""
        _net, idx = workspace
        out = str(tmp_path / "flight.jsonl")
        assert main([
            "query", "--index", idx, "--source", "0", "--target", "140",
            "--budget", "500", "--flight-out", out,
        ]) == 0
        return out

    def test_query_flight_out_writes_loadable_dump(
        self, workspace, tmp_path, capsys
    ):
        from repro.observability.flight import load_flight

        out = self._flown(workspace, tmp_path)
        assert "flight record" in capsys.readouterr().out
        records = load_flight(out)
        assert len(records) == 1
        assert records[0].outcome == "ok"
        assert records[0].engine == "qhl"

    def test_flight_dump_prints_table(self, workspace, tmp_path, capsys):
        out = self._flown(workspace, tmp_path)
        capsys.readouterr()
        assert main(["flight", "dump", "--file", out]) == 0
        table = capsys.readouterr().out
        assert "seq" in table and "outcome" in table
        assert "ok" in table

    def test_flight_tail_json(self, workspace, tmp_path, capsys):
        import json

        out = self._flown(workspace, tmp_path)
        capsys.readouterr()
        assert main(["flight", "tail", "--file", out, "--json"]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert rows and rows[-1]["outcome"] == "ok"
        assert rows[-1]["seq"] == 1

    def test_flight_slow_filter(self, workspace, tmp_path, capsys):
        _net, idx = workspace
        out = str(tmp_path / "flight.jsonl")
        # Impossibly tight slow threshold: the query is marked slow.
        assert main([
            "query", "--index", idx, "--source", "0", "--target", "140",
            "--budget", "500", "--flight-out", out,
            "--slow-ms", "0.0001",
        ]) == 0
        capsys.readouterr()
        assert main(["flight", "dump", "--file", out, "--slow"]) == 0
        assert "S" in capsys.readouterr().out

    def test_flight_missing_file_reports_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["flight", "dump", "--file", missing]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_flight_out(self, workspace, tmp_path, capsys):
        from repro.observability.flight import load_flight

        net, _idx = workspace
        wl = str(tmp_path / "wl.queries")
        out = str(tmp_path / "bench-flight.jsonl")
        assert main([
            "workload", "--network", net, "--out", wl, "--size", "5",
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--network", net, "--queries", wl,
            "--index-queries", "100", "--flight-out", out,
        ]) == 0
        records = load_flight(out)
        assert len(records) >= 5


class TestSupervision:
    @pytest.fixture(scope="class")
    def queries(self, workspace, tmp_path_factory):
        net, _idx = workspace
        path = str(tmp_path_factory.mktemp("supervision") / "ny.queries")
        assert main([
            "workload", "--network", net, "--out", path, "--size", "5",
        ]) == 0
        return path

    def _bench(self, workspace, queries, incidents, *extra):
        net, _idx = workspace
        return main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "50", "--batch", "--workers", "2",
            "--incident-out", incidents, *extra,
        ])

    def test_supervised_bench_dumps_incidents(
        self, workspace, queries, tmp_path, capsys
    ):
        incidents = str(tmp_path / "incidents.jsonl")
        assert self._bench(
            workspace, queries, incidents, "--heartbeat-ms", "50"
        ) == 0
        out = capsys.readouterr().out
        assert "supervision incidents" in out
        assert main([
            "supervise", "status", "--incidents", incidents,
        ]) == 0
        table = capsys.readouterr().out
        assert "worker" in table and "spawn" in table
        assert "total" in table

    def test_supervise_status_json(
        self, workspace, queries, tmp_path, capsys
    ):
        import json

        incidents = str(tmp_path / "incidents.jsonl")
        assert self._bench(workspace, queries, incidents) == 0
        capsys.readouterr()
        assert main([
            "supervise", "status", "--incidents", incidents, "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["totals"]["spawn"] >= 2
        assert summary["totals"]["death"] == 0

    def test_supervised_flag_is_gone(self, workspace, tmp_path, capsys):
        # Every fan-out runs supervised, and the label build has none.
        net, _idx = workspace
        for flag in (
            ["--supervised"], ["--workers", "2"], ["--heartbeat-ms", "50"],
            ["--max-worker-restarts", "3"], ["--incident-out", "x.jsonl"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([
                    "build", "--network", net,
                    "--out", str(tmp_path / "sup.idx"), *flag,
                ])
            assert excinfo.value.code == 2, flag
            assert flag[0] in capsys.readouterr().err, flag

    def test_supervise_status_rejects_garbage(self, tmp_path, capsys):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w") as f:
            f.write("this is not json\n")
        assert main([
            "supervise", "status", "--incidents", path,
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_supervise_status_missing_file(self, tmp_path, capsys):
        assert main([
            "supervise", "status",
            "--incidents", str(tmp_path / "nope.jsonl"),
        ]) == 2
        assert "error" in capsys.readouterr().err


class TestLiveUpdates:
    def _apply(self, workspace, journal, extra):
        net, _idx = workspace
        return main([
            "update", "apply", "--journal", journal,
            "--network", net, "--index-queries", "100",
            "--audit", "off", *extra,
        ])

    def test_apply_single_edge_publishes_an_epoch(
        self, workspace, tmp_path, capsys
    ):
        journal = str(tmp_path / "journal")
        assert self._apply(
            workspace, journal, ["--edge", "3", "--weight", "55"]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out
        assert "delta(s)" in out
        assert "pruning rows rebuilt)" in out

    def test_apply_delta_file_and_save(self, workspace, tmp_path, capsys):
        from repro.storage.serialize import load_index

        journal = str(tmp_path / "journal")
        deltas = tmp_path / "d.jsonl"
        deltas.write_text(
            '{"edge": 3, "weight": 55}\n'
            '{"edge": 9, "cost": 17}\n'
        )
        out = str(tmp_path / "repaired.idx")
        assert self._apply(
            workspace, journal, ["--deltas", str(deltas), "--out", out]
        ) == 0
        assert "saved repaired index" in capsys.readouterr().out
        # The saved index answers with the updated metrics baked in.
        assert load_index(out).query(0, 140, budget=500).feasible

    def test_status_reports_the_watermark(
        self, workspace, tmp_path, capsys
    ):
        import json

        journal = str(tmp_path / "journal")
        self._apply(workspace, journal, ["--edge", "3", "--weight", "55"])
        capsys.readouterr()
        assert main([
            "update", "status", "--journal", journal, "--json",
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["last_seq"] == 1
        assert status["published_seq"] == 1
        assert status["pending"] == 0
        assert status["torn_lines"] == 0

    def test_status_exit_one_when_pending(self, tmp_path, capsys):
        from repro.dynamic import UpdateJournal

        journal = str(tmp_path / "journal")
        UpdateJournal(journal).append([(0, 5.0, None)], ts=0.0)
        assert main(["update", "status", "--journal", journal]) == 1
        assert "pending batches       1" in capsys.readouterr().out

    def test_replay_converges_a_pending_journal(
        self, workspace, tmp_path, capsys
    ):
        from repro.dynamic import UpdateJournal

        journal = str(tmp_path / "journal")
        UpdateJournal(journal).append([(3, 55.0, None)], ts=0.0)
        net, _idx = workspace
        assert main([
            "update", "replay", "--journal", journal,
            "--network", net, "--index-queries", "100", "--audit", "off",
        ]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 journalled batch(es)" in out
        assert "backlog 0" in out
        assert main(["update", "status", "--journal", journal]) == 0

    def test_apply_without_network_is_an_error(self, tmp_path, capsys):
        assert main([
            "update", "apply", "--journal", str(tmp_path / "journal"),
            "--edge", "0", "--weight", "5",
        ]) == 2
        assert "--network" in capsys.readouterr().err

    def test_apply_without_deltas_is_an_error(
        self, workspace, tmp_path, capsys
    ):
        assert self._apply(
            workspace, str(tmp_path / "journal"), []
        ) == 2
        assert "--deltas" in capsys.readouterr().err

    def test_bad_delta_file_is_an_error(self, workspace, tmp_path, capsys):
        deltas = tmp_path / "bad.jsonl"
        deltas.write_text('{"weight": 5}\n')
        assert self._apply(
            workspace, str(tmp_path / "journal"),
            ["--deltas", str(deltas)],
        ) == 2
        assert "bad delta record" in capsys.readouterr().err

    def test_bench_updates_flag_prints_summary(
        self, workspace, tmp_path, capsys
    ):
        net, _idx = workspace
        queries = str(tmp_path / "u.queries")
        main(["workload", "--network", net, "--out", queries,
              "--size", "5"])
        capsys.readouterr()
        assert main([
            "bench", "--network", net, "--queries", queries,
            "--index-queries", "100", "--updates", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "updates[Q1]" in out
        assert "live update" in out
        assert "pruning rows rebuilt" in out
