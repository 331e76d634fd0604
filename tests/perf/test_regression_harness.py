"""The perf-regression gate: pinned workloads, tolerance bands, trips."""

from __future__ import annotations

import copy
import json

import pytest

from benchmarks.regress import (
    EXACT_FIELDS,
    LATENCY_TOLERANCE,
    OVERHEAD_BUDGET,
    _percentile,
    check,
    main,
    measure,
    measure_overhead,
    pinned_workload,
)
from repro.datasets import load_dataset


def fake_measurement() -> dict:
    return {
        "engines": {
            "qhl": {
                "p50_norm": 0.002, "p95_norm": 0.005,
                "hoplinks": 100, "concatenations": 200,
                "label_lookups": 300, "feasible": 40,
            },
            "cached": {
                "p50_norm": 0.0002, "p95_norm": 0.0005,
                "hoplinks": 150, "concatenations": 250,
                "label_lookups": 350, "feasible": 40,
            },
        }
    }


class TestCheckLogic:
    def test_identical_measurement_passes(self):
        baseline = fake_measurement()
        assert check(copy.deepcopy(baseline), baseline) == []

    def test_latency_within_band_passes(self):
        baseline = fake_measurement()
        measured = copy.deepcopy(baseline)
        for engine in measured["engines"].values():
            engine["p50_norm"] *= LATENCY_TOLERANCE * 0.95
        assert check(measured, baseline) == []

    def test_latency_over_band_fails(self):
        baseline = fake_measurement()
        measured = copy.deepcopy(baseline)
        measured["engines"]["qhl"]["p95_norm"] *= LATENCY_TOLERANCE * 1.1
        failures = check(measured, baseline)
        assert len(failures) == 1
        assert "qhl" in failures[0] and "p95_norm" in failures[0]

    def test_synthetic_slowdown_trips_every_engine(self):
        baseline = fake_measurement()
        failures = check(
            copy.deepcopy(baseline), baseline, slowdown=2.0
        )
        # 2x > 1.6x band: both engines fail on both percentiles.
        assert len(failures) == 4

    def test_op_count_drift_is_exact_not_banded(self):
        baseline = fake_measurement()
        measured = copy.deepcopy(baseline)
        measured["engines"]["qhl"]["hoplinks"] += 1  # 1 op off: fails
        failures = check(measured, baseline)
        assert len(failures) == 1
        assert "hoplinks" in failures[0]

    def test_missing_engine_fails(self):
        baseline = fake_measurement()
        measured = copy.deepcopy(baseline)
        del measured["engines"]["cached"]
        failures = check(measured, baseline)
        assert any("missing" in f for f in failures)

    def test_faster_is_never_a_failure(self):
        baseline = fake_measurement()
        measured = copy.deepcopy(baseline)
        for engine in measured["engines"].values():
            engine["p50_norm"] *= 0.1
            engine["p95_norm"] *= 0.1
        assert check(measured, baseline) == []


class TestPercentile:
    def test_empty(self):
        assert _percentile([], 50) == 0.0

    def test_single_sample_every_quantile(self):
        for q in (0, 50, 95, 99, 100):
            assert _percentile([7.0], q) == 7.0

    def test_interpolates(self):
        assert _percentile([1.0, 2.0, 3.0], 50) == 2.0
        assert _percentile([1.0, 3.0], 50) == 2.0
        assert _percentile([0.0, 10.0], 95) == 9.5


class TestPinnedWorkload:
    def test_same_seed_same_queries(self):
        network = load_dataset("NY", scale="small").network
        first = pinned_workload(network, 30, seed=5)
        second = pinned_workload(network, 30, seed=5)
        assert first == second
        assert pinned_workload(network, 30, seed=6) != first


class TestEndToEnd:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert f"(budget {OVERHEAD_BUDGET:.0%})" in capsys.readouterr().out

    def test_measure_then_check_round_trip(self, tmp_path):
        measured = measure(num_queries=24, repetitions=2)
        for name in ("qhl", "cached", "csp2hop", "batch"):
            engine = measured["engines"][name]
            for field in EXACT_FIELDS + ("p50_norm", "p95_norm"):
                assert field in engine, (name, field)
        # A measurement always passes against itself...
        assert check(copy.deepcopy(measured), measured) == []
        # ...and a seeded 2x slowdown always trips the gate.
        assert check(copy.deepcopy(measured), measured, slowdown=2.0)

    def test_main_check_against_fresh_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "BENCH_regression.json"
        measured = measure(num_queries=24, repetitions=2)
        with open(baseline, "w") as handle:
            json.dump(measured, handle)
        # A loose band keeps this wiring test immune to scheduler
        # noise in tiny re-measurements; the band logic itself is
        # covered synthetically in TestCheckLogic.
        argv = [
            "--check", "--queries", "24", "--reps", "2",
            "--baseline", str(baseline), "--out", str(out),
            "--tolerance", "50.0",
        ]
        assert main(argv) == 0
        assert json.loads(out.read_text())["engines"]
        assert main(argv + ["--slowdown", "1000.0"]) == 1

    def test_inert_recorder_overhead_within_budget(self):
        result = measure_overhead(num_queries=40, repetitions=3)
        assert result["hook_ns"] > 0
        assert result["overhead"] <= OVERHEAD_BUDGET
