"""Smoke tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every run here uses ``--smoke``: the small datasets and, unless
``--seconds`` says otherwise, a one-second measured phase, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import checks
import compare
import layers
import run
from common import HERE, ROOT, WORKLOADS, load_declaration
from inputs import SMOKE

SEED = 3


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = load_declaration()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)), spec["name"]
        if not trace:
            assert metric["value"] > 0, spec["name"]


def test_seconds_sets_the_measured_phase(monkeypatch, capsys):
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))
    status = run.main(["--workload", "rush-hour", "--seed", str(SEED),
                       "--seconds", "2", "--smoke"])
    capsys.readouterr()
    assert status == 0
    name = f"result-rush-hour-s{SEED}-t0.json"
    with open(os.path.join(HERE, "out", name), encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["seconds"] == 2
    # rush-hour's open loop sends rush_rate queries per measured second.
    assert record["samples"]["from_due"] == 2 * SMOKE.rush_rate


def test_wrong_reference_answer_fails_the_run(monkeypatch, capsys):
    real = checks.constrained_dijkstra

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        if result.feasible:
            result.weight += 1
        return result

    monkeypatch.setattr(checks, "constrained_dijkstra", off_by_one)
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))
    status = run.main(["--workload", "interactive-short", "--seed",
                       str(SEED), "--smoke"])
    result = _last_json(capsys.readouterr().out)
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_missing_wrap_target_reports_null(monkeypatch, capsys):
    moved = tuple(
        (module, "moved_" + path, *rest)
        if path == "candidate_separators" else (module, path, *rest)
        for module, path, *rest in layers.TARGETS
    )
    monkeypatch.setattr(layers, "TARGETS", moved)
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))
    status = run.main(["--workload", "interactive-short", "--seed",
                       str(SEED), "--trace", "1", "--smoke"])
    captured = capsys.readouterr()
    metrics = _last_json(captured.out)["metrics"]
    assert status == 0
    assert metrics["core.condition_pruning_us"]["value"] is None
    assert metrics["core.pruning_useful_ratio"]["value"] is None
    assert metrics["core.concat_us"]["value"] is not None
    assert "warning" in captured.err
    assert "moved_candidate_separators" in captured.err


def test_untraced_run_never_imports_the_wrappers():
    code = (
        "import sys, run\n"
        f"run.main(['--workload', 'zipf-cached', '--seed', '{SEED}', "
        "'--smoke'])\n"
        "print('layers' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True,
        text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_compare_refuses_runs_with_different_inputs(tmp_path):
    record = {"workload": "rush-hour", "trace": 0, "seed": 1,
              "input_digest": "a", "failed": 0, "metrics": {}}
    (tmp_path / "base").mkdir()
    (tmp_path / "head").mkdir()
    (tmp_path / "base" / "result-a.json").write_text(json.dumps(record))
    record["input_digest"] = "b"
    (tmp_path / "head" / "result-a.json").write_text(json.dumps(record))
    assert compare.main(["--base", str(tmp_path / "base"),
                         "--head", str(tmp_path / "head")]) == 2
