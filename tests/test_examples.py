"""Every example script must run to completion.

Examples are executable documentation; they assert their own claims
(cross-checks against ground truth), so a clean exit is a real test.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples"
)
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


def test_every_example_is_covered():
    # If a new example appears, this list (and the README table) must
    # acknowledge it.
    assert EXAMPLES == [
        "congestion_detour.py",
        "engine_faceoff.py",
        "flight_recorder.py",
        "live_traffic.py",
        "quickstart.py",
        "rush_hour_replay.py",
        "supervised_batch.py",
        "toll_budget_routing.py",
        "trace_query.py",
    ]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
