"""Kill-and-resume chaos: interrupted builds continue to identical bytes.

Two layers of violence:

* :class:`~repro.service.faults.FaultInjector` crashes the build at the
  ``build-segment`` point — before and after every segment's checkpoint
  write, for every segment — and ``resume=True`` must land on label
  columns, all five payload and all four provenance columns, identical
  to an uninterrupted build's.
* One real ``SIGKILL``: a subprocess is killed mid-build with no chance
  to clean up, and the parent resumes from whatever hit the disk.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.graph import grid_network
from repro.hierarchy.decomposition import build_tree_decomposition
from repro.labeling.builder import build_label_columns
from repro.service.faults import FaultInjector, use_injector
from tests.labeling.test_checkpoint import columns, num_segments


class BuildCrash(RuntimeError):
    """The injected 'process died here' stand-in."""


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(6, 6, seed=5))


@pytest.fixture(scope="module")
def fresh_bytes(tree):
    return columns(build_label_columns(tree))


class TestInjectedCrashes:
    @pytest.mark.parametrize("stage", ["computed", "checkpointed"])
    def test_crash_at_every_level_boundary_then_resume(
        self, tree, fresh_bytes, tmp_path, stage
    ):
        for segment in range(num_segments(tree)):
            directory = str(tmp_path / f"{stage}-s{segment}")
            injector = FaultInjector()
            injector.fail(
                "build-segment",
                exc=BuildCrash,
                match={"segment": segment, "stage": stage},
            )
            with use_injector(injector):
                with pytest.raises(BuildCrash):
                    build_label_columns(tree, checkpoint=directory)
            resumed = build_label_columns(
                tree, checkpoint=directory, resume=True
            )
            assert columns(resumed) == fresh_bytes, (
                f"crash at segment {segment} stage {stage!r} "
                "did not resume cleanly"
            )

    def test_repeated_crashes_still_converge(self, tree, fresh_bytes,
                                             tmp_path):
        """Crash on every single segment, resuming between crashes —
        the worst uptime imaginable still finishes the build."""
        directory = str(tmp_path)
        for segment in range(num_segments(tree)):
            injector = FaultInjector()
            injector.fail(
                "build-segment",
                exc=BuildCrash,
                match={"segment": segment, "stage": "checkpointed"},
            )
            with use_injector(injector):
                with pytest.raises(BuildCrash):
                    build_label_columns(
                        tree, checkpoint=directory, resume=segment > 0
                    )
        labels = build_label_columns(tree, checkpoint=directory, resume=True)
        assert columns(labels) == fresh_bytes

    def test_crash_before_checkpoint_loses_only_that_level(
        self, tree, tmp_path
    ):
        injector = FaultInjector()
        injector.fail(
            "build-segment",
            exc=BuildCrash,
            match={"segment": 2, "stage": "computed"},
        )
        with use_injector(injector):
            with pytest.raises(BuildCrash):
                build_label_columns(tree, checkpoint=str(tmp_path))
        names = sorted(
            name for name in os.listdir(tmp_path)
            if name.startswith("segment-")
        )
        assert names == ["segment-000000.ckpt", "segment-000001.ckpt"]


_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.graph import grid_network
    from repro.hierarchy.decomposition import build_tree_decomposition
    from repro.labeling.builder import build_label_columns
    from repro.service.faults import FaultInjector, set_injector

    directory, kill_segment = sys.argv[1], int(sys.argv[2])

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    injector = FaultInjector()
    injector.fail(
        "build-segment", exc=die,
        match={"segment": kill_segment, "stage": "checkpointed"},
    )
    set_injector(injector)
    tree = build_tree_decomposition(grid_network(6, 6, seed=5))
    build_label_columns(tree, checkpoint=directory)
    raise SystemExit("unreachable: the build should have been killed")
    """
)


class TestRealSigkill:
    def test_sigkilled_build_resumes_byte_identical(
        self, tree, fresh_bytes, tmp_path
    ):
        directory = str(tmp_path)
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src"
        )
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, directory, "1"],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        # The kill left a partial checkpoint directory behind.
        assert sorted(
            name for name in os.listdir(directory)
            if name.startswith("segment-")
        ) == ["segment-000000.ckpt", "segment-000001.ckpt"]
        resumed = build_label_columns(tree, checkpoint=directory, resume=True)
        assert columns(resumed) == fresh_bytes
