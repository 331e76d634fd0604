"""Kill-and-resume chaos: interrupted builds continue to identical bytes.

Two layers of violence:

* :class:`~repro.service.faults.FaultInjector` crashes the build at the
  ``build-level`` point — before and after every level's checkpoint
  write, for every level — and ``resume=True`` must land on
  ``pack_labels`` bytes, provenance columns included, identical to an
  uninterrupted build.
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
from repro.labeling.builder import build_labels, depth_levels
from repro.resilience.checkpoint import build_labels_checkpointed
from repro.service.faults import FaultInjector, use_injector
from repro.storage.compact import pack_labels


class BuildCrash(RuntimeError):
    """The injected 'process died here' stand-in."""


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(6, 6, seed=5))


@pytest.fixture(scope="module")
def fresh_bytes(tree):
    return packed(build_labels(tree))


def packed(store):
    # With provenance: restored levels must be relinked to the store's
    # own entries to pack to the fresh build's rows.
    return pack_labels(store, provenance=True)


class TestInjectedCrashes:
    @pytest.mark.parametrize("stage", ["computed", "checkpointed"])
    def test_crash_at_every_level_boundary_then_resume(
        self, tree, fresh_bytes, tmp_path, stage
    ):
        num_levels = len(depth_levels(tree))
        for level in range(num_levels):
            directory = str(tmp_path / f"{stage}-l{level}")
            injector = FaultInjector()
            injector.fail(
                "build-level",
                exc=BuildCrash,
                match={"level": level, "stage": stage},
            )
            with use_injector(injector):
                with pytest.raises(BuildCrash):
                    build_labels_checkpointed(tree, directory)
            resumed = build_labels_checkpointed(
                tree, directory, resume=True
            )
            assert packed(resumed) == fresh_bytes, (
                f"crash at level {level} stage {stage!r} "
                "did not resume cleanly"
            )

    def test_repeated_crashes_still_converge(self, tree, fresh_bytes,
                                             tmp_path):
        """Crash on every single level, resuming between crashes —
        the worst uptime imaginable still finishes the build."""
        directory = str(tmp_path)
        num_levels = len(depth_levels(tree))
        for level in range(num_levels):
            injector = FaultInjector()
            injector.fail(
                "build-level",
                exc=BuildCrash,
                match={"level": level, "stage": "checkpointed"},
            )
            with use_injector(injector):
                with pytest.raises(BuildCrash):
                    build_labels_checkpointed(
                        tree, directory, resume=level > 0
                    )
        store = build_labels_checkpointed(tree, directory, resume=True)
        assert packed(store) == fresh_bytes

    def test_crash_before_checkpoint_loses_only_that_level(
        self, tree, tmp_path
    ):
        injector = FaultInjector()
        injector.fail(
            "build-level",
            exc=BuildCrash,
            match={"level": 2, "stage": "computed"},
        )
        with use_injector(injector):
            with pytest.raises(BuildCrash):
                build_labels_checkpointed(tree, str(tmp_path))
        names = sorted(
            name for name in os.listdir(tmp_path)
            if name.startswith("level-")
        )
        assert names == ["level-000000.ckpt", "level-000001.ckpt"]


_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.graph import grid_network
    from repro.hierarchy.decomposition import build_tree_decomposition
    from repro.resilience.checkpoint import build_labels_checkpointed
    from repro.service.faults import FaultInjector, set_injector

    directory, kill_level = sys.argv[1], int(sys.argv[2])

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    injector = FaultInjector()
    injector.fail(
        "build-level", exc=die,
        match={"level": kill_level, "stage": "checkpointed"},
    )
    set_injector(injector)
    tree = build_tree_decomposition(grid_network(6, 6, seed=5))
    build_labels_checkpointed(tree, directory)
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
        assert any(
            name.startswith("level-") for name in os.listdir(directory)
        )
        resumed = build_labels_checkpointed(tree, directory, resume=True)
        assert packed(resumed) == fresh_bytes
