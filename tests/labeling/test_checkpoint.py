"""Checkpointed/resumable label builds (``repro.resilience.checkpoint``).

The load-bearing claim: a build interrupted at *any* segment boundary
and resumed writes columns byte-identical (all five payload columns and
all four provenance columns) to an uninterrupted build's.
"""

from __future__ import annotations

import os
from array import array
from types import SimpleNamespace

import pytest

from repro.core import QHLIndex
from repro.exceptions import BuildBudgetExceededError, IndexBuildError
from repro.graph import RoadNetwork, grid_network, random_connected_network
from repro.hierarchy.decomposition import build_tree_decomposition
from repro.labeling.builder import build_label_columns
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.resilience.checkpoint import (
    SEGMENT_MAGIC,
    BuildBudget,
    CheckpointStore,
    segment_bounds,
    tree_fingerprint,
)
from repro.skyline.entries import expand
from repro.storage.serialize import load_envelope, save_envelope

PAYLOAD = ("set_offsets", "hubs", "entry_offsets", "weights", "costs")


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(6, 6, seed=7))


@pytest.fixture(scope="module")
def fresh(tree):
    return columns(build_label_columns(tree))


def columns(labels):
    """The payload and provenance columns of flat labels, as bytes."""
    payload = [getattr(labels, name).tobytes() for name in PAYLOAD]
    if labels.provenance is None:
        return payload, None
    return payload, [column.tobytes() for column in labels.provenance]


def num_segments(tree) -> int:
    return len(segment_bounds(tree)) - 1


def segment_files(directory: str) -> list[str]:
    return sorted(
        name for name in os.listdir(directory)
        if name.startswith("segment-")
    )


def keep_segments(directory: str, kept: int) -> None:
    """Delete every segment file after the first ``kept``, as a crash
    right after segment ``kept - 1`` was saved would leave them."""
    for name in segment_files(directory)[kept:]:
        os.remove(os.path.join(directory, name))


class TestSegments:
    def test_segments_partition_the_topdown_order(self, random30_tree):
        bounds = segment_bounds(random30_tree)
        assert bounds[0] == 0
        assert bounds[-1] == len(random30_tree.topdown_order)
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))

    def test_square_root_many_segments_of_near_equal_length(self):
        for n in (1, 2, 35, 36, 37, 676):
            bounds = segment_bounds(SimpleNamespace(num_vertices=n))
            count = len(bounds) - 1
            assert (count - 1) ** 2 < n <= count ** 2
            assert {hi - lo for lo, hi in zip(bounds, bounds[1:])} <= {
                n // count, n // count + 1
            }

    def test_hubs_come_earlier_in_the_order(self, random30_tree):
        """What a restore relies on: every hub of ``v`` precedes ``v``
        in the top-down order, so its label is on the chain when
        ``v``'s is rebuilt from a segment file."""
        tree = random30_tree
        position = {v: i for i, v in enumerate(tree.topdown_order)}
        for v in tree.topdown_order:
            assert all(position[w] < position[v] for w in tree.bag[v])
            assert all(
                position[u] < position[v] for u in tree.ancestors(v)
            )


class TestCheckpointedBuild:
    def test_fresh_checkpointed_build_matches_plain(
        self, tree, fresh, tmp_path
    ):
        labels = build_label_columns(tree, checkpoint=str(tmp_path))
        assert columns(labels) == fresh

    def test_writes_one_checkpoint_per_level(self, tree, tmp_path):
        # One file per segment, each holding plain arrays: no entry
        # objects are pickled.
        build_label_columns(tree, checkpoint=str(tmp_path))
        files = segment_files(str(tmp_path))
        assert len(files) == num_segments(tree) == 6
        assert os.path.exists(tmp_path / "manifest.ckpt")
        for name in files:
            inner = load_envelope(str(tmp_path / name), SEGMENT_MAGIC)
            assert inner.pop("segment") == int(name[8:14])
            assert set(inner) == {
                "sets", "hubs", "sizes", "mids", "left", "right"
            }
            assert all(type(value) is array for value in inner.values())

    def test_resume_from_every_level_is_byte_identical(
        self, tree, fresh, tmp_path
    ):
        for kept in range(num_segments(tree) + 1):
            directory = str(tmp_path / f"kept{kept}")
            build_label_columns(tree, checkpoint=directory)
            keep_segments(directory, kept)
            resumed = build_label_columns(
                tree, checkpoint=directory, resume=True
            )
            assert columns(resumed) == fresh, (
                f"resume after {kept} segments diverged"
            )

    @pytest.mark.parametrize("kept", [0, 3, 5])
    def test_resume_without_paths_is_byte_identical(self, kept, tmp_path):
        tree = build_tree_decomposition(
            grid_network(6, 6, seed=7), store_paths=False
        )
        directory = str(tmp_path)
        build_label_columns(tree, store_paths=False, checkpoint=directory)
        keep_segments(directory, kept)
        resumed = build_label_columns(
            tree, store_paths=False, checkpoint=directory, resume=True
        )
        assert columns(resumed) == columns(
            build_label_columns(tree, store_paths=False)
        )

    def test_resume_on_empty_directory_builds_from_scratch(
        self, tree, fresh, tmp_path
    ):
        labels = build_label_columns(
            tree, checkpoint=str(tmp_path / "empty"), resume=True
        )
        assert columns(labels) == fresh

    def test_corrupt_level_checkpoint_is_recomputed(
        self, tree, fresh, tmp_path
    ):
        directory = str(tmp_path)
        build_label_columns(tree, checkpoint=directory)
        files = segment_files(directory)
        victim = os.path.join(directory, files[len(files) // 2])
        with open(victim, "r+b") as f:
            f.seek(40)
            f.write(b"\xff\xff\xff\xff")
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = build_label_columns(
                tree, checkpoint=directory, resume=True
            )
        assert columns(resumed) == fresh
        assert registry.counter(
            "build_resume_segments_restored_total"
        ).value == len(files) // 2

    def test_resumed_store_keeps_path_provenance(self, tree, tmp_path):
        directory = str(tmp_path)
        build_label_columns(tree, checkpoint=directory)
        keep_segments(directory, len(segment_files(directory)) - 1)
        resumed = build_label_columns(
            tree, checkpoint=directory, resume=True
        )
        # Labels restored from segments (not just recomputed ones)
        # expand to the paths of the uninterrupted build.
        plain = build_label_columns(tree)
        for v, u, entries in plain.items():
            assert [expand(e, v, u) for e in resumed.get(v, u)] == [
                expand(e, v, u) for e in entries
            ]

    def test_fingerprint_mismatch_rejects_stale_checkpoints(
        self, tree, tmp_path
    ):
        directory = str(tmp_path)
        build_label_columns(tree, checkpoint=directory)
        other_tree = build_tree_decomposition(grid_network(6, 6, seed=8))
        with pytest.raises(IndexBuildError, match="different network"):
            build_label_columns(other_tree, checkpoint=directory, resume=True)

    @pytest.mark.parametrize("change", ["reweighted", "other-topology"])
    def test_unreadable_manifest_trusts_no_level_file(
        self, tmp_path, change
    ):
        # Segment files carry no fingerprint; with the manifest
        # unreadable a resume must not restore them into another
        # network's build.
        network = grid_network(6, 6, seed=1, diagonal_prob=0.1)
        directory = str(tmp_path)
        build_label_columns(
            build_tree_decomposition(network), checkpoint=directory
        )
        manifest = os.path.join(directory, "manifest.ckpt")
        with open(manifest, "r+b") as f:
            f.seek(os.path.getsize(manifest) // 2)
            f.write(b"\xff\xff\xff")
        assert CheckpointStore(directory).read_manifest() is None
        if change == "reweighted":
            other = RoadNetwork.from_edges(network.num_vertices, [
                (u, v, 2 * w + 1, c) for u, v, w, c in network.edges()
            ])
        else:
            other = grid_network(5, 7, seed=1, diagonal_prob=0.1)
        other_tree = build_tree_decomposition(other)
        resumed = build_label_columns(
            other_tree, checkpoint=directory, resume=True
        )
        assert columns(resumed) == columns(build_label_columns(other_tree))
        assert CheckpointStore(directory).read_manifest()[
            "fingerprint"
        ] == tree_fingerprint(other_tree, True)

    def test_checkpoint_in_level_format_is_not_resumed(self, tree, tmp_path):
        # A directory as depth-level checkpoints left it: a manifest
        # with this tree's fingerprint under the old magic, and level
        # files holding pickled entries.
        directory = str(tmp_path)
        save_envelope(
            os.path.join(directory, "manifest.ckpt"),
            "repro-qhl-build-manifest",
            {"fingerprint": tree_fingerprint(tree, True), "num_levels": 2},
        )
        for level in range(2):
            save_envelope(
                os.path.join(directory, f"level-{level:06d}.ckpt"),
                "repro-qhl-build-checkpoint-e2",
                {"level": level, "rows": [(0, [(1, [(3, 4, None)])])]},
            )

        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = build_label_columns(
                tree, checkpoint=directory, resume=True
            )
        assert registry.counter(
            "build_resume_segments_restored_total"
        ).value == 0
        assert registry.counter(
            "build_checkpoint_segments_total"
        ).value == num_segments(tree)
        assert columns(resumed) == columns(build_label_columns(tree))
        # The level files were cleared with the old manifest.
        assert sorted(os.listdir(directory)) == sorted(
            ["manifest.ckpt", *segment_files(directory)]
        )
        assert CheckpointStore(directory).read_manifest() == {
            "fingerprint": tree_fingerprint(tree, True),
            "num_segments": num_segments(tree),
        }

    def test_fingerprint_covers_build_params(self, tree):
        base = tree_fingerprint(tree, True)
        assert tree_fingerprint(tree, False) != base
        assert tree_fingerprint(tree, True) == base

    def test_fingerprint_digest_is_pinned(self, tree):
        # Digests of checkpoints written by earlier releases: a change to
        # the hashed preimage would make their --resume refuse the
        # directory as built for a different network.
        assert tree_fingerprint(tree, True) == (
            "fcbc02b3f23f3a7e00a07d6923b0685e7085375e226f5c70fc68a5c4ca838975"
        )
        assert tree_fingerprint(tree, False) == (
            "c8f66c7029acaf5ef758cb2c098c77ac5be4eea41ba81086c911eaaabfc5be4c"
        )

    def test_non_resume_clears_stale_checkpoints(self, tree, tmp_path):
        directory = str(tmp_path)
        checkpoint = CheckpointStore(directory)
        build_label_columns(tree, checkpoint=checkpoint)
        before = len(segment_files(directory))
        # A fresh (resume=False) run against the same directory starts
        # over instead of trusting old files.
        other_tree = build_tree_decomposition(grid_network(5, 5, seed=1))
        build_label_columns(other_tree, checkpoint=checkpoint)
        assert len(segment_files(directory)) == num_segments(other_tree)
        assert len(segment_files(directory)) < before

    def test_builder_facade_routes_to_checkpointed_path(self, tmp_path):
        # QHLIndex.build streams a checkpointed build into columns too.
        network = grid_network(6, 6, seed=7)
        index = QHLIndex.build(
            network, num_index_queries=20, checkpoint_dir=str(tmp_path)
        )
        assert segment_files(str(tmp_path))
        assert columns(index.labels) == columns(
            QHLIndex.build(network, num_index_queries=20).labels
        )

    def test_budget_without_checkpoint_rejected(self, tree):
        with pytest.raises(IndexBuildError, match="checkpoint"):
            build_label_columns(tree, budget=BuildBudget(max_seconds=1))
        with pytest.raises(IndexBuildError, match="checkpoint"):
            build_label_columns(tree, resume=True)


class TestBuildBudget:
    def test_time_budget_checkpoints_then_raises(self, tree, tmp_path):
        ticks = iter(range(0, 1000, 10))  # each check sees +10s
        budget = BuildBudget(max_seconds=5, clock=lambda: next(ticks))
        with pytest.raises(BuildBudgetExceededError) as excinfo:
            build_label_columns(tree, checkpoint=str(tmp_path), budget=budget)
        assert excinfo.value.segment == 0
        assert excinfo.value.elapsed_s == 10
        assert "--resume" in str(excinfo.value)

    def test_exhausted_build_resumes_to_identical_bytes(
        self, tree, fresh, tmp_path
    ):
        # Give the watchdog enough budget for a few segments, crash,
        # then finish with --resume semantics.
        clock = {"now": 0.0}

        def tick():
            clock["now"] += 1.0
            return clock["now"]

        directory = str(tmp_path)
        with pytest.raises(BuildBudgetExceededError) as excinfo:
            build_label_columns(
                tree, checkpoint=directory,
                budget=BuildBudget(max_seconds=3, clock=tick),
            )
        assert excinfo.value.segment > 0  # some segments did complete
        assert len(segment_files(directory)) == excinfo.value.segment
        resumed = build_label_columns(tree, checkpoint=directory, resume=True)
        assert columns(resumed) == fresh

    def test_memory_budget_raises(self, tree, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as checkpoint_mod

        monkeypatch.setattr(checkpoint_mod, "_rss_mb", lambda: 4096.0)
        with pytest.raises(BuildBudgetExceededError) as excinfo:
            build_label_columns(
                tree, checkpoint=str(tmp_path),
                budget=BuildBudget(max_rss_mb=1024),
            )
        assert excinfo.value.rss_mb == 4096.0

    def test_no_limits_never_raises(self, tree, tmp_path):
        build_label_columns(
            tree, checkpoint=str(tmp_path), budget=BuildBudget()
        )


class TestCheckpointMetrics:
    def test_restored_and_built_levels_are_counted(self, tree, tmp_path):
        directory = str(tmp_path)
        build_label_columns(tree, checkpoint=directory)
        files = segment_files(directory)
        keep_segments(directory, 2)
        registry = MetricsRegistry()
        with use_registry(registry):
            build_label_columns(tree, checkpoint=directory, resume=True)
        restored = registry.counter("build_resume_segments_restored_total")
        built = registry.counter("build_checkpoint_segments_total")
        assert restored.value == 2
        assert built.value == len(files) - 2
        bounds = segment_bounds(tree)
        # The root, first in the order, has no label to restore.
        assert registry.gauge(
            "build_resume_restored_vertices"
        ).value == bounds[2] - 1

    def test_label_work_matches_plain_build(self, tree, tmp_path):
        plain, checkpointed = MetricsRegistry(), MetricsRegistry()
        with use_registry(plain):
            build_label_columns(tree)
        with use_registry(checkpointed):
            build_label_columns(tree, checkpoint=str(tmp_path))
        for registry in (plain, checkpointed):
            assert registry.counter("qhl_label_joins_total").value == 966
            assert registry.get("qhl_label_vertex_seconds").count == 35

    @pytest.mark.parametrize("kept", [2, 4])
    def test_resume_reports_only_recomputed_label_work(
        self, tree, tmp_path, kept
    ):
        directory = str(tmp_path)
        build_label_columns(tree, checkpoint=directory)
        keep_segments(directory, kept)
        recomputed = tree.topdown_order[segment_bounds(tree)[kept]:]
        # One join per hub w of X(v)\{v} and ancestor u, except w == u.
        joins = sum(
            len(tree.bag[v]) - (u in tree.bag[v])
            for v in recomputed for u in tree.ancestors(v)
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            build_label_columns(tree, checkpoint=directory, resume=True)
        assert 0 < joins < 966
        assert registry.counter("qhl_label_joins_total").value == joins
        assert registry.get("qhl_label_vertex_seconds").count == len(
            recomputed
        )


class TestRandomNetworks:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_resume_identity_on_random_graphs(self, seed, tmp_path):
        network = random_connected_network(24, 20, seed=seed)
        tree = build_tree_decomposition(network)
        expected = columns(build_label_columns(tree))
        directory = str(tmp_path / f"s{seed}")
        build_label_columns(tree, checkpoint=directory)
        keep_segments(directory, max(1, num_segments(tree) // 2))
        resumed = build_label_columns(tree, checkpoint=directory, resume=True)
        assert columns(resumed) == expected
