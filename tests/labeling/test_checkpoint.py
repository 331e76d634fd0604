"""Checkpointed/resumable label builds (``repro.resilience.checkpoint``).

The load-bearing claim: a build interrupted at *any* point and resumed
produces labels byte-identical (on the canonical compact form,
provenance columns included) to an uninterrupted build.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import BuildBudgetExceededError, IndexBuildError
from repro.graph import RoadNetwork, grid_network, random_connected_network
from repro.hierarchy.decomposition import build_tree_decomposition
from repro.labeling.builder import build_labels, depth_levels
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.resilience.checkpoint import (
    CHECKPOINT_MAGIC,
    BuildBudget,
    CheckpointStore,
    build_labels_checkpointed,
    tree_fingerprint,
)
from repro.storage.compact import pack_labels
from repro.storage.serialize import load_envelope, save_envelope


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(6, 6, seed=7))


@pytest.fixture(scope="module")
def fresh_bytes(tree):
    return packed(build_labels(tree))


def packed(store):
    # With provenance: restored levels must be relinked to the store's
    # own entries to pack to the fresh build's rows.
    return pack_labels(store, provenance=True)


def nested(entry, memo=None):
    """``entry`` in the layout that kept provenance in a second tuple:
    ``(w, c, ("join", mid, left, right))``, ``(w, c, ("edge", u, v))``."""
    memo = {} if memo is None else memo
    if id(entry) not in memo:
        tag = entry[2]
        if tag is None:
            prov = None
        elif isinstance(tag, str):
            prov = (tag, *entry[3:])
        else:
            prov = ("join", tag, nested(entry[3], memo),
                    nested(entry[4], memo))
        memo[id(entry)] = (entry[0], entry[1], prov)
    return memo[id(entry)]


def level_files(directory: str) -> list[str]:
    return sorted(
        name for name in os.listdir(directory)
        if name.startswith("level-")
    )


class TestDepthLevels:
    def test_partition_covers_all_vertices(self, random30_tree):
        levels = depth_levels(random30_tree)
        flat = [v for level in levels for v in level]
        assert sorted(flat) == sorted(random30_tree.topdown_order)

    def test_levels_are_depth_homogeneous_and_ordered(self, random30_tree):
        tree = random30_tree
        levels = depth_levels(tree)
        for d, level in enumerate(levels):
            assert {tree.depth[v] for v in level} == {
                tree.depth[level[0]]
            }
        depths = [tree.depth[level[0]] for level in levels]
        assert depths == sorted(depths)

    def test_level_members_depend_only_on_shallower_levels(
        self, random30_tree
    ):
        """The independence property a level checkpoint relies on."""
        tree = random30_tree
        for level in depth_levels(tree):
            members = set(level)
            for v in level:
                for w in tree.bag[v]:
                    assert w not in members, (
                        f"bag of {v} reaches into its own level"
                    )


class TestCheckpointedBuild:
    def test_fresh_checkpointed_build_matches_plain(
        self, tree, fresh_bytes, tmp_path
    ):
        store = build_labels_checkpointed(tree, str(tmp_path))
        assert packed(store) == fresh_bytes

    def test_writes_one_checkpoint_per_level(self, tree, tmp_path):
        build_labels_checkpointed(tree, str(tmp_path))
        assert len(level_files(str(tmp_path))) == len(depth_levels(tree))
        assert os.path.exists(tmp_path / "manifest.ckpt")

    def test_resume_from_every_level_is_byte_identical(
        self, tree, fresh_bytes, tmp_path
    ):
        num_levels = len(depth_levels(tree))
        for crash_level in range(num_levels):
            directory = str(tmp_path / f"crash{crash_level}")
            checkpoint = CheckpointStore(directory)
            build_labels_checkpointed(tree, checkpoint)
            # Simulate dying right after `crash_level` completed: later
            # checkpoints never made it to disk.
            for name in level_files(directory):
                if int(name[6:12]) > crash_level:
                    os.remove(os.path.join(directory, name))
            resumed = build_labels_checkpointed(
                tree, checkpoint, resume=True
            )
            assert packed(resumed) == fresh_bytes, (
                f"resume after level {crash_level} diverged"
            )

    def test_resume_on_empty_directory_builds_from_scratch(
        self, tree, fresh_bytes, tmp_path
    ):
        store = build_labels_checkpointed(
            tree, str(tmp_path / "empty"), resume=True
        )
        assert packed(store) == fresh_bytes

    def test_corrupt_level_checkpoint_is_recomputed(
        self, tree, fresh_bytes, tmp_path
    ):
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        files = level_files(directory)
        victim = os.path.join(directory, files[len(files) // 2])
        with open(victim, "r+b") as f:
            f.seek(40)
            f.write(b"\xff\xff\xff\xff")
        resumed = build_labels_checkpointed(tree, directory, resume=True)
        assert packed(resumed) == fresh_bytes

    def test_resumed_store_keeps_path_provenance(self, tree, tmp_path):
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        files = level_files(directory)
        os.remove(os.path.join(directory, files[-1]))
        resumed = build_labels_checkpointed(tree, directory, resume=True)
        # Entries restored from checkpoints (not just recomputed ones)
        # still carry provenance, so path retrieval works after resume.
        assert all(
            len(entry) > 2 and entry[2] is not None
            for _v, _u, entries in resumed.items()
            for entry in entries
        )

    def test_fingerprint_mismatch_rejects_stale_checkpoints(
        self, tree, tmp_path
    ):
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        other_tree = build_tree_decomposition(grid_network(6, 6, seed=8))
        with pytest.raises(IndexBuildError, match="different network"):
            build_labels_checkpointed(other_tree, directory, resume=True)

    @pytest.mark.parametrize("change", ["reweighted", "other-topology"])
    def test_unreadable_manifest_trusts_no_level_file(
        self, tmp_path, change
    ):
        # Level files carry no fingerprint; with the manifest unreadable
        # a resume must not restore them into another network's build.
        network = grid_network(6, 6, seed=1, diagonal_prob=0.1)
        directory = str(tmp_path)
        build_labels_checkpointed(
            build_tree_decomposition(network), directory
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
        resumed = build_labels_checkpointed(
            other_tree, directory, resume=True
        )
        assert packed(resumed) == packed(build_labels(other_tree))
        assert CheckpointStore(directory).read_manifest()[
            "fingerprint"
        ] == tree_fingerprint(other_tree, True)

    def test_checkpoint_of_old_entry_layout_is_not_resumed(
        self, tree, tmp_path
    ):
        # A directory as the nested-provenance layout left it: the same
        # manifest and fingerprint, level files under the old magic
        # holding ``(w, c, (tag, ...))`` entries.
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        manifest = CheckpointStore(directory).read_manifest()
        assert manifest["fingerprint"] == tree_fingerprint(tree, True)
        for level in range(len(depth_levels(tree))):
            path = os.path.join(directory, f"level-{level:06d}.ckpt")
            inner = load_envelope(path, CHECKPOINT_MAGIC)
            rows = [
                (v, [(u, [nested(e) for e in acc]) for u, acc in rows_v])
                for v, rows_v in inner["rows"]
            ]
            save_envelope(
                path, "repro-qhl-build-checkpoint",
                {"level": level, "rows": rows},
            )

        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = build_labels_checkpointed(tree, directory, resume=True)
        assert registry.counter(
            "build_resume_levels_restored_total"
        ).value == 0
        assert registry.counter(
            "build_checkpoint_levels_total"
        ).value == len(depth_levels(tree))
        clean = build_labels(tree)
        assert pack_labels(resumed) == pack_labels(clean)
        assert [c.tobytes() for c in pack_labels(
            resumed, provenance=True).provenance] == [
            c.tobytes() for c in pack_labels(clean, provenance=True)
            .provenance
        ]
        assert all(
            not isinstance(entry[2], tuple)
            for _v, _u, entries in resumed.items()
            for entry in entries
        )

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
        build_labels_checkpointed(tree, checkpoint)
        before = len(level_files(directory))
        # A fresh (resume=False) run against the same directory starts
        # over instead of trusting old files.
        other_tree = build_tree_decomposition(grid_network(5, 5, seed=1))
        build_labels_checkpointed(other_tree, checkpoint)
        assert len(level_files(directory)) == len(depth_levels(other_tree))
        assert len(level_files(directory)) < before

    def test_builder_facade_routes_to_checkpointed_path(
        self, tree, fresh_bytes, tmp_path
    ):
        store = build_labels(tree, checkpoint=str(tmp_path))
        assert packed(store) == fresh_bytes
        assert level_files(str(tmp_path))

    def test_budget_without_checkpoint_rejected(self, tree):
        with pytest.raises(IndexBuildError, match="checkpoint"):
            build_labels(tree, budget=BuildBudget(max_seconds=1))
        with pytest.raises(IndexBuildError, match="checkpoint"):
            build_labels(tree, resume=True)


class TestBuildBudget:
    def test_time_budget_checkpoints_then_raises(self, tree, tmp_path):
        ticks = iter(range(0, 1000, 10))  # each check sees +10s
        budget = BuildBudget(max_seconds=5, clock=lambda: next(ticks))
        with pytest.raises(BuildBudgetExceededError) as excinfo:
            build_labels_checkpointed(
                tree, str(tmp_path), budget=budget
            )
        assert excinfo.value.level == 0
        assert excinfo.value.elapsed_s == 10
        assert "--resume" in str(excinfo.value)

    def test_exhausted_build_resumes_to_identical_bytes(
        self, tree, fresh_bytes, tmp_path
    ):
        # Give the watchdog enough budget for a few levels, crash, then
        # finish with --resume semantics.
        clock = {"now": 0.0}

        def tick():
            clock["now"] += 1.0
            return clock["now"]

        directory = str(tmp_path)
        with pytest.raises(BuildBudgetExceededError) as excinfo:
            build_labels_checkpointed(
                tree, directory,
                budget=BuildBudget(max_seconds=3, clock=tick),
            )
        assert excinfo.value.level > 0  # some levels did complete
        resumed = build_labels_checkpointed(tree, directory, resume=True)
        assert packed(resumed) == fresh_bytes

    def test_memory_budget_raises(self, tree, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as checkpoint_mod

        monkeypatch.setattr(checkpoint_mod, "_rss_mb", lambda: 4096.0)
        with pytest.raises(BuildBudgetExceededError) as excinfo:
            build_labels_checkpointed(
                tree, str(tmp_path),
                budget=BuildBudget(max_rss_mb=1024),
            )
        assert excinfo.value.rss_mb == 4096.0

    def test_no_limits_never_raises(self, tree, tmp_path):
        build_labels_checkpointed(
            tree, str(tmp_path), budget=BuildBudget()
        )


class TestCheckpointMetrics:
    def test_restored_and_built_levels_are_counted(self, tree, tmp_path):
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        files = level_files(directory)
        for name in files[2:]:
            os.remove(os.path.join(directory, name))
        registry = MetricsRegistry()
        with use_registry(registry):
            build_labels_checkpointed(tree, directory, resume=True)
        restored = registry.counter("build_resume_levels_restored_total")
        built = registry.counter("build_checkpoint_levels_total")
        assert restored.value == 2
        assert built.value == len(files) - 2

    def test_label_work_matches_plain_build(self, tree, tmp_path):
        plain, checkpointed = MetricsRegistry(), MetricsRegistry()
        with use_registry(plain):
            build_labels(tree)
        with use_registry(checkpointed):
            build_labels_checkpointed(tree, str(tmp_path))
        for registry in (plain, checkpointed):
            assert registry.counter("qhl_label_joins_total").value == 966
            assert registry.get("qhl_label_vertex_seconds").count == 35

    @pytest.mark.parametrize("kept", [6, 10])
    def test_resume_reports_only_recomputed_label_work(
        self, tree, tmp_path, kept
    ):
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        for name in level_files(directory)[kept:]:
            os.remove(os.path.join(directory, name))
        recomputed = [
            v for level in depth_levels(tree)[kept:] for v in level
            if v != tree.root
        ]
        # One join per hub w of X(v)\{v} and ancestor u, except w == u.
        joins = sum(
            len(tree.bag[v]) - (u in tree.bag[v])
            for v in recomputed for u in tree.ancestors(v)
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            build_labels_checkpointed(tree, directory, resume=True)
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
        expected = packed(build_labels(tree))
        directory = str(tmp_path / f"s{seed}")
        build_labels_checkpointed(tree, directory)
        files = level_files(directory)
        for name in files[max(1, len(files) // 2):]:
            os.remove(os.path.join(directory, name))
        resumed = build_labels_checkpointed(tree, directory, resume=True)
        assert packed(resumed) == expected
