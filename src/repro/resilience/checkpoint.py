"""Checkpointed, resumable label construction.

The label build is the expensive phase QHL inherits from CSP-2Hop (the
paper's §5 preprocessing dominates end-to-end time on real road
networks).  Before this module, a killed multi-minute build restarted
from zero.  Now the builder persists one checkpoint per completed
tree-depth level — the natural unit, because level ``k`` depends only on
levels ``< k`` (:func:`repro.labeling.builder.depth_levels`) — through
the same atomic + SHA-256-checksummed envelope the index files use, so a
crash at *any* instant leaves a directory from which ``build --resume``
continues at the last completed level.

Equivalence guarantee: a resumed build produces a label store
*value-identical* to an uninterrupted one — identical ``(weight, cost)``
sequences for every pair and identical
:func:`repro.storage.compact.pack_labels` bytes, provenance columns
included — because restored levels are exact (pickled) copies of what
the fresh build would hold, relinked to the store's own entries as they
are merged (:func:`merge_level`), and every later level is computed by
the sequential builder's per-vertex kernel
(:func:`repro.labeling.builder.label_rows_for`).  The kill-and-resume
suite in ``tests/service/`` asserts the byte equality.

:class:`BuildBudget` is the watchdog: time/memory limits are checked at
level boundaries and, because the previous level is already checkpointed
when the check runs, an exhausted budget raises a typed
:class:`~repro.exceptions.BuildBudgetExceededError` ("checkpoint, then
raise") instead of the build dying opaquely under an OOM kill.
"""

from __future__ import annotations

import hashlib
import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from repro.exceptions import (
    BuildBudgetExceededError,
    IndexBuildError,
    SerializationError,
)
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.builder import depth_levels, label_rows_for
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.skyline.entries import ENTRY_LAYOUT, Entry
from repro.skyline.set_ops import SkylineSet
from repro.storage.serialize import load_envelope, save_envelope

#: Level files hold pickled skyline entries, so their magic names the
#: entry layout: a level written in another layout reads as unusable and
#: is recomputed, never merged into a store of the current layout.
CHECKPOINT_MAGIC = f"repro-qhl-build-checkpoint-e{ENTRY_LAYOUT}"
MANIFEST_MAGIC = "repro-qhl-build-manifest"
_MANIFEST = "manifest.ckpt"


def _rss_mb() -> float | None:
    """Peak RSS of this process in MiB (``None`` if unmeasurable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalise the plausible ranges.
    if usage > 1 << 32:  # pragma: no cover - macOS byte units
        return usage / (1 << 20)
    return usage / 1024.0


@dataclass
class BuildBudget:
    """Time/memory watchdog for the checkpointed build.

    Checked at every level boundary; an exhausted budget raises
    :class:`~repro.exceptions.BuildBudgetExceededError` *after* the last
    completed level was persisted, so nothing is lost.  ``clock`` is
    injectable for deterministic tests.
    """

    max_seconds: float | None = None
    max_rss_mb: float | None = None
    clock: Callable[[], float] = time.monotonic
    _started: float | None = field(default=None, repr=False)

    def start(self) -> "BuildBudget":
        self._started = self.clock()
        return self

    def check(self, level: int) -> None:
        """Raise if either budget is exhausted (call at level boundaries)."""
        if self._started is None:
            self.start()
        elapsed = self.clock() - self._started
        if self.max_seconds is not None and elapsed > self.max_seconds:
            raise BuildBudgetExceededError(
                f"label build exceeded its time budget "
                f"({elapsed:.1f}s > {self.max_seconds:.1f}s) at level "
                f"{level}; completed levels are checkpointed — rerun "
                "with --resume to continue",
                level=level, elapsed_s=elapsed,
            )
        if self.max_rss_mb is not None:
            rss = _rss_mb()
            if rss is not None and rss > self.max_rss_mb:
                raise BuildBudgetExceededError(
                    f"label build exceeded its memory budget "
                    f"({rss:.0f} MiB > {self.max_rss_mb:.0f} MiB) at "
                    f"level {level}; completed levels are checkpointed "
                    "— rerun with --resume to continue",
                    level=level, elapsed_s=elapsed, rss_mb=rss,
                )


def tree_fingerprint(
    tree: TreeDecomposition,
    store_paths: bool,
) -> str:
    """SHA-256 over everything the label build depends on.

    Covers the elimination order, bags, every shortcut's ``(w, c)``
    sequence, and the build parameters — so checkpoints written for one
    (network, strategy, flags) combination can never silently seed a
    build for another.
    """
    h = hashlib.sha256()
    # "None" fills a retired build-parameter slot: checkpoints written
    # before it was removed keep the same fingerprint and stay resumable.
    h.update(f"v1|{tree.num_vertices}|{store_paths}|None|".encode())
    h.update(",".join(map(str, tree.order)).encode())
    for v in range(tree.num_vertices):
        h.update(f"|b{v}:".encode())
        h.update(",".join(map(str, tree.bag[v])).encode())
        shortcuts_v = tree.shortcuts.get(v, {})
        for w in tree.bag[v]:
            h.update(f"|s{w}:".encode())
            for entry in shortcuts_v.get(w, ()):
                h.update(f"{entry[0]!r},{entry[1]!r};".encode())
    return h.hexdigest()


class CheckpointStore:
    """A directory of per-level build checkpoints.

    Layout: ``manifest.ckpt`` (fingerprint + level count) plus one
    ``level-NNNNNN.ckpt`` per completed level, every file written
    through :func:`repro.storage.serialize.save_envelope` (atomic,
    checksummed).  A torn or corrupt level file simply truncates the
    resumable prefix — it is recomputed, never trusted.
    """

    def __init__(self, directory: str):
        self.directory = directory

    # ------------------------------------------------------------------
    def _level_path(self, level: int) -> str:
        return os.path.join(self.directory, f"level-{level:06d}.ckpt")

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    # ------------------------------------------------------------------
    def write_manifest(self, fingerprint: str, num_levels: int) -> None:
        save_envelope(
            self._manifest_path(),
            MANIFEST_MAGIC,
            {"fingerprint": fingerprint, "num_levels": num_levels},
        )

    def read_manifest(self) -> dict | None:
        """The manifest dict, or ``None`` when missing/unreadable."""
        try:
            return load_envelope(self._manifest_path(), MANIFEST_MAGIC)
        except SerializationError:
            return None

    def write_level(self, level: int, rows) -> None:
        save_envelope(
            self._level_path(level),
            CHECKPOINT_MAGIC,
            {"level": level, "rows": rows},
        )

    def read_level(self, level: int):
        """The persisted rows of one level, or ``None`` if unusable."""
        try:
            inner = load_envelope(self._level_path(level), CHECKPOINT_MAGIC)
        except SerializationError:
            return None
        if inner.get("level") != level:
            return None
        return inner.get("rows")

    def clear(self) -> None:
        """Delete every checkpoint file (after a successful build)."""
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.endswith(".ckpt"):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - best effort
                    pass


def merge_level(
    tree: TreeDecomposition,
    store: LabelStore,
    rows_by_vertex: list[tuple[int, list[tuple[int, SkylineSet]]]],
) -> None:
    """Store one restored level's label rows, relinking copied provenance.

    Rows restored from a checkpoint are pickled copies: their children
    are copies of the store's shortcut and label entries.  Each row of
    ``P(v, u)`` is relinked to the store's own objects, matched by
    ``(weight, cost)``, which is unique within a skyline set:

    * a label join at hub ``w`` gets the entry of ``S(v, w)`` as its
      left child and the entry of ``P(w, u)`` as its right child;
    * an entry copied from ``S(v, u)`` becomes that shortcut's entry.

    So a resumed build shares objects exactly as a fresh one does and
    packs to the same provenance rows instead of a pool of copies.
    """
    for v, rows in rows_by_vertex:
        shortcuts_v = tree.shortcuts[v]
        for u, acc in rows:
            if store.store_paths:
                acc = [
                    _relinked(entry, u, shortcuts_v, store)
                    for entry in acc
                ]
            store.set(v, u, acc)


def _relinked(
    entry: Entry, u: int, shortcuts_v: dict[int, SkylineSet],
    store: LabelStore,
) -> Entry:
    """``entry`` of ``P(v, u)`` over the store's own objects."""
    w = entry[2]
    if w is None:
        return entry
    # An edge tag is no hub of v, so an edge entry takes this branch too.
    if w == u or w not in shortcuts_v:
        return _same(shortcuts_v[u], entry)  # copied from S(v, u)
    left, right = entry[3], entry[4]
    own_left = _same(shortcuts_v[w], left)
    own_right = _same(store.get(w, u), right)
    if own_left is left and own_right is right:
        return entry
    return (entry[0], entry[1], w, own_left, own_right)


def _same(entries: SkylineSet, entry: Entry) -> Entry:
    """The member of ``entries`` with ``entry``'s ``(weight, cost)``, or
    ``entry`` itself when there is none."""
    i = bisect_left(entries, entry[1], key=itemgetter(1))
    if i < len(entries) and entries[i][:2] == entry[:2]:
        return entries[i]
    return entry


def build_labels_checkpointed(
    tree: TreeDecomposition,
    checkpoint: CheckpointStore | str,
    store_paths: bool = True,
    resume: bool = False,
    budget: BuildBudget | None = None,
) -> LabelStore:
    """:func:`repro.labeling.builder.build_labels` with per-level
    checkpoints.

    ``resume=True`` restores every consecutive completed level found in
    ``checkpoint`` (fingerprint-validated) and continues from there; a
    directory without a readable manifest cannot be validated, so it
    is cleared like one with ``resume=False``, which starts fresh.  The
    result is value-identical to an uninterrupted build — identical
    ``pack_labels`` bytes, provenance included — for any interruption
    point.

    Raises
    ------
    IndexBuildError
        When resuming against checkpoints built for a different
        network / strategy / flags combination.
    BuildBudgetExceededError
        When ``budget`` runs out; the last completed level is already
        persisted, so a subsequent ``resume=True`` continues there.
    """
    from repro.service.faults import get_injector

    if isinstance(checkpoint, str):
        checkpoint = CheckpointStore(checkpoint)
    os.makedirs(checkpoint.directory, exist_ok=True)

    started = time.perf_counter()
    fingerprint = tree_fingerprint(tree, store_paths)
    levels = depth_levels(tree)

    completed = 0
    manifest = checkpoint.read_manifest() if resume else None
    if manifest is None:
        # Level files carry no fingerprint: without a valid manifest
        # none of them can be trusted, so none may be restored.
        checkpoint.clear()
        checkpoint.write_manifest(fingerprint, len(levels))
    elif manifest.get("fingerprint") != fingerprint:
        raise IndexBuildError(
            f"checkpoints in {checkpoint.directory!r} were "
            "written for a different network/strategy/flags "
            "combination; delete the directory or drop --resume"
        )

    store = LabelStore(tree.num_vertices, store_paths=store_paths)
    registry = get_registry()
    observed = registry.enabled
    vertex_seconds = registry.histogram(
        "qhl_label_vertex_seconds",
        help="per-vertex label construction time",
    )
    injector = get_injector()
    restored_vertices = 0
    joins = 0

    with get_tracer().span("labels.checkpointed-sweep") as span:
        if manifest is not None:
            # Restore the longest consecutive prefix of usable levels.
            while completed < len(levels):
                rows_by_vertex = checkpoint.read_level(completed)
                if rows_by_vertex is None:
                    break
                merge_level(tree, store, rows_by_vertex)
                restored_vertices += len(rows_by_vertex)
                completed += 1

        if budget is not None:
            budget.start()
        for k in range(completed, len(levels)):
            if budget is not None:
                budget.check(k)
            rows_by_vertex = []
            for v in levels[k]:
                if v == tree.root:
                    continue
                vertex_started = time.perf_counter() if observed else 0.0
                rows, vertex_joins = label_rows_for(tree, store, v)
                joins += vertex_joins
                for u, acc in rows:
                    store.set(v, u, acc)
                if observed:
                    vertex_seconds.observe(
                        time.perf_counter() - vertex_started
                    )
                rows_by_vertex.append((v, rows))
            if injector.enabled:
                injector.fire("build-level", level=k, stage="computed")
            checkpoint.write_level(k, rows_by_vertex)
            if injector.enabled:
                injector.fire("build-level", level=k, stage="checkpointed")

        span.set("vertices", tree.num_vertices)
        span.set("levels", len(levels))
        span.set("resumed_levels", completed)
        span.set("restored_vertices", restored_vertices)
        span.set("joins", joins)

    store.build_seconds = time.perf_counter() - started
    if observed:
        registry.gauge("qhl_label_build_seconds").set(store.build_seconds)
        registry.counter("qhl_label_joins_total").inc(joins)
        registry.counter(
            "build_checkpoint_levels_total",
            help="label-build levels persisted as checkpoints",
        ).inc(len(levels) - completed)
        registry.counter(
            "build_resume_levels_restored_total",
            help="label-build levels restored from checkpoints",
        ).inc(completed)
        registry.gauge(
            "build_resume_restored_vertices",
            help="vertices whose labels came from checkpoints "
            "in the last build",
        ).set(restored_vertices)
    return store
