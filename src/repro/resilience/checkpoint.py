"""Checkpointed, resumable label construction.

The label build is the expensive phase QHL inherits from CSP-2Hop (the
paper's §5 preprocessing dominates end-to-end time on real road
networks).  A checkpointed build (:func:`repro.labeling.builder.build_label_columns`
with a ``checkpoint``) runs the top-down sweep in *segments*,
consecutive runs of ``tree.topdown_order`` (:func:`segment_bounds`),
and saves each one's labels through the atomic, checksummed envelope,
so after a crash at *any* instant ``build --resume`` continues after
the last saved segment.

A segment file holds plain arrays: per vertex its hubs and set sizes,
and per entry of ``P(v, u)`` a label join at hub ``w`` as ``(w, cost of
its left child in S(v, w), cost of its right child in P(w, u))`` or an
entry copied from ``S(v, u)`` as ``(-1, its own cost, 0)``; without
paths, each entry's ``(w, c)``.  Costs are unique within a canonical
skyline set, so each child is found among the live objects by cost.

Equivalence guarantee: a resume replays the sweep from the root,
rebuilding each saved label over the shortcuts and the chain's labels —
a copy as the very shortcut entry, a join as a new tuple of the very
children — and computing the rest with :func:`repro.labeling.builder.
label_rows_for`.  The column writer sees the object graph of an
uninterrupted build, so the columns, provenance included, are
byte-identical (``tests/service/test_kill_resume.py``).

:class:`BuildBudget` is the watchdog: time/memory limits are checked at
segment boundaries and, because the previous segment is already saved
when the check runs, an exhausted budget raises a typed
:class:`~repro.exceptions.BuildBudgetExceededError` ("checkpoint, then
raise") instead of the build dying opaquely under an OOM kill.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter
from typing import Callable

from repro.exceptions import (
    BuildBudgetExceededError,
    IndexBuildError,
    SerializationError,
)
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.builder import label_rows_for
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.service.faults import get_injector
from repro.skyline.set_ops import SkylineSet
from repro.storage.serialize import load_envelope, save_envelope

SEGMENT_MAGIC = "repro-qhl-build-segment"
#: A directory written with depth levels as the checkpoint unit has a
#: manifest under another magic, so it reads as having none: it is
#: cleared and rebuilt, never resumed.
MANIFEST_MAGIC = "repro-qhl-build-manifest-segments"
_MANIFEST = "manifest.ckpt"

_COST = itemgetter(1)


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

    Checked at every computed segment's start, the first check
    starting the clock; an exhausted budget raises
    :class:`~repro.exceptions.BuildBudgetExceededError` *after* the last
    completed segment was saved, so nothing is lost.  ``clock`` is
    injectable for deterministic tests.
    """

    max_seconds: float | None = None
    max_rss_mb: float | None = None
    clock: Callable[[], float] = time.monotonic
    _started: float | None = field(default=None, repr=False)

    def check(self, segment: int) -> None:
        """Raise if either budget is exhausted (call at segment
        boundaries)."""
        if self._started is None:
            self._started = self.clock()
        elapsed = self.clock() - self._started
        if self.max_seconds is not None and elapsed > self.max_seconds:
            raise BuildBudgetExceededError(
                f"label build exceeded its time budget "
                f"({elapsed:.1f}s > {self.max_seconds:.1f}s) at segment "
                f"{segment}; completed segments are checkpointed — rerun "
                "with --resume to continue",
                segment=segment, elapsed_s=elapsed,
            )
        if self.max_rss_mb is not None:
            rss = _rss_mb()
            if rss is not None and rss > self.max_rss_mb:
                raise BuildBudgetExceededError(
                    f"label build exceeded its memory budget "
                    f"({rss:.0f} MiB > {self.max_rss_mb:.0f} MiB) at "
                    f"segment {segment}; completed segments are "
                    "checkpointed — rerun with --resume to continue",
                    segment=segment, elapsed_s=elapsed, rss_mb=rss,
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
        parts = [f"|b{v}:", ",".join(map(str, tree.bag[v]))]
        shortcuts_v = tree.shortcuts.get(v, {})
        for w in tree.bag[v]:
            parts.append(f"|s{w}:")
            parts.extend(
                f"{entry[0]!r},{entry[1]!r};"
                for entry in shortcuts_v.get(w, ())
            )
        h.update("".join(parts).encode())
    return h.hexdigest()


def segment_bounds(tree: TreeDecomposition) -> list[int]:
    """Where each checkpoint segment starts in ``tree.topdown_order``,
    then where the last one ends.

    ``⌈√n⌉`` segments of ``⌊n / ⌈√n⌉⌋`` or one more vertices, none
    empty.  Each segment costs a file with two fsyncs, and a crash
    loses at most one segment of work, so the square root balances
    the two: 26–27 files at benchmark scale, against 44–98 tree levels.
    """
    n = tree.num_vertices
    count = math.isqrt(n - 1) + 1
    return [k * n // count for k in range(count + 1)]


class CheckpointStore:
    """A directory of label-build checkpoint segments.

    Layout: ``manifest.ckpt`` (fingerprint + segment count) plus one
    ``segment-NNNNNN.ckpt`` per completed segment, every file written
    through :func:`repro.storage.serialize.save_envelope` (atomic,
    checksummed).  A torn or corrupt segment file simply truncates the
    resumable prefix — it is recomputed, never trusted.
    """

    def __init__(self, directory: str):
        self.directory = directory

    # ------------------------------------------------------------------
    def _segment_path(self, segment: int) -> str:
        return os.path.join(self.directory, f"segment-{segment:06d}.ckpt")

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    # ------------------------------------------------------------------
    def write_manifest(self, fingerprint: str, num_segments: int) -> None:
        save_envelope(
            self._manifest_path(),
            MANIFEST_MAGIC,
            {"fingerprint": fingerprint, "num_segments": num_segments},
        )

    def read_manifest(self) -> dict | None:
        """The manifest dict, or ``None`` when missing/unreadable."""
        try:
            return load_envelope(self._manifest_path(), MANIFEST_MAGIC)
        except SerializationError:
            return None

    def write_segment(self, segment: int, columns: dict) -> int:
        """Save one segment's arrays; returns the file size in bytes."""
        return save_envelope(
            self._segment_path(segment),
            SEGMENT_MAGIC,
            {"segment": segment, **columns},
        )

    def read_segment(self, segment: int) -> dict | None:
        """The saved arrays of one segment, or ``None`` if unusable."""
        try:
            inner = load_envelope(self._segment_path(segment), SEGMENT_MAGIC)
        except SerializationError:
            return None
        if inner.pop("segment", None) != segment:
            return None
        return inner

    def clear(self) -> None:
        """Delete every checkpoint file (after a successful build)."""
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.endswith(".ckpt"):
                with contextlib.suppress(OSError):  # best effort
                    os.remove(os.path.join(self.directory, name))


def _arrays(paths: bool) -> dict[str, array]:
    """The empty arrays of a segment file (see the module docstring);
    ``sets`` holds the number of hubs of each vertex."""
    codes = {"sets": "q", "hubs": "q", "sizes": "q"}
    if paths:
        codes.update(mids="q", left="d", right="d")
    else:
        codes.update(weights="d", costs="d")
    return {key: array(code) for key, code in codes.items()}


class SegmentedSweep:
    """The segments of one checkpointed label sweep.

    :func:`repro.labeling.builder.build_label_columns` makes one when
    given a checkpoint, and its sweep calls :meth:`begin` and
    :meth:`end` around each segment, ``bounds`` apart.  ``resume=True``
    restores every consecutive saved segment found in ``checkpoint``
    (fingerprint-validated) and computes from the first one missing; a
    directory without a readable manifest cannot be validated, so it is
    cleared like one with ``resume=False``, which starts fresh.
    Resuming against checkpoints of another network, strategy or flags
    raises :class:`~repro.exceptions.IndexBuildError`; :meth:`begin`
    raises :class:`~repro.exceptions.BuildBudgetExceededError` when
    ``budget`` runs out, with every earlier segment saved.
    """

    def __init__(
        self,
        tree: TreeDecomposition,
        checkpoint: CheckpointStore | str,
        store_paths: bool,
        resume: bool = False,
        budget: BuildBudget | None = None,
    ) -> None:
        if isinstance(checkpoint, str):
            checkpoint = CheckpointStore(checkpoint)
        os.makedirs(checkpoint.directory, exist_ok=True)
        self.tree = tree
        self.checkpoint = checkpoint
        self.paths = store_paths
        self.budget = budget
        self.bounds = segment_bounds(tree)
        fingerprint = tree_fingerprint(tree, store_paths)
        manifest = checkpoint.read_manifest() if resume else None
        if manifest is None:
            # Segment files carry no fingerprint: without a valid
            # manifest none of them can be trusted, so none may be
            # restored.
            checkpoint.clear()
            checkpoint.write_manifest(fingerprint, len(self.bounds) - 1)
        elif manifest.get("fingerprint") != fingerprint:
            raise IndexBuildError(
                f"checkpoints in {checkpoint.directory!r} were "
                "written for a different network/strategy/flags "
                "combination; delete the directory or drop --resume"
            )
        self._restoring = manifest is not None
        #: The arrays of the segment being swept, and where the next
        #: restored label starts in them (vertex, hub, entry).
        self.columns = _arrays(store_paths)
        self._at = [0, 0, 0]
        self.restored = self.computed = self.restored_vertices = 0

    def begin(self, k: int) -> tuple[Callable, Callable | None]:
        """The per-vertex kernel of segment ``k``, and the sink for each
        ``(v, rows)`` it gives.  While every earlier segment was
        restored and this one's file is usable, the kernel reads that
        file and there is no sink; otherwise it is
        :func:`~repro.labeling.builder.label_rows_for`, and the sink
        appends to the segment's arrays."""
        first, end = self.bounds[k], self.bounds[k + 1]
        self._at = [0, 0, 0]
        if self._restoring:
            # The checksum and the manifest's fingerprint vouch for a
            # file in this build's layout, with a label for each vertex
            # but the root, which starts the order.
            columns = self.checkpoint.read_segment(k)
            if columns is not None and columns.keys() == _arrays(
                self.paths
            ).keys() and len(columns["sets"]) == end - first - (k == 0):
                self.columns = columns
                self.restored += 1
                self.restored_vertices += len(columns["sets"])
                return self._restored_rows, None
            self._restoring = False
        if self.budget is not None:
            self.budget.check(k)
        self.columns = _arrays(self.paths)
        return label_rows_for, self._save

    def end(self, k: int) -> None:
        """Segment ``k`` is swept: save it, unless it was restored."""
        if self._restoring:
            return
        injector = get_injector()
        if injector.enabled:
            injector.fire("build-segment", segment=k, stage="computed")
        self.checkpoint.write_segment(k, self.columns)
        self.computed += 1
        if injector.enabled:
            injector.fire("build-segment", segment=k, stage="checkpointed")

    def _save(self, v: int, rows: list[tuple[int, SkylineSet]]) -> None:
        """Append ``v``'s computed label, its rows sorted by hub."""
        columns = self.columns
        columns["sets"].append(len(rows))
        columns["hubs"].fromlist([u for u, _acc in rows])
        columns["sizes"].fromlist([len(acc) for _u, acc in rows])
        entries = [entry for _u, acc in rows for entry in acc]
        if not self.paths:
            columns["weights"].fromlist([entry[0] for entry in entries])
            columns["costs"].fromlist([entry[1] for entry in entries])
            return
        # A label join's junction is a hub of v; an entry copied from
        # S(v, u) has an edge tag or a junction eliminated before v.
        hubs = set(self.tree.bag[v])
        mids = [e[2] if e[2] in hubs else -1 for e in entries]
        columns["mids"].fromlist(mids)
        columns["left"].fromlist(
            [e[1] if w < 0 else e[3][1] for e, w in zip(entries, mids)]
        )
        columns["right"].fromlist(
            [0 if w < 0 else e[4][1] for e, w in zip(entries, mids)]
        )

    def _restored_rows(
        self, tree: TreeDecomposition, store: LabelStore, v: int
    ) -> tuple[list[tuple[int, SkylineSet]], int]:
        """:func:`~repro.labeling.builder.label_rows_for` from the
        restored segment: ``v``'s saved label over the live objects,
        its rows sorted by hub, and no joins."""
        columns, at = self.columns, self._at
        count = columns["sets"][at[0]]
        lo, start = at[1], at[2]
        hubs = columns["hubs"][lo:lo + count].tolist()
        sizes = columns["sizes"][lo:lo + count].tolist()
        stop = start + sum(sizes)
        self._at = [at[0] + 1, lo + count, stop]
        if not self.paths:
            saved = zip(
                columns["weights"][start:stop].tolist(),
                columns["costs"][start:stop].tolist(),
                repeat(None),
            )
            return [(u, list(islice(saved, size)))
                    for u, size in zip(hubs, sizes)], 0
        saved = zip(
            columns["mids"][start:stop].tolist(),
            columns["left"][start:stop].tolist(),
            columns["right"][start:stop].tolist(),
        )
        # Each shortcut set of v by cost: a head of every set of L(v).
        heads = {
            w: {entry[1]: entry for entry in entries}
            for w, entries in tree.shortcuts[v].items()
        }
        depth, label = tree.depth, store.label
        rows: list[tuple[int, SkylineSet]] = []
        for u, size in zip(hubs, sizes):
            depth_u, label_u = depth[u], label(u)
            acc = []
            for w, a, b in islice(saved, size):
                if w < 0:
                    acc.append(heads[u][a])
                    continue
                head = heads[w][a]
                depth_w = depth[w]
                tails = (
                    label(w)[depth_u] if depth_w > depth_u
                    else label_u[depth_w]
                )
                tail = tails[bisect_left(tails, b, key=_COST)]
                acc.append(
                    (head[0] + tail[0], head[1] + tail[1], w, head, tail)
                )
            rows.append((u, acc))
        return rows, 0

    def report(self, span) -> None:
        """Record the finished sweep's segments on ``span`` and in the
        metrics registry."""
        span.set("segments", len(self.bounds) - 1)
        span.set("restored_segments", self.restored)
        span.set("restored_vertices", self.restored_vertices)
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "build_checkpoint_segments_total",
            help="label-build segments persisted as checkpoints",
        ).inc(self.computed)
        registry.counter(
            "build_resume_segments_restored_total",
            help="label-build segments restored from checkpoints",
        ).inc(self.restored)
        registry.gauge(
            "build_resume_restored_vertices",
            help="vertices whose labels came from checkpoints "
            "in the last build",
        ).set(self.restored_vertices)
