"""Cross-process trace propagation: trace ids, worker spools, stitching.

The PR-3 process-pool batch executor and the level-parallel label
builder fork worker processes whose spans and metric deltas used to
vanish — the system was observationally dark exactly where it is
parallel.  This module closes the hole with three pieces:

* :class:`TraceContext` — a trace id plus the name of the parent span a
  child's work should attach under.  :func:`new_trace_id` mints
  process-unique ids without wall-clock or global RNG, so builds stay
  deterministic.
* :class:`WorkerSpool` — a tmpdir-backed spool the parent creates and
  the (forked) workers write into.  Each worker announces itself with a
  ``start`` marker on first use, appends one JSON ``chunk`` record per
  unit of work (its span tree plus a metrics-registry snapshot), and a
  :class:`multiprocessing.util.Finalize` hook writes an ``end`` marker
  on clean shutdown (forked pool workers skip :mod:`atexit`).  A
  ``start`` marker without a matching ``end`` marker is exactly how the
  parent detects a worker that died without cleanup (SIGKILL, OOM).
* :func:`stitch` — run by the parent *after* the pool has shut down: it
  reads the spool, attaches every worker span under the parent's
  fan-out span, folds the metric deltas into the parent registry via
  :func:`~repro.observability.export.merge_records`, and synthesises
  ``worker.truncated`` / ``worker.idle`` spans for crashed and
  chunk-less workers so the trace is complete even when a worker is
  not.

All spool I/O is best-effort: observability must never take down the
data path, so write failures are swallowed and unreadable records are
skipped during collection.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import util as _mp_util
from typing import Iterator, NamedTuple

from repro.observability.export import (
    merge_records,
    snapshot,
    span_from_dict,
    span_to_dict,
)
from repro.observability.metrics import (
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.observability.tracing import (
    Span,
    SpanTracer,
    get_tracer,
    use_tracer,
)

_trace_ids = itertools.count(1)

#: (spool directory, pid) pairs that already wrote their start marker.
_announced: set[tuple[str, int]] = set()

#: Monotone suffix for chunk-record filenames within one process.
_chunk_seq = itertools.count(1)


#: Scratch-dir prefixes :func:`reap_stale_spools` is allowed to remove:
#: worker spools (this module) and supervisor heartbeat/result dirs
#: (:mod:`repro.supervise.supervisor`).
SPOOL_DIR_PREFIXES: tuple[str, ...] = (
    "qhl-spool-",
    "qhl-supervisor-",
)

#: Spool dirs untouched for this long are presumed orphaned.  Live
#: spools are written at least once per chunk (and supervisor dirs once
#: per heartbeat), so an hour of silence means the owning parent died
#: without running ``cleanup()``.
STALE_SPOOL_AGE_S = 3600.0


def reap_stale_spools(
    max_age_s: float = STALE_SPOOL_AGE_S,
    root: str | None = None,
) -> list[str]:
    """Remove orphaned spool dirs left behind by crashed parents.

    ``WorkerSpool.cleanup()`` only runs when the parent survives the
    fan-out; a parent killed mid-batch leaks its ``qhl-spool-*`` tmpdir
    (and a killed supervisor its ``qhl-supervisor-*`` dir) forever.
    Called on every spool/supervisor creation, this sweeps the temp
    root for dirs with a known prefix whose *newest* entry (or the dir
    itself, when empty) is older than ``max_age_s`` seconds.  Age is
    judged on the newest file so a long-running but live fan-out — which
    keeps writing chunk records — is never reaped.  Best-effort like
    all spool I/O: races and permission errors are swallowed.  Returns
    the paths removed (for tests and logs).
    """
    if root is None:
        root = tempfile.gettempdir()
    now = time.time()
    reaped: list[str] = []
    try:
        names = os.listdir(root)
    except OSError:
        return reaped
    for name in names:
        if not name.startswith(SPOOL_DIR_PREFIXES):
            continue
        path = os.path.join(root, name)
        try:
            newest = os.stat(path).st_mtime
            for entry in os.scandir(path):
                newest = max(newest, entry.stat().st_mtime)
        except OSError:
            continue
        if now - newest < max_age_s:
            continue
        shutil.rmtree(path, ignore_errors=True)
        if not os.path.exists(path):
            reaped.append(path)
    return reaped


def new_trace_id() -> str:
    """A process-unique trace id: originating pid + monotone counter.

    Deliberately avoids wall-clock and random sources so traced runs
    stay byte-reproducible; uniqueness across forks holds because the
    pid differs and within a process because the counter does.
    """
    return f"{os.getpid():08x}-{next(_trace_ids):06x}"


class TraceContext(NamedTuple):
    """Identifies one trace and the parent span children attach under."""

    trace_id: str
    parent_span: str = ""

    @classmethod
    def new(cls, parent_span: str = "") -> "TraceContext":
        return cls(new_trace_id(), parent_span)


class SpoolHarvest(NamedTuple):
    """Everything :meth:`WorkerSpool.collect` found on disk."""

    chunks: list[dict]
    started: set[int]
    ended: set[int]

    @property
    def chunk_pids(self) -> set[int]:
        return {int(chunk.get("pid", 0)) for chunk in self.chunks}

    @property
    def truncated(self) -> set[int]:
        """Workers that announced themselves but never exited cleanly."""
        return self.started - self.ended


@dataclass(frozen=True)
class WorkerSpool:
    """A per-fan-out spool directory shared by parent and workers.

    Frozen and plain-data so it survives pickling into pool
    initializers; per-process mutable state (announce dedup, chunk
    sequence numbers) lives at module level and is keyed by pid.
    """

    directory: str
    context: TraceContext
    want_spans: bool = True
    want_metrics: bool = True

    @classmethod
    def create(
        cls,
        context: TraceContext,
        want_spans: bool = True,
        want_metrics: bool = True,
        directory: str | None = None,
    ) -> "WorkerSpool":
        if directory is None:
            reap_stale_spools()
            directory = tempfile.mkdtemp(prefix="qhl-spool-")
        else:
            os.makedirs(directory, exist_ok=True)
        return cls(str(directory), context, want_spans, want_metrics)

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    # -- worker side ---------------------------------------------------
    def announce(self) -> None:
        """Write this process's start marker (idempotent per pid).

        Also registers the clean-shutdown ``end`` marker.  The hook is
        a :class:`multiprocessing.util.Finalize` rather than plain
        :mod:`atexit` because forked pool workers exit through
        ``os._exit`` (which skips atexit) but *do* run multiprocessing
        finalizers in ``Process._bootstrap``.  A worker killed with
        SIGKILL/SIGTERM runs neither — which is exactly how
        :func:`stitch` knows to mark its span truncated.
        """
        pid = os.getpid()
        key = (self.directory, pid)
        if key in _announced:
            return
        _announced.add(key)
        self._write(f"start-{pid:08d}.json", {"pid": pid})
        _mp_util.Finalize(None, self._farewell, args=(pid,),
                          exitpriority=10)

    def _farewell(self, pid: int) -> None:
        if os.getpid() != pid:
            return
        self._write(f"end-{pid:08d}.json", {"pid": pid})

    def _write(self, name: str, payload: dict) -> None:
        path = os.path.join(self.directory, name)
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)

    @contextlib.contextmanager
    def observe(self, label: str) -> Iterator[Span]:
        """Scoped worker-side observation for one chunk of work.

        Installs a fresh tracer and/or registry (per the spool's
        ``want_*`` flags), yields the chunk's root span, and flushes
        one spool record on exit — also on error, so partial
        observations survive a failing chunk.
        """
        self.announce()
        tracer = SpanTracer() if self.want_spans else None
        registry = MetricsRegistry() if self.want_metrics else None
        root = tracer.span(label) if tracer is not None else Span(label)
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(use_tracer(tracer))
                if registry is not None:
                    stack.enter_context(use_registry(registry))
                with root:
                    root.set("pid", os.getpid())
                    yield root
        finally:
            record = {
                "pid": os.getpid(),
                "seq": next(_chunk_seq),
                "trace_id": self.trace_id,
                "span": span_to_dict(root),
                "metrics": snapshot(registry)
                if registry is not None else [],
            }
            self._write(
                f"chunk-{record['pid']:08d}-{record['seq']:06d}.json",
                record,
            )

    # -- parent side ---------------------------------------------------
    def collect(self) -> SpoolHarvest:
        """Read every marker and chunk record currently on disk."""
        chunks: list[dict] = []
        started: set[int] = set()
        ended: set[int] = set()
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            pid = int(payload.get("pid", 0))
            if name.startswith("start-"):
                started.add(pid)
            elif name.startswith("end-"):
                ended.add(pid)
            elif name.startswith("chunk-"):
                chunks.append(payload)
        chunks.sort(
            key=lambda c: (int(c.get("pid", 0)), int(c.get("seq", 0)))
        )
        return SpoolHarvest(chunks, started, ended)

    def cleanup(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class StitchResult(NamedTuple):
    """What :func:`stitch` recovered from a spool."""

    trace_id: str
    chunks: int
    pids: set[int]
    truncated: set[int]
    metrics_merged: int


def _synthetic_span(name: str, pid: int) -> Span:
    span = Span(name)
    span.set("pid", pid)
    return span


def stitch(
    spool: WorkerSpool,
    parent: Span | None = None,
    tracer=None,
    registry=None,
) -> StitchResult:
    """Fold a spool back into the parent's trace tree and registry.

    Call *after* the pool shut down cleanly (``close()`` + ``join()``)
    or broke — worker end markers are written at interpreter exit, so
    stitching earlier would misreport live workers as truncated.  Never
    blocks: it only reads whatever is on disk.
    """
    if tracer is None:
        tracer = get_tracer()
    if registry is None:
        registry = get_registry()
    harvest = spool.collect()
    attach_to = None
    if parent is not None and isinstance(
        getattr(parent, "children", None), list
    ):
        attach_to = parent.children
    merged = 0
    for chunk in harvest.chunks:
        if attach_to is not None and chunk.get("span"):
            attach_to.append(span_from_dict(chunk["span"]))
        merged += merge_records(registry, chunk.get("metrics") or [])
    truncated = harvest.truncated
    if attach_to is not None:
        for pid in sorted(truncated):
            attach_to.append(_synthetic_span("worker.truncated", pid))
        for pid in sorted(harvest.ended - harvest.chunk_pids):
            attach_to.append(_synthetic_span("worker.idle", pid))
    pids = harvest.started | harvest.chunk_pids
    if registry.enabled:
        registry.counter(
            "qhl_trace_stitched_total",
            help="worker spool records stitched into parent traces",
        ).inc(len(harvest.chunks))
        if truncated:
            registry.counter(
                "qhl_trace_truncated_total",
                help="worker spans synthesised for crashed workers",
            ).inc(len(truncated))
        registry.gauge(
            "qhl_trace_workers",
            help="distinct worker pids in the last stitched trace",
        ).set(len(pids))
    return StitchResult(
        spool.trace_id, len(harvest.chunks), pids, truncated, merged
    )
