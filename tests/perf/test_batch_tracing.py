"""Cross-process tracing through the batch executor.

One ``query_many`` batch through the supervised pool yields ONE trace
whose worker spans — shipped home in the supervisor's result files —
come from at least two distinct worker pids, with worker-side cache
metrics folded into the parent registry; a chunk that raises still
shows its span; and a poison query that SIGKILLs every worker running
it costs only itself, while each dead worker's span is marked truncated
and joined to its successor.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time

import pytest

from repro.exceptions import TaskQuarantinedError, WorkerCrashError
from repro.observability.flight import FlightRecorder, use_flight_recorder
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.observability.tracing import SpanTracer, use_tracer
from repro.perf.batch import execute_batch
from repro.supervise import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

QUERIES = [
    (s, t, budget)
    for s, t in ((0, 5), (2, 9), (7, 3), (1, 11), (4, 8), (6, 10))
    for budget in (9.0, 14.0, 21.0, 30.0)
]


def span_pids(span) -> set[int]:
    """Every pid recorded anywhere in a span tree."""
    pids = set()
    if "pid" in span.counters:
        pids.add(int(span.counters["pid"]))
    for child in span.children:
        pids |= span_pids(child)
    return pids


class TestStitchedBatchTrace:
    def test_pool_batch_produces_one_stitched_trace(self, paper_index):
        engine = paper_index.cached_engine(cache_size=8)
        tracer = SpanTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            report = execute_batch(engine, QUERIES, workers=2)

        assert report.trace_id is not None
        assert report.answered == len(QUERIES)
        root = tracer.last()
        assert root.name == "batch.fan-out"
        # Every spawned worker shows in the tree — as worker-chunk
        # spans, or a worker.idle span if it got no chunk — so it holds
        # >= 2 distinct pids, none of them this process.
        worker_pids = span_pids(root) - {os.getpid()}
        assert len(worker_pids) >= 2
        chunk_spans = [
            c for c in root.children if c.name == "batch.worker-chunk"
        ]
        assert chunk_spans, "no worker chunk spans came home"
        # Worker-side cache metrics reached the parent registry.
        assert registry.counter("qhl_cache_misses_total").value > 0

    def test_raising_chunk_keeps_its_span(self, paper_index):
        # A non-ReproError escapes the chunk body: the chunk becomes
        # failure rows, and its span still hangs under the fan-out.
        engine = RaisingEngine(paper_index.qhl_engine(), sentinel=(11, 12))
        queries = [(0, 5, 9.0), (1, 4, 9.0), (2, 9, 14.0), (11, 12, 9.0)]
        tracer = SpanTracer()
        with use_tracer(tracer):
            report = execute_batch(engine, queries, workers=2)
        failed = {f.index for f in report.failures}
        assert 3 in failed
        assert {f.error for f in report.failures} == {"RuntimeError"}
        root = tracer.last()
        chunk_spans = [
            c for c in root.children if c.name == "batch.worker-chunk"
        ]
        assert len(chunk_spans) == 2
        raised = [c for c in chunk_spans if "queries" not in c.counters]
        assert len(raised) == 1
        assert int(raised[0].counters["pid"]) != os.getpid()

    def test_traced_fan_out_leaves_no_scratch_dir(
        self, paper_index, tmp_path, monkeypatch
    ):
        # Traced and untraced fan-outs share one transport: the only
        # directory a traced batch creates is the supervisor's own, and
        # it is gone when the batch returns.
        root = tmp_path / "tmp"
        root.mkdir()
        listings = tmp_path / "listings"
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        engine = ListingEngine(
            paper_index.qhl_engine(), str(root), str(listings)
        )
        with use_tracer(SpanTracer()), use_registry(MetricsRegistry()):
            report = execute_batch(engine, QUERIES, workers=2)
        assert report.answered == len(QUERIES)
        seen = set(listings.read_text().split())
        assert seen
        assert all(name.startswith("qhl-supervisor-") for name in seen)
        assert os.listdir(root) == []

    def test_sequential_batch_still_carries_a_trace_id(self, paper_index):
        engine = paper_index.qhl_engine()
        report = execute_batch(engine, QUERIES[:4], workers=0)
        assert report.trace_id is not None

    def test_caller_trace_id_is_preserved(self, paper_index):
        engine = paper_index.qhl_engine()
        report = execute_batch(
            engine, QUERIES[:4], trace_id="caller-0001"
        )
        assert report.trace_id == "caller-0001"

    def test_failure_rows_join_trace_and_flight(self, paper_index):
        engine = paper_index.qhl_engine()
        recorder = FlightRecorder()
        with use_flight_recorder(recorder):
            report = execute_batch(
                engine, [(0, 5, 9.0), (0, 999, 9.0)]
            )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.trace_id == report.trace_id
        assert failure.flight_seq is not None
        entry = recorder.records()[failure.flight_seq - 1]
        assert entry.trace_id == report.trace_id
        assert entry.outcome == failure.error


class RaisingEngine:
    """Wraps a real engine; raises a non-``ReproError`` on a sentinel."""

    name = "raising"

    def __init__(self, inner, sentinel: tuple[int, int]):
        self.inner = inner
        self.sentinel = sentinel

    def query(self, s, t, c, want_path=False, deadline=None):
        if (s, t) == self.sentinel:
            raise RuntimeError("sentinel pair")
        return self.inner.query(
            s, t, c, want_path=want_path, deadline=deadline
        )


class ListingEngine:
    """Wraps a real engine; logs the temp root's entries per query."""

    name = "listing"

    def __init__(self, inner, root: str, log: str):
        self.inner = inner
        self.root = root
        self.log = log

    def query(self, s, t, c, want_path=False, deadline=None):
        with open(self.log, "a") as handle:
            handle.write(" ".join(os.listdir(self.root)) + "\n")
        return self.inner.query(
            s, t, c, want_path=want_path, deadline=deadline
        )


class KillSwitchEngine:
    """Wraps a real engine; SIGKILLs its own process on one sentinel.

    Every worker that runs the sentinel pair dies, so it is a poison
    query: the pool retries it on respawned workers, then quarantines
    it.  The pre-kill sleep lets the sibling worker finish its chunk
    first.
    """

    name = "killswitch"

    def __init__(self, inner, sentinel: tuple[int, int], delay: float):
        self.inner = inner
        self.sentinel = sentinel
        self.delay = delay

    def query(self, s, t, c, want_path=False, deadline=None):
        if (s, t) == self.sentinel:
            time.sleep(self.delay)
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.query(
            s, t, c, want_path=want_path, deadline=deadline
        )


class TestWorkerDeath:
    def test_sigkilled_worker_costs_only_its_chunk(self, paper_index):
        # The sentinel pair sorts last, so it lands in the second
        # chunk.  Its worker dies; the chunk is split into singletons
        # and retried on respawned workers, so the death costs only the
        # sentinel query itself.
        sentinel = (11, 12)
        queries = [(0, 5, 9.0), (1, 4, 9.0), (2, 9, 14.0)] + [
            (11, 12, 9.0)
        ]
        engine = KillSwitchEngine(
            paper_index.qhl_engine(), sentinel, delay=0.1
        )
        tracer = SpanTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            report = execute_batch(engine, queries, workers=2)

        # Only the sentinel failed, quarantined as a worker crash and
        # joined to the batch trace; every other query answered, as it
        # does sequentially.
        assert [f.index for f in report.failures] == [3]
        failure = report.failures[0]
        assert failure.error == "TaskQuarantinedError"
        assert issubclass(TaskQuarantinedError, WorkerCrashError)
        assert failure.trace_id == report.trace_id
        baseline = paper_index.qhl_engine()
        assert [
            r.pair() for r in report.results[:3]
        ] == [baseline.query(s, t, c).pair() for s, t, c in queries[:3]]
        assert report.results[3] is None

        # The trace is complete even though a worker is not: each dead
        # worker's span is synthesised as truncated, and the pool's
        # respawns are joined to it.
        root = tracer.last()
        assert root.name == "batch.fan-out"
        truncated = [
            c for c in root.children if c.name == "worker.truncated"
        ]
        assert truncated
        assert any("respawned_as" in c.counters for c in truncated)
        assert sum(
            metric.value
            for metric in registry.metrics()
            if metric.name == "supervisor_deaths_total"
        ) >= 1
        # The killed pids are not this process.
        assert all(
            int(c.counters["pid"]) != os.getpid() for c in truncated
        )
