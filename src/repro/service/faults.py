"""Deterministic fault injection for chaos testing.

The harness mirrors the observability module's activation pattern: a
process-wide injector that defaults to an inert null object, swapped in
scoped via :func:`use_injector`.  Production code pays one attribute
check (``injector.enabled``) on the cold paths that fire points; the
hot query loops are untouched — per-engine faults are injected at the
service boundary, and label-fetch faults through the
:class:`FaultyLabelStore` wrapper.

Injection points (:data:`INJECTION_POINTS`):

``index-load``
    Fired by :func:`repro.storage.serialize.load_index_with_retry` at
    the start of every attempt — inject transient ``OSError`` to
    exercise the retry/backoff path.
``save-index``
    Fired by the atomic writer at each write stage (``ctx["stage"]`` is
    ``"write"`` / ``"fsync"`` / ``"replace"``) — inject to prove a
    crash at any stage never corrupts the destination file.
``label-fetch``
    Fired by :class:`FaultyLabelStore` on every label access.
``engine-query``
    Fired by :class:`repro.service.ladder.QueryService` before
    delegating to a tier (``ctx["engine"]`` is the tier name) — the
    degradation ladder's primary chaos hook.
``build-segment``
    Fired by :class:`repro.resilience.checkpoint.SegmentedSweep` twice
    per computed segment of a checkpointed label build
    (``ctx["segment"]`` is the segment index, ``ctx["stage"]`` is
    ``"computed"`` — before the segment's file is written — or
    ``"checkpointed"`` — after) — the kill-and-resume suite's hook for
    crashing a build at every segment boundary.
``worker-spawn``
    Fired by :class:`repro.supervise.supervisor.Supervisor` before
    forking each worker process (``ctx["worker"]`` is the worker name,
    ``ctx["restarts"]`` its death count) — inject to exercise the
    spawn-failed → backoff → respawn path without real processes dying.
``worker-heartbeat``
    Fired inside a supervised worker before each heartbeat write
    (``ctx["worker"]``; beats within ``heartbeat_ms / 2`` of the last
    write neither write nor fire) — an injected fault *suppresses the
    write* instead of propagating, which is how chaos tests fake a
    wedged worker and drive the parent's stall detector.
``worker-task``
    Fired inside a supervised worker before running each leased task
    (``ctx["worker"]``, ``ctx["task"]`` is the task id) — inject a
    process-killing factory to lose in-flight work deterministically
    and exercise the requeue/quarantine ladder.
``update-journal-append``
    Fired by :meth:`repro.dynamic.journal.UpdateJournal.append` at each
    append stage (``ctx["stage"]`` is ``"write"`` or ``"fsync"``) —
    inject to prove a crash while journalling a delta batch never
    corrupts previously acknowledged records.
``update-repair``
    Fired by :class:`repro.dynamic.epochs.EpochManager` after cloning
    the current epoch, before the incremental repair sweep runs on the
    clone (``ctx["seq"]`` is the journal sequence number) — inject to
    exercise rollback-on-failed-repair.
``update-publish``
    Fired by the epoch manager after a successful repair (and audit),
    immediately before the atomic epoch pointer swap (``ctx["seq"]``,
    ``ctx["epoch"]`` is the would-be epoch id) — inject to prove a
    crash between repair and publish leaves the batch pending and the
    old epoch serving.
``clock``
    Not an exception point: setting :attr:`FaultInjector.clock` swaps
    the clock of every site that times or schedules (see
    :func:`injected_clock`), so tests can jump time deterministically.

Schedules are deterministic: a rule fails the ``after``-th through
``after + times - 1``-th *matching* calls of its point (``times=None``
means forever), so a chaos test replays identically every run.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Every named injection point the harness knows about.
INJECTION_POINTS: tuple[str, ...] = (
    "index-load",
    "save-index",
    "label-fetch",
    "engine-query",
    "build-segment",
    "worker-spawn",
    "worker-heartbeat",
    "worker-task",
    "update-journal-append",
    "update-repair",
    "update-publish",
)


@dataclass
class _Rule:
    """One deterministic failure schedule at one point."""

    exc: BaseException | type[BaseException] | Callable[[], BaseException]
    times: int | None
    after: int
    match: dict | None
    seen: int = field(default=0)

    def fires(self) -> bool:
        index = self.seen
        self.seen += 1
        if index < self.after:
            return False
        return self.times is None or index < self.after + self.times

    def make(self, point: str) -> BaseException:
        if isinstance(self.exc, BaseException):
            return self.exc
        if isinstance(self.exc, type):
            return self.exc(f"injected fault at {point!r}")
        return self.exc()


class FaultInjector:
    """A live injector: registered rules fire at named points."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self._rules: dict[str, list[_Rule]] = {}
        self._calls: dict[str, int] = {}
        #: Optional clock override consumed by the service layer
        #: (the ``clock`` injection point).
        self.clock = clock

    # ------------------------------------------------------------------
    def fail(
        self,
        point: str,
        exc: BaseException | type[BaseException] | Callable[
            [], BaseException
        ] = OSError,
        times: int | None = 1,
        after: int = 0,
        match: dict | None = None,
    ) -> None:
        """Schedule ``exc`` at ``point``.

        ``exc`` may be an exception class, instance, or zero-argument
        factory.  ``match`` restricts the rule to calls whose context
        contains every given key/value (e.g. ``{"engine": "QHL"}`` or
        ``{"stage": "fsync"}``).
        """
        if point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; "
                f"known: {', '.join(INJECTION_POINTS)}"
            )
        self._rules.setdefault(point, []).append(
            _Rule(exc=exc, times=times, after=after, match=match)
        )

    def fire(self, point: str, **ctx) -> None:
        """Count one call at ``point``; raise if a rule's schedule says so."""
        self._calls[point] = self._calls.get(point, 0) + 1
        for rule in self._rules.get(point, ()):
            if rule.match is not None and any(
                ctx.get(key) != value for key, value in rule.match.items()
            ):
                continue
            if rule.fires():
                raise rule.make(point)

    def calls(self, point: str) -> int:
        """How many times ``point`` has fired (matching or not)."""
        return self._calls.get(point, 0)

    def reset(self) -> None:
        """Drop all rules and counters."""
        self._rules.clear()
        self._calls.clear()


class NullInjector:
    """The disabled default: never raises, counts nothing."""

    enabled = False
    clock = None

    def fail(self, point, exc=OSError, times=1, after=0, match=None) -> None:
        raise NotImplementedError(
            "cannot register faults on the null injector; install one "
            "with use_injector(FaultInjector())"
        )

    def fire(self, point: str, **ctx) -> None:
        pass

    def calls(self, point: str) -> int:
        return 0

    def reset(self) -> None:
        pass


NULL_INJECTOR = NullInjector()

_active_injector: FaultInjector | NullInjector = NULL_INJECTOR


def get_injector() -> FaultInjector | NullInjector:
    """The process-wide active injector (the inert one by default)."""
    return _active_injector


def set_injector(
    injector: FaultInjector | NullInjector,
) -> FaultInjector | NullInjector:
    """Install ``injector``; returns the previous one."""
    global _active_injector
    previous = _active_injector
    _active_injector = injector
    return previous


@contextlib.contextmanager
def use_injector(
    injector: FaultInjector | NullInjector,
) -> Iterator[FaultInjector | NullInjector]:
    """Scoped :func:`set_injector`; restores the previous injector."""
    previous = set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)


def injected_clock() -> Callable[[], float] | None:
    """The active injector's clock, or ``None`` outside a chaos run.

    The one rule for injected time.  Every site that builds a deadline
    or timestamps an event (the service ladder, the batch loop, repair
    timing, the epoch manager, the supervisor) runs on this clock when
    it is set and on its own clock otherwise, and every site that draws
    backoff jitter seeds its RNG on the same test (:func:`jitter_rng`).
    """
    injector = _active_injector
    if injector.enabled and injector.clock is not None:
        return injector.clock
    return None


def jitter_rng() -> random.Random:
    """An RNG for backoff jitter: seeded under an injected clock.

    Chaos tests then replay the same backoff schedule every run;
    outside them the jitter stays nondeterministic on purpose (it
    exists to decorrelate concurrent retriers).
    """
    if injected_clock() is not None:
        return random.Random(0)
    return random.Random()


class FaultyLabelStore:
    """A label-store proxy firing ``label-fetch`` on every access.

    Wrap an index's :class:`~repro.labeling.labels.LabelStore` and build
    an engine on the wrapper to chaos-test label I/O without touching
    the store itself::

        engine = QHLEngine(tree, FaultyLabelStore(labels), lca, pruning)
    """

    def __init__(self, inner):
        self._inner = inner

    def get(self, x: int, y: int):
        get_injector().fire("label-fetch", x=x, y=y)
        return self._inner.get(x, y)

    def label(self, v: int):
        get_injector().fire("label-fetch", v=v)
        return self._inner.label(v)

    def __getattr__(self, name):
        return getattr(self._inner, name)
