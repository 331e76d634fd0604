"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type at the boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidGraphError(ReproError):
    """The graph violates a structural requirement.

    Raised for self loops, non-positive metrics, vertex ids out of range,
    or operations that require a connected graph.
    """


class DisconnectedGraphError(InvalidGraphError):
    """The operation requires a connected road network."""


class GraphFormatError(InvalidGraphError):
    """A network file is malformed.

    Carries the file ``path`` and the 1-based ``line``/``column`` of the
    offending token, and prefixes the message with them, so a bad byte in
    a multi-gigabyte DIMACS file is locatable without bisecting it.
    """

    def __init__(
        self,
        message: str,
        path: str | None = None,
        line: int | None = None,
        column: int | None = None,
    ):
        self.path = path
        self.line = line
        self.column = column
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"col {column}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class IndexBuildError(ReproError):
    """Index construction failed or was given inconsistent inputs."""


class BuildBudgetExceededError(IndexBuildError):
    """A label build overran its time or memory budget.

    Raised by the checkpointed builder *after* the last completed
    segment was saved, so ``build --resume`` continues from where the budget
    ran out instead of restarting from zero.
    """

    def __init__(
        self,
        message: str,
        segment: int | None = None,
        elapsed_s: float | None = None,
        rss_mb: float | None = None,
    ):
        super().__init__(message)
        self.segment = segment
        self.elapsed_s = elapsed_s
        self.rss_mb = rss_mb


class AuditError(IndexBuildError):
    """A loaded index failed its structural/semantic self-audit.

    Carries the machine-readable :class:`~repro.resilience.audit.AuditReport`
    so callers can inspect exactly which invariant broke.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class QueryError(ReproError):
    """A CSP query is malformed (bad vertex ids, non-positive budget)."""


class InfeasibleQueryError(QueryError):
    """No s-t path satisfies the cost budget C.

    The paper's queries are generated with ``C >= d_c(s, t)`` so this never
    fires on paper workloads, but arbitrary user queries can be infeasible.
    """


class SerializationError(ReproError):
    """An index file is missing, truncated, corrupt (checksum mismatch),
    or of an unsupported version."""


class DeadlineExceededError(ReproError):
    """A query (or batch) ran out of its time budget.

    Raised cooperatively from the engines' hoplink / heap loops, so the
    partial work done before the budget expired is preserved in
    ``stats`` (a :class:`~repro.types.QueryStats` or ``None``).
    """

    def __init__(
        self,
        message: str,
        budget_ms: float | None = None,
        elapsed_ms: float | None = None,
        stats: object = None,
    ):
        super().__init__(message)
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms
        self.stats = stats


class LintConfigError(ReproError):
    """The static-analysis runner was misconfigured.

    Raised for unknown rule ids, unreadable lint paths, or a name
    registry that is unreadable or declares nothing — all cases where
    the lint run must fail loudly (CI exit 2) instead of passing
    vacuously.
    """


class WorkerCrashError(ReproError):
    """Pooled work was lost to worker deaths (SIGKILL, OOM) for good.

    The supervised pool respawns a dead worker and retries its chunk,
    so a crash alone costs nothing; this error (through its two
    subclasses) surfaces per affected query in a batch's failure rows
    only when the retries could not recover the work.
    """


class TaskQuarantinedError(WorkerCrashError):
    """A task crashed its worker on every allowed attempt.

    The supervised pool retries work lost to a dead worker, but a task
    that kills whichever worker picks it up is poison: after
    ``max_task_retries`` requeues it is pulled from rotation and
    surfaced as this error (one failure row per affected query) so the
    rest of the batch completes instead of crash-looping the fleet.
    """


class WorkerRestartExhaustedError(WorkerCrashError):
    """The supervised fleet died and no restart breaker allows a respawn.

    Tasks still pending or leased when the fleet gives up surface as
    this error; seeing it means the failure is environmental (every
    worker dies regardless of task), not a poison task.
    """


class UpdateError(ReproError):
    """Base class for live-update pipeline failures (journal or repair)."""


class UpdateJournalError(UpdateError):
    """The write-ahead update journal could not be read or written.

    Raised for unwritable journal directories and for append failures;
    torn tails found on open are *not* errors — the good prefix is kept
    and the damage is reported through ``torn_lines``.
    """


class UpdateFailedError(UpdateError):
    """Applying a journalled update batch failed and was rolled back.

    The batch stays pending in the journal (``replay`` retries it); the
    previously published epoch keeps serving queries.  ``seq`` is the
    journal sequence number of the failed batch and ``reason`` a short
    machine-readable tag (``"repair"``, ``"audit"``, ``"deadline"``,
    ``"publish"``).
    """

    def __init__(
        self,
        message: str,
        seq: int | None = None,
        reason: str | None = None,
    ):
        super().__init__(message)
        self.seq = seq
        self.reason = reason


class ServiceUnavailableError(ReproError):
    """Every tier of the degradation ladder failed (or is circuit-open).

    ``last_error`` keeps the exception from the deepest tier tried, so
    the root cause is not lost behind the ladder.
    """

    def __init__(self, message: str, last_error: BaseException | None = None):
        super().__init__(message)
        self.last_error = last_error
