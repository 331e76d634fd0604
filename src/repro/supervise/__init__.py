"""Self-healing worker supervision (spawn / heartbeat / restart).

The process substrate the ROADMAP's sharded index server will run on:
:class:`Supervisor` keeps named forked workers alive (heartbeat stall
detection, jittered-backoff restarts behind a circuit breaker, graceful
drain), :class:`SupervisedPool` layers task leases on top so work lost
to a dead worker is requeued — bounded retries, then poison-task
quarantine — and :mod:`~repro.supervise.incidents` is the black box
recording every death, restart, and requeue.
"""

from repro.supervise.incidents import (
    INCIDENT_KINDS,
    Incident,
    IncidentLog,
    NULL_INCIDENT_LOG,
    NullIncidentLog,
    get_incident_log,
    load_incidents,
    set_incident_log,
    summarize,
    use_incident_log,
)
from repro.supervise.pool import (
    FAILURE_REASONS,
    PoolFailure,
    PoolReport,
    SupervisedPool,
)
from repro.supervise.supervisor import (
    DeathEvent,
    SupervisionConfig,
    Supervisor,
    fork_available,
)

__all__ = [
    "INCIDENT_KINDS",
    "Incident",
    "IncidentLog",
    "NULL_INCIDENT_LOG",
    "NullIncidentLog",
    "get_incident_log",
    "load_incidents",
    "set_incident_log",
    "summarize",
    "use_incident_log",
    "FAILURE_REASONS",
    "PoolFailure",
    "PoolReport",
    "SupervisedPool",
    "DeathEvent",
    "SupervisionConfig",
    "Supervisor",
    "fork_available",
]
