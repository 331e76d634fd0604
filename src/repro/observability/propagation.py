"""Trace ids that join a run's spans, failure rows and flight records.

:func:`new_trace_id` mints process-unique ids without wall-clock or
global RNG, so builds stay deterministic.  Worker spans and metric
deltas need no transport of their own: they ride home in the
supervisor's result files (:class:`repro.supervise.supervisor.Outcome`).
"""

from __future__ import annotations

import itertools
import os

_trace_ids = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id: originating pid + monotone counter.

    Deliberately avoids wall-clock and random sources so traced runs
    stay byte-reproducible; uniqueness across forks holds because the
    pid differs and within a process because the counter does.
    """
    return f"{os.getpid():08x}-{next(_trace_ids):06x}"
