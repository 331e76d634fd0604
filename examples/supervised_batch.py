"""Self-healing batch execution: a worker dies mid-batch, nobody notices.

Run with::

    python examples/supervised_batch.py

Runs the same 60-query batch twice: once sequentially (ground truth)
and once fanned out over two worker processes (every fan-out runs
supervised), with a
tripwire engine that SIGKILLs the first worker to touch a query.  The
supervisor respawns the dead worker and requeues its lost chunk, so the
batch still returns every answer — identical to the sequential run,
zero failure rows — and the incident log shows the death, the requeue,
and the restart.
"""

import os
import signal
import tempfile

from repro import QHLIndex, grid_network
from repro.core.engine import random_index_queries
from repro.perf.batch import execute_batch
from repro.supervise import IncidentLog, use_incident_log


class KillFirstWorkerEngine:
    """The first worker process to run a query SIGKILLs itself (once)."""

    def __init__(self, inner, sentinel):
        self.inner, self.sentinel = inner, sentinel
        self.name = inner.name

    def query(self, source, target, budget, **kwargs):
        try:
            os.close(os.open(
                self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            ))
        except FileExistsError:
            pass  # tripwire already fired in some process
        else:
            os.kill(os.getpid(), signal.SIGKILL)  # lights out, mid-chunk
        return self.inner.query(source, target, budget, **kwargs)


def main() -> None:
    network = grid_network(8, 8, seed=11)
    index = QHLIndex.build(network, num_index_queries=300, seed=11)
    queries = [
        (q.source, q.target, 10_000.0)
        for q in random_index_queries(network, 60, seed=5)
    ]
    engine = index.qhl_engine()
    truth = execute_batch(engine, queries).results

    with tempfile.TemporaryDirectory() as tmp:
        rigged = KillFirstWorkerEngine(engine, os.path.join(tmp, "trip"))
        incidents = IncidentLog()
        with use_incident_log(incidents):
            report = execute_batch(rigged, queries, workers=2)

    assert report.failures == [], report.failures
    assert [r.pair() for r in report.results] == [
        r.pair() for r in truth
    ], "supervised results must match the sequential ground truth"
    print(f"{len(report.results)} queries answered, "
          f"{len(report.failures)} failure rows, despite one SIGKILL")
    kinds = []
    for incident in incidents.records():
        kinds.append(incident.kind)
        if incident.kind in ("death", "requeue", "spawn", "restart"):
            print(f"  {incident.kind:<8} {incident.worker:<4} "
                  f"pid {incident.pid}  {incident.detail}")
    assert {"death", "requeue", "restart"} <= set(kinds)


if __name__ == "__main__":
    main()
