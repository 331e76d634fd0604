"""Flight recorder tour: a black box for queries, crash forensics free.

Run with::

    python examples/flight_recorder.py

Builds a small index, then (1) records a mixed workload — fast, slow,
and failing queries — into a bounded flight ring and prints the ring
and its slow/failed side log, (2) dumps the ring to JSON-lines and
loads it back, and (3) runs the same failures through a
``QueryService`` to show the automatic dump a breaker trip leaves
behind.
"""

import glob
import os
import tempfile

from repro import QHLIndex, grid_network
from repro.exceptions import QueryError
from repro.observability.flight import (
    FlightRecorder,
    load_flight,
    use_flight_recorder,
)
from repro.service import FaultInjector, QueryService, ServiceConfig, use_injector


def main() -> None:
    network = grid_network(10, 10, seed=7)
    index = QHLIndex.build(network, num_index_queries=500, seed=7)
    last = network.num_vertices - 1

    # -- 1. Record a mixed workload ---------------------------------
    # The ring keeps the most recent `capacity` queries; anything slow
    # or failed is *also* copied to a side log that never evicts.
    recorder = FlightRecorder(capacity=8, slow_ms=5.0)
    with use_flight_recorder(recorder):
        for offset in range(12):
            result = index.query(offset, last - offset, budget=10_000)
            recorder.record(
                engine="qhl",
                source=offset,
                target=last - offset,
                budget=10_000,
                outcome="ok" if result.feasible else "infeasible",
                seconds=result.stats.seconds,
                stats=result.stats,
            )
        try:
            index.query(0, 10_000, budget=5.0)  # no such vertex
        except QueryError as exc:
            recorder.record(
                engine="qhl", source=0, target=10_000, budget=5.0,
                outcome=type(exc).__name__, seconds=0.0, error=str(exc),
            )

    print(f"recorded {recorder.total} queries, ring holds "
          f"{len(recorder.records())}, dropped {recorder.dropped}")
    for record in recorder.tail(3):
        flags = ("S" if record.slow else "") + ("F" if record.failed else "")
        print(f"  seq {record.seq:>2}  {record.engine:<5} "
              f"{record.source}->{record.target}  {record.outcome:<12} "
              f"{flags}")
    assert recorder.slow_records(), "the failure must be in the side log"

    # -- 2. Dump and reload -----------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flight.jsonl")
        written = recorder.dump(path, reason="example")
        loaded = load_flight(path)
        print(f"\ndumped {written} records; round trip "
              f"{'ok' if loaded == recorder.records() else 'BROKEN'}")
        assert loaded == recorder.records()

        # -- 3. Automatic forensics from the service ----------------
        # Two injected QHL failures open the breaker; the service dumps
        # its own flight ring the moment the breaker trips.
        service = QueryService(
            index=index,
            config=ServiceConfig(
                flight_dump_dir=tmp, breaker_failure_threshold=2,
            ),
        )
        service.query(0, last, 10_000)  # something in the ring
        injector = FaultInjector()
        injector.fail(
            "engine-query", exc=RuntimeError, times=None,
            match={"engine": service.tiers[0]},
        )
        with use_injector(injector):
            service.query(0, last, 10_000)  # answered by CSP-2Hop
            service.query(0, last, 10_000)  # breaker opens -> dump
        dumps = glob.glob(os.path.join(tmp, "flight-*breaker-open-QHL*"))
        assert dumps, "breaker trip must leave a dump behind"
        print(f"\nbreaker tripped; forensic dump: "
              f"{os.path.basename(dumps[0])}")
        for record in load_flight(dumps[0])[-2:]:
            print(f"  seq {record.seq:>2}  tier {record.engine:<9} "
                  f"{record.outcome}")


if __name__ == "__main__":
    main()
