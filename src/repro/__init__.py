"""QHL: exact constrained shortest path search on road networks.

A full Python reproduction of *"QHL: A Fast Algorithm for Exact
Constrained Shortest Path Search on Road Networks"* (SIGMOD 2023):
the QHL algorithm, the CSP-2Hop index it extends, the COLA-like and
index-free baselines it is compared against, and the paper's complete
experimental workloads.

Quickstart
----------
>>> from repro import QHLIndex, grid_network
>>> network = grid_network(8, 8, seed=1)
>>> index = QHLIndex.build(network, num_index_queries=200, seed=1)
>>> result = index.query(0, 63, budget=250, want_path=True)
>>> result.feasible
True
"""

from repro.baselines import (
    COLAEngine,
    CSP2HopEngine,
    constrained_dijkstra,
    skyline_between,
)
from repro.core import QHLEngine, QHLIndex
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex
from repro.exceptions import (
    AuditError,
    BuildBudgetExceededError,
    DeadlineExceededError,
    DisconnectedGraphError,
    GraphFormatError,
    IndexBuildError,
    InfeasibleQueryError,
    InvalidGraphError,
    QueryError,
    ReproError,
    SerializationError,
    ServiceUnavailableError,
    WorkerCrashError,
)
from repro.graph import (
    RoadNetwork,
    dense_core_network,
    estimate_diameter,
    grid_network,
    random_connected_network,
    random_geometric_network,
    read_csp_text,
    read_dimacs_pair,
    ring_network,
    write_csp_text,
    write_dimacs_pair,
)
from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    SpanTracer,
    use_flight_recorder,
    use_registry,
    use_tracer,
)
from repro.service import (
    Deadline,
    FaultInjector,
    QueryService,
    ServiceConfig,
    use_injector,
)
from repro.perf import (
    BatchReport,
    CachedQHLEngine,
    SkylineCache,
    execute_batch,
)
from repro.resilience import (
    LENIENT,
    STRICT,
    AuditReport,
    BuildBudget,
    IngestReport,
    ParsePolicy,
    audit_index,
)
from repro.storage import load_index, load_index_with_retry, save_index
from repro.types import CSPQuery, QueryResult, QueryStats
from repro.workloads import (
    generate_distance_sets,
    generate_ratio_sets,
    traffic_signal_network,
)

__version__ = "1.0.0"

__all__ = [
    "AuditError",
    "AuditReport",
    "BatchReport",
    "BuildBudget",
    "BuildBudgetExceededError",
    "COLAEngine",
    "CSP2HopEngine",
    "CachedQHLEngine",
    "CSPQuery",
    "Deadline",
    "DeadlineExceededError",
    "DisconnectedGraphError",
    "DynamicQHLIndex",
    "FaultInjector",
    "FlightRecorder",
    "GraphFormatError",
    "IndexBuildError",
    "InfeasibleQueryError",
    "IngestReport",
    "InvalidGraphError",
    "LENIENT",
    "MetricsRegistry",
    "ParsePolicy",
    "QHLEngine",
    "QHLIndex",
    "QueryError",
    "QueryResult",
    "QueryService",
    "QueryStats",
    "ReproError",
    "RoadNetwork",
    "SerializationError",
    "ServiceConfig",
    "STRICT",
    "ServiceUnavailableError",
    "SkylineCache",
    "SpanTracer",
    "WorkerCrashError",
    "audit_index",
    "constrained_dijkstra",
    "dense_core_network",
    "estimate_diameter",
    "execute_batch",
    "generate_distance_sets",
    "generate_ratio_sets",
    "grid_network",
    "load_dataset",
    "load_index",
    "load_index_with_retry",
    "random_connected_network",
    "random_geometric_network",
    "read_csp_text",
    "read_dimacs_pair",
    "ring_network",
    "save_index",
    "skyline_between",
    "traffic_signal_network",
    "use_flight_recorder",
    "use_injector",
    "use_registry",
    "use_tracer",
    "write_csp_text",
    "write_dimacs_pair",
]
