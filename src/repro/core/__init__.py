"""QHL core: the paper's contribution — query-aware hop labeling."""

from repro.core.concatenation import concat_best_under, concat_cartesian
from repro.core.engine import IndexStats, QHLIndex, random_index_queries
from repro.core.flat import FlatQHLEngine
from repro.core.explain import (
    ConditionApplication,
    HoplinkWork,
    QueryExplanation,
)
from repro.core.pruning import (
    PruningConditionIndex,
    build_condition,
    build_pruning_index,
    compute_cub,
    dense_rows,
)
from repro.core.qhl import QHLEngine, candidate_separators
from repro.core.separators import (
    LabelFetcher,
    estimated_cost,
    initial_separators,
)

__all__ = [
    "ConditionApplication",
    "FlatQHLEngine",
    "HoplinkWork",
    "IndexStats",
    "LabelFetcher",
    "QueryExplanation",
    "PruningConditionIndex",
    "QHLEngine",
    "QHLIndex",
    "build_condition",
    "build_pruning_index",
    "candidate_separators",
    "compute_cub",
    "concat_best_under",
    "concat_cartesian",
    "dense_rows",
    "estimated_cost",
    "initial_separators",
    "random_index_queries",
]
