"""Hot-path performance layer: skyline caching and batched execution.

Three pieces (see ``docs/performance.md``):

* :class:`~repro.perf.cache.SkylineCache` — LRU of full s-t skyline
  frontiers keyed by normalised pair; any budget for a cached pair is
  answered by binary search.
* :class:`~repro.perf.cached_engine.CachedQHLEngine` — QHL behind the
  cache, exact for every budget.
* :func:`~repro.perf.batch.execute_batch` — failure-tolerant batched
  execution in cache-friendly order, optionally across a process pool.
"""

from repro.perf.batch import (
    BatchFailure,
    BatchReport,
    execute_batch,
    sorted_batch_order,
)
from repro.perf.cache import CacheStats, SkylineCache, normalize_pair
from repro.perf.cached_engine import CachedQHLEngine

__all__ = [
    "BatchFailure",
    "BatchReport",
    "CacheStats",
    "CachedQHLEngine",
    "SkylineCache",
    "execute_batch",
    "normalize_pair",
    "sorted_batch_order",
]
