"""Seeded inputs for the four workloads, and their digest.

Everything a run feeds the program comes from here: the query pools,
the request streams (pair plus a fresh budget per request) and the
live-update delta batches.  Inputs are a pure function of the workload,
the ``--seed`` and the run length, so two commits given the same seed
receive the same inputs, and :func:`Inputs.digest` proves it.  The index
itself, and rush-hour's update batches, always come from the fixed index
seed, so ``--seed`` moves only the query traffic.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field

from repro.datasets import load_dataset
from repro.graph import estimate_diameter
from repro.workloads import generate_distance_sets
from repro.workloads.queries import distance_band

INDEX_SEED = 303
DATASETS = ("NY", "BAY", "COL")
#: Requests generated per measured second; the stream cycles (repeating
#: triples) only past this rate.
STREAM_PER_S = 40_000
ZIPF_ALPHA = 1.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` a quick check."""

    scale: str
    pool_size: int
    index_queries: int
    bulk_batches_cap: int
    cache_size: int
    rush_rate: float
    rush_first_s: float
    rush_interval_s: float
    deltas_per_batch: int
    check_csp2hop: int
    check_dijkstra: int
    check_per_epoch: int


FULL = Sizes(
    scale="benchmark", pool_size=1000, index_queries=2000,
    bulk_batches_cap=60, cache_size=256, rush_rate=1000.0,
    rush_first_s=0.5, rush_interval_s=2.0, deltas_per_batch=4,
    check_csp2hop=2000, check_dijkstra=200, check_per_epoch=20,
)
SMOKE = Sizes(
    scale="small", pool_size=20, index_queries=100, bulk_batches_cap=4,
    cache_size=16, rush_rate=500.0, rush_first_s=0.1, rush_interval_s=0.3,
    deltas_per_batch=2, check_csp2hop=200, check_dijkstra=20,
    check_per_epoch=3,
)


@dataclass
class Pool:
    """One dataset's query pool: ``(s, t, d, c_max)`` per pair."""

    name: str
    network: object
    pairs: list[tuple[int, int, float, float]]


@dataclass
class Inputs:
    """Everything one run sends to the program."""

    workload: str
    seed: int
    seconds: int
    sizes: Sizes
    pools: list[Pool]
    #: Request stream: ``(pool index, pair index)`` flattened into
    #: ``refs`` (``pool * 2**32 + pair``) plus one budget per request.
    refs: array = field(default_factory=lambda: array("q"))
    budgets: array = field(default_factory=lambda: array("d"))
    #: bulk-long: per pool, ``bulk_batches_cap`` budget vectors.
    batch_budgets: list[list[array]] = field(default_factory=list)
    #: rush-hour: delta batches ``[(edge, weight, None), ...]``.
    deltas: list[list[tuple[int, int, None]]] = field(default_factory=list)

    def request(self, i: int) -> tuple[int, int, int, float]:
        """``(pool, s, t, budget)`` of request ``i`` (the stream cycles)."""
        i %= len(self.refs)
        ref = self.refs[i]
        pool = ref >> 32
        s, t, _d, _hi = self.pools[pool].pairs[ref & 0xFFFFFFFF]
        return pool, s, t, self.budgets[i]

    def digest(self) -> str:
        """sha256 over every generated input (queries, budgets, deltas)."""
        h = hashlib.sha256()
        h.update(repr((self.workload, self.seed, self.seconds,
                       self.sizes)).encode())
        for pool in self.pools:
            h.update(repr((pool.name, pool.pairs)).encode())
        h.update(self.refs.tobytes())
        h.update(self.budgets.tobytes())
        for per_pool in self.batch_budgets:
            for budgets in per_pool:
                h.update(budgets.tobytes())
        h.update(repr(self.deltas).encode())
        return h.hexdigest()


def _pool(name: str, sizes: Sizes, seed: int, bands: tuple[int, ...]) -> Pool:
    network = load_dataset(name, sizes.scale).network
    d_max = estimate_diameter(network)
    sets = generate_distance_sets(
        network, size=sizes.pool_size, d_max=d_max, seed=seed
    )
    pairs = []
    for band in bands:
        c_max = distance_band(band, d_max)[1]
        qset = sets[f"Q{band}"]
        for query, d in zip(qset.queries, qset.distances, strict=True):
            pairs.append((query.source, query.target, d, c_max))
    return Pool(name, network, pairs)


def _budget(rng: random.Random, pair) -> float:
    """A fresh budget drawn uniformly from ``[d, C_max(band)]``."""
    _s, _t, d, c_max = pair
    return rng.uniform(d, c_max)


def _stream(inputs: Inputs, rng: random.Random, picks) -> None:
    """Fill the request stream from a sequence of ``(pool, pair)``."""
    for pool, pair in picks:
        inputs.refs.append((pool << 32) | pair)
        inputs.budgets.append(_budget(rng, inputs.pools[pool].pairs[pair]))


def make_inputs(workload: str, seed: int, seconds: int, sizes: Sizes) -> Inputs:
    """Generate the inputs of ``workload`` for ``seed``."""
    rng = random.Random(seed)
    if workload == "interactive-short":
        pools = [_pool(n, sizes, seed, (1, 2)) for n in DATASETS]
    elif workload == "bulk-long":
        pools = [_pool(n, sizes, seed, (3, 4, 5)) for n in DATASETS]
    elif workload == "zipf-cached":
        pools = [_pool(n, sizes, seed, (1, 2, 3, 4, 5)) for n in DATASETS]
    elif workload == "rush-hour":
        pools = [_pool("NY", sizes, seed, (1, 2, 3, 4, 5))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = Inputs(workload, seed, seconds, sizes, pools)
    flat = [(p, i) for p, pool in enumerate(pools)
            for i in range(len(pool.pairs))]

    if workload == "interactive-short":
        _stream(inputs, rng, (flat[rng.randrange(len(flat))]
                              for _ in range(STREAM_PER_S * seconds)))
    elif workload == "zipf-cached":
        # Zipf over a seeded shuffle: which pairs are hot changes with
        # the seed, the skew does not.
        rng.shuffle(flat)
        weights = [1.0 / (rank + 1) ** ZIPF_ALPHA
                   for rank in range(len(flat))]
        _stream(inputs, rng, rng.choices(flat, weights=weights,
                                         k=STREAM_PER_S * seconds))
    elif workload == "bulk-long":
        inputs.batch_budgets = [
            [array("d", (_budget(rng, pair) for pair in pool.pairs))
             for _ in range(sizes.bulk_batches_cap)]
            for pool in pools
        ]
    else:
        count = int(sizes.rush_rate * seconds)
        _stream(inputs, rng, (flat[rng.randrange(len(flat))]
                              for _ in range(count)))
        # The update batches are fixed like the index: which edges they
        # hit sets how much a repair rewrites (and allocates), and a
        # handful of edges drawn per seed would make every run's repairs
        # a different amount of work.
        update_rng = random.Random(INDEX_SEED)
        edges = list(pools[0].network.edges())
        batches = int((seconds - sizes.rush_first_s)
                      // sizes.rush_interval_s) + 1
        for _ in range(batches):
            batch = []
            for _ in range(sizes.deltas_per_batch):
                edge = update_rng.randrange(len(edges))
                weight = edges[edge][2]
                # Congestion: an absolute, integral travel time 1.5-3x
                # the free-flow one, so every sum stays exact.
                batch.append(
                    (edge,
                     max(1, round(weight * update_rng.uniform(1.5, 3.0))),
                     None)
                )
            inputs.deltas.append(batch)
    return inputs
