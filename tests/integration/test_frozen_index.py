"""A built index serves from frozen columns.

``QHLIndex.build`` packs its object labels into a
:class:`~repro.storage.flat.FlatLabelStore` and drops them, so a built
index has the shape of a saved and loaded one, and the dynamic build is
the only holder of object labels.  This module pins what must not move
through that freeze:

* the saved file, byte for byte (sha256 with timings zeroed, pinned
  from the object-label build that preceded the freeze), and its
  re-save after a load;
* every engine's ``(weight, cost)`` over the built index, its loaded
  copy and the dynamic build's object labels, with valid paths;
* one label-size accounting for built, loaded and dynamic indexes;
* the metamorphic properties that weight never rises with the budget
  and that ``(s, t, C)`` and ``(t, s, C)`` have one answer;
* the memory a built index keeps per label entry.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import tracemalloc

import pytest

from repro.core import QHLEngine, QHLIndex
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex
from repro.graph import grid_network, random_connected_network
from repro.storage import FlatLabelStore, load_index, save_index

NETWORKS = {
    "grid": (lambda: grid_network(8, 8, seed=1), 200, 1),
    "NY-small": (lambda: load_dataset("NY", scale="small").network, 200, 3),
    "random": (lambda: random_connected_network(60, 150, seed=7), 100, 5),
}

#: sha256 of ``save_index(QHLIndex.build(...))`` with the build timings
#: zeroed, per network and ``store_paths``.
PINNED_SHA256 = {
    ("grid", True):
        "6a3bbc0da0afae2605fcaab636b81fab65846889ae9703230d98b93c5f19f298",
    ("grid", False):
        "f8d4a13fe655df308f8a894ddd23b7eb834caf701d316339d95e623ce80e22be",
    ("NY-small", True):
        "3e8520881e06b77850cfff6aed63b089895e92700341b0eb22ec913608c164e6",
    ("NY-small", False):
        "28d030c7c5df1dccc7424a2de457565b0b9664a18736fbef0209b917f1a9e740",
    ("random", True):
        "1cef89868c98c05efd4dbc245c61fd4608345c164e70b83e3b133eaaee147454",
    ("random", False):
        "58dc8206a55c5e7bc1afbeca0af141237ee303f660b2483db75b271a749819ec",
}

CASES = sorted(PINNED_SHA256)


def _build(name: str, paths: bool, cls=QHLIndex):
    make, num_index_queries, seed = NETWORKS[name]
    return cls.build(
        make(), num_index_queries=num_index_queries, seed=seed,
        store_paths=paths,
    )


def _zero_timings(index) -> None:
    index.tree.build_seconds = 0.0
    index.labels.build_seconds = 0.0
    index.pruning.build_seconds = 0.0


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-"
                f"{'paths' if c[1] else 'no-paths'}")
def trio(request, tmp_path_factory):
    """``(built, loaded, dynamic)`` for one network and paths setting."""
    name, paths = request.param
    built = _build(name, paths)
    _zero_timings(built)
    path = os.fspath(tmp_path_factory.mktemp("frozen") / "index.idx")
    save_index(built, path)
    dynamic = _build(name, paths, DynamicQHLIndex).index
    return request.param, built, load_index(path), dynamic, path


class TestSavedFile:
    def test_sha256_is_pinned(self, trio):
        case, _built, _loaded, _dynamic, path = trio
        assert _sha256(path) == PINNED_SHA256[case]

    def test_resave_of_loaded_copy_is_identical(self, trio, tmp_path):
        _case, _built, loaded, _dynamic, path = trio
        again = os.fspath(tmp_path / "again.idx")
        save_index(loaded, again)
        assert _sha256(again) == _sha256(path)

    def test_dynamic_build_saves_the_same_file(self, trio, tmp_path):
        case, _built, _loaded, dynamic, _path = trio
        _zero_timings(dynamic)
        path = os.fspath(tmp_path / "dynamic.idx")
        save_index(dynamic, path)
        assert _sha256(path) == PINNED_SHA256[case]


class TestShape:
    def test_built_index_is_all_columns(self, trio):
        _case, built, loaded, dynamic, _path = trio
        assert isinstance(built.labels, FlatLabelStore)
        assert built.tree.shortcuts == {} == loaded.tree.shortcuts
        assert type(built.qhl_engine()) is type(loaded.qhl_engine())
        assert built.qhl_engine().name == "QHL-flat"
        assert not isinstance(dynamic.labels, FlatLabelStore)
        assert dynamic.tree.shortcuts

    def test_one_label_size_accounting(self, trio):
        _case, built, loaded, dynamic, _path = trio
        want = dynamic.stats().label_bytes
        assert want == (
            16 * dynamic.labels.num_entries() + 8 * dynamic.labels.num_sets()
        )
        assert built.stats().label_bytes == want
        assert loaded.stats().label_bytes == want


def test_grid_label_bytes_agree():
    """The 8x8 grid reported 28,536 built and 35,504 loaded (57,600 with
    paths); every copy now reports the paper's accounting."""
    for paths in (True, False):
        built = _build("grid", paths)
        assert built.stats().label_bytes == 28_536
        assert built.labels.column_bytes() == (35_504 if not paths else 57_600)


def _engines(index):
    return [
        index.qhl_engine(),
        index.qhl_engine(use_pruning_conditions=False),
        index.qhl_engine(use_two_pointer=False),
        QHLEngine(index.tree, index.labels, index.lca, index.pruning),
        index.csp2hop_engine(),
        index.cached_engine(16),
    ]


def _queries(index, count: int, seed: int):
    rng = random.Random(seed)
    n = index.network.num_vertices
    return [
        (rng.randrange(n), rng.randrange(n), rng.choice((0, 5, 20, 60, 10**6)))
        for _ in range(count)
    ]


def _walk_problem(network, path, s, t, weight, cost):
    if path[0] != s or path[-1] != t:
        return f"path runs {path[0]}..{path[-1]}, not {s}..{t}"
    total_w = total_c = 0
    for u, v in zip(path, path[1:]):
        best = None
        for x, w, c in network.neighbors(u):
            if x == v and (best is None or (w, c) < best):
                best = (w, c)
        if best is None:
            return f"({u}, {v}) is not an edge"
        total_w += best[0]
        total_c += best[1]
    if (total_w, total_c) > (weight, cost):
        return f"walk costs {(total_w, total_c)}, answer {(weight, cost)}"
    return None


def test_engines_agree_over_built_loaded_and_dynamic(trio):
    (_name, paths), built, loaded, dynamic, _path = trio
    engines = [e for index in (built, loaded, dynamic) for e in _engines(index)]
    for s, t, budget in _queries(built, 40, seed=11):
        answers = [e.query(s, t, budget, want_path=paths) for e in engines]
        pairs = {(r.weight, r.cost) for r in answers}
        assert len(pairs) == 1, (s, t, budget, pairs)
        for engine, result in zip(engines, answers):
            assert type(result.weight) is type(answers[0].weight), engine.name
            if paths and result.feasible:
                problem = _walk_problem(
                    built.network, result.path, s, t, result.weight,
                    result.cost,
                )
                assert problem is None, (engine.name, s, t, problem)


def test_weight_never_rises_as_the_budget_grows(trio):
    """Metamorphic: a larger budget admits every path a smaller one did."""
    _case, built, loaded, dynamic, _path = trio
    rng = random.Random(23)
    n = built.network.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(15)]
    budgets = sorted(rng.sample(range(0, 120), 12)) + [10**6]
    for index in (built, loaded, dynamic):
        for engine in _engines(index):
            for s, t in pairs:
                last = float("inf")
                for budget in budgets:
                    result = engine.query(s, t, budget)
                    weight = result.weight if result.feasible else float("inf")
                    assert weight <= last, (engine.name, s, t, budget)
                    last = weight


def test_answers_are_symmetric_in_s_and_t(trio):
    """Metamorphic: on an undirected network ``(s, t, C)`` and
    ``(t, s, C)`` have the same answer (exact: the metrics are ints)."""
    _case, built, loaded, dynamic, _path = trio
    queries = _queries(built, 30, seed=29)
    for index in (built, loaded, dynamic):
        for engine in _engines(index):
            for s, t, budget in queries:
                assert engine.query(s, t, budget).pair() == engine.query(
                    t, s, budget
                ).pair(), (engine.name, s, t, budget)


@pytest.mark.parametrize("paths,bound", [(False, 48), (True, 64)])
def test_built_index_retains_little_per_entry(paths, bound):
    """A built NY/small index keeps its columns, not the object labels
    it was built from (which took 141 B per entry, 158 with paths)."""
    network = load_dataset("NY", scale="small").network
    QHLIndex.build(network, num_index_queries=20, seed=1)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = QHLIndex.build(
            network, num_index_queries=200, seed=1, store_paths=paths
        )
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_entry = retained / index.labels.num_entries()
    assert per_entry <= bound, f"{per_entry:.1f} B per label entry"
