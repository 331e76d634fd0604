"""Flat-vs-object engine parity beyond plain answers.

The seed-pinned families (``test_engines_agree``) and the hypothesis
property test already diff ``FlatQHLEngine`` answers — including
infeasible rows — against the constrained-Dijkstra reference through
``engines_under_test``.  This module pins the parity cases a
reference-diff cannot see:

* deadline behaviour — an expired deadline raises
  :class:`DeadlineExceededError` from both engines, never a late or
  partial answer from just one;
* an mmap-loaded flat index answers bit-identically to the object
  index its file came from (the full save → mmap-load → query cycle,
  not just in-memory packing);
* exact type parity — integral answers come back as ints from both
  engines, so golden-file comparisons cannot drift through a float
  representation;
* one index class — a :class:`QHLIndex` over flat labels shares
  everything but the labels with the object index it came from, and
  serves the flat engine over those labels as held; a built index is
  such a flat index, the object one is what the dynamic build keeps;
* path parity — over a saved index's provenance columns, QHL-flat and
  CSP-2Hop return the very paths their object-label runs return, on
  the ancestor fast path and for ``s == t`` too.
"""

from __future__ import annotations

import os

import pytest

from repro.core.flat import FlatQHLEngine
from repro.core.qhl import QHLEngine
from repro.dynamic import DynamicQHLIndex
from repro.exceptions import DeadlineExceededError, ReproError
from repro.graph import grid_network
from repro.perf import execute_batch
from repro.service.deadline import Deadline
from repro.storage import (
    FlatLabelStore,
    load_flat_index,
    pack_labels,
    save_flat_index,
)

from tests.differential.harness import answer, generate_cases

from repro.core import QHLIndex


@pytest.fixture(scope="module")
def index():
    """The object index: what the dynamic build keeps to repair."""
    return DynamicQHLIndex.build(
        grid_network(6, 6, seed=21), num_index_queries=100, seed=17
    ).index


@pytest.fixture(scope="module")
def built(index):
    """The same index built: frozen into flat columns."""
    return QHLIndex.build(index.network, num_index_queries=100, seed=17)


@pytest.fixture(scope="module")
def cases(index):
    return generate_cases(index.network, 60, seed=207)


@pytest.fixture(scope="module")
def loaded(index, tmp_path_factory):
    """The index saved with its provenance columns and mmap-loaded."""
    path = os.fspath(tmp_path_factory.mktemp("paths") / "grid.idx")
    save_flat_index(index, path)
    flat = load_flat_index(path)
    assert flat.labels.provenance is not None
    return flat


def _with_path(result):
    return answer(result), result.path


def _ancestor_pairs(index):
    n = index.network.num_vertices
    return [
        (s, t)
        for s in range(n)
        for t in range(n)
        if s != t and any(index.lca.relation(s, t)[1:])
    ]


def test_expired_deadline_raises_from_both_engines(index, built):
    for engine in (index.qhl_engine(), built.flat_engine()):
        with pytest.raises(DeadlineExceededError):
            engine.query(0, 35, 100, deadline=Deadline(0.0))


def test_generous_deadline_answers_from_both_engines(index, built):
    obj = index.qhl_engine().query(0, 35, 100, deadline=Deadline(60.0))
    flat = built.flat_engine().query(0, 35, 100, deadline=Deadline(60.0))
    assert answer(obj) == answer(flat)


def test_mmap_loaded_index_matches_object_answers(index, cases, tmp_path):
    path = os.fspath(tmp_path / "grid.qflat")
    save_flat_index(index, path)
    flat = load_flat_index(path)
    obj_engine = index.qhl_engine()
    flat_engine = flat.qhl_engine()
    infeasible = 0
    for s, t, c in cases:
        want = answer(obj_engine.query(s, t, c))
        assert answer(flat_engine.query(s, t, c)) == want
        infeasible += not want[0]
    assert infeasible > 0, "case generation lost its infeasible regime"


def test_flat_answers_are_exact_ints_on_integer_networks(
    index, built, cases
):
    flat = built.flat_engine()
    obj = index.qhl_engine()
    for s, t, c in cases:
        got = flat.query(s, t, c)
        want = obj.query(s, t, c)
        if want.feasible:
            assert type(got.weight) is type(want.weight)
            assert type(got.cost) is type(want.cost)


def test_flat_engine_refuses_path_retrieval(index):
    flat = QHLIndex.build(
        index.network, num_index_queries=100, seed=17, store_paths=False
    ).flat_engine()
    result = flat.query(0, 35, 100)
    assert result.feasible
    with pytest.raises(ReproError, match="provenance"):
        flat.query(0, 35, 100, want_path=True)


def test_query_many_matches_single_queries(built, cases):
    flat = built.flat_engine()
    batch = execute_batch(flat, [(s, t, c) for s, t, c in cases]).results
    for (s, t, c), got in zip(cases, batch):
        assert answer(got) == answer(flat.query(s, t, c))


def _flat_twin(index):
    return QHLIndex(
        index.network,
        index.tree,
        FlatLabelStore.from_compact(pack_labels(index.labels)),
        index.lca,
        index.pruning,
    )


def test_from_index_shares_everything_but_labels(index):
    flat = _flat_twin(index)
    assert flat.tree is index.tree
    assert flat.lca is index.lca
    assert flat.pruning is index.pruning
    assert flat.labels.num_entries() == sum(
        len(entries) for _, _, entries in index.labels.items()
    )


def test_flat_labels_pick_the_flat_engine_without_repacking(index, cases):
    flat = _flat_twin(index)
    assert isinstance(flat.qhl_engine(), FlatQHLEngine)
    assert flat.flat_engine()._labels is flat.labels
    assert type(index.qhl_engine()) is not FlatQHLEngine
    for s, t, c in cases:
        assert answer(flat.query(s, t, c)) == answer(index.query(s, t, c))


def test_flat_labels_serve_the_cartesian_ablation(index, cases):
    """``use_two_pointer=False`` over flat labels is the object-sweep
    engine reading them through the ``LabelStore`` read API: same
    answers and the same Algorithm-5 counters as over object labels."""
    flat = _flat_twin(index).qhl_engine(use_two_pointer=False)
    obj = index.qhl_engine(use_two_pointer=False)
    assert type(flat) is QHLEngine
    for s, t, c in cases:
        got, want = flat.query(s, t, c), obj.query(s, t, c)
        assert answer(got) == answer(want)
        assert got.stats.concatenations == want.stats.concatenations
        assert got.stats.label_lookups == want.stats.label_lookups


def test_object_labels_refuse_the_flat_engine(index):
    with pytest.raises(ReproError, match="object labels"):
        index.flat_engine()


@pytest.mark.parametrize("engine", ["qhl_engine", "csp2hop_engine"])
def test_flat_paths_equal_object_paths(index, loaded, cases, engine):
    obj = getattr(index, engine)()
    flat = getattr(loaded, engine)()
    feasible = 0
    for s, t, c in cases:
        want = _with_path(obj.query(s, t, c, want_path=True))
        assert _with_path(flat.query(s, t, c, want_path=True)) == want
        feasible += want[0][0]
    assert feasible > 0


@pytest.mark.parametrize("engine", ["qhl_engine", "csp2hop_engine"])
def test_ancestor_and_same_vertex_paths_match(index, loaded, engine):
    obj = getattr(index, engine)()
    flat = getattr(loaded, engine)()
    pairs = _ancestor_pairs(index)
    assert len(pairs) >= 10
    for s, t in pairs[::7]:
        for budget in (0, 60, 1_000_000):
            want = _with_path(obj.query(s, t, budget, want_path=True))
            got = _with_path(flat.query(s, t, budget, want_path=True))
            assert got == want
    for v in (0, 17, 35):
        assert flat.query(v, v, 0, want_path=True).path == [v]
        assert _with_path(flat.query(v, v, 5, want_path=True)) == (
            _with_path(obj.query(v, v, 5, want_path=True))
        )
