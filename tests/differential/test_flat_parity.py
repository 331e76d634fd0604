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
  representation.
"""

from __future__ import annotations

import os

import pytest

from repro.core.flat import FlatIndex
from repro.exceptions import DeadlineExceededError, ReproError
from repro.graph import grid_network
from repro.perf import execute_batch
from repro.service.deadline import Deadline
from repro.storage import load_flat_index, save_flat_index

from tests.differential.harness import answer, generate_cases

from repro.core import QHLIndex


@pytest.fixture(scope="module")
def index():
    return QHLIndex.build(
        grid_network(6, 6, seed=21), num_index_queries=100, seed=17
    )


@pytest.fixture(scope="module")
def cases(index):
    return generate_cases(index.network, 60, seed=207)


def test_expired_deadline_raises_from_both_engines(index):
    for engine in (index.qhl_engine(), index.flat_engine()):
        with pytest.raises(DeadlineExceededError):
            engine.query(0, 35, 100, deadline=Deadline(0.0))


def test_generous_deadline_answers_from_both_engines(index):
    obj = index.qhl_engine().query(0, 35, 100, deadline=Deadline(60.0))
    flat = index.flat_engine().query(0, 35, 100, deadline=Deadline(60.0))
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


def test_flat_answers_are_exact_ints_on_integer_networks(index, cases):
    flat = index.flat_engine()
    obj = index.qhl_engine()
    for s, t, c in cases:
        got = flat.query(s, t, c)
        want = obj.query(s, t, c)
        if want.feasible:
            assert type(got.weight) is type(want.weight)
            assert type(got.cost) is type(want.cost)


def test_flat_engine_refuses_path_retrieval(index):
    flat = index.flat_engine()
    result = flat.query(0, 35, 100)
    assert result.feasible
    with pytest.raises(ReproError, match="provenance"):
        flat.query(0, 35, 100, want_path=True)


def test_query_many_matches_single_queries(index, cases):
    flat = index.flat_engine()
    batch = execute_batch(flat, [(s, t, c) for s, t, c in cases]).results
    for (s, t, c), got in zip(cases, batch):
        assert answer(got) == answer(flat.query(s, t, c))


def test_from_index_shares_everything_but_labels(index):
    flat = FlatIndex.from_index(index)
    assert flat.tree is index.tree
    assert flat.lca is index.lca
    assert flat.pruning is index.pruning
    assert flat.labels.num_entries() == sum(
        len(entries) for _, _, entries in index.labels.items()
    )
