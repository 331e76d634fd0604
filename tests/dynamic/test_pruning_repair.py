"""Repaired pruning conditions against an oracle of their own inputs.

A repair reruns Algorithm 7 only for the pruning-condition rows that
read a changed label.  The oracle here does not trust the repair's own
change set: it diffs the ``(w, c)`` pairs of every label between two
epochs, and then checks, for every epoch of a seeded batch stream:

* soundness — every positive bound of every row equals
  ``compute_cub(P(v_end, h), P(v_end, u), P(u, h))`` over that epoch's
  labels for some ``u`` in the row's separator;
* locality — a row none of whose inputs changed pairs keeps the
  previous epoch's bytes, and the three structure columns are the
  previous epoch's objects;
* determinism — a row with a changed input equals Algorithm 7 rerun
  with an empty pair cache and ``Random(build seed)``, so the same seed
  and the same batches give the same columns, through ``clone`` and
  journal replay too.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pruning import (
    COND_COLUMNS,
    PruningConditionIndex,
    build_condition,
    build_pruning_index,
    compute_cub,
)
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex, EpochManager, UpdateConfig
from repro.graph import random_connected_network

SEED = 303
CONFIG = UpdateConfig(audit_on_publish=False, replay_on_start=False)


def _network(name):
    if name == "NY":
        return load_dataset("NY", "small").network
    return random_connected_network(60, 50, seed=21)


def _batches(network, seed, count=4, size=4):
    """``count`` batches of ``size`` absolute integral reprices."""
    rng = random.Random(seed)
    edges = list(network.edges())
    return [
        [
            (
                edge,
                max(1, round(edges[edge][2] * rng.choice([0.5, 2, 3]))),
                edges[edge][3] + rng.randint(0, 2),
            )
            for edge in rng.sample(range(len(edges)), size)
        ]
        for _ in range(count)
    ]


def _pairs(entries):
    return [(entry[0], entry[1]) for entry in entries]


def _changed_keys(before, after):
    """Label keys whose ``(w, c)`` pairs differ between two stores."""
    return {
        (v, u)
        for v, u, entries in after.items()
        if _pairs(entries) != _pairs(before.get(v, u))
    }


def _rows(pruning):
    """``(row, child, v_end, lo, hi)`` for every stored condition."""
    start, cond_vend, bound_start = (
        pruning.cond_start, pruning.cond_vend, pruning.bound_start
    )
    for child in range(len(start) - 1):
        for row in range(start[child], start[child + 1]):
            yield row, child, cond_vend[row], bound_start[row], \
                bound_start[row + 1]


def _stale(touched, separator, v_end):
    """The stale rule, written from the definition; ``touched`` holds
    each changed label key as a frozenset."""
    return any(
        frozenset((v_end, h)) in touched for h in separator
    ) or any(
        frozenset((a, b)) in touched
        for a in separator
        for b in separator
        if a != b
    )


def assert_sound(index, pruning):
    """Every positive bound is ``C_ub`` via some ``u`` of its separator."""
    labels, bags = index.labels, index.tree.bag
    checked = 0
    for _row, child, v_end, lo, hi in _rows(pruning):
        separator = bags[child]
        for h, ub in zip(separator, pruning.bounds[lo:hi].tolist()):
            if ub == 0:
                continue
            assert any(
                compute_cub(
                    labels.get(v_end, h),
                    labels.get(v_end, u),
                    labels.get(u, h),
                ) == ub
                for u in separator
                if u != h
            ), (child, v_end, h, ub)
            checked += 1
    return checked


def assert_repaired(before, after, seed):
    """Locality and determinism of one repair; returns the stale rows."""
    old, new = before.index.pruning, after.index.pruning
    for name in COND_COLUMNS[:3]:
        assert getattr(new, name) is getattr(old, name), name
    touched = {
        frozenset(key)
        for key in _changed_keys(before.index.labels, after.index.labels)
    }
    tally = PruningConditionIndex(after.index.tree.bag)
    stale = 0
    for row, child, v_end, lo, hi in _rows(new):
        separator = after.index.tree.bag[child]
        got = new.bounds[lo:hi].tobytes()
        if not _stale(touched, separator, v_end):
            assert got == old.bounds[lo:hi].tobytes(), (row, child, v_end)
            continue
        stale += 1
        ubs = build_condition(
            after.index.labels, separator, v_end, random.Random(seed),
            tally, {},
        )
        want = [ubs.get(h, 0.0) for h in separator]
        assert new.bounds[lo:hi].tolist() == want, (row, child, v_end)
    return stale


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
@pytest.mark.parametrize("name", ["NY", "random"])
@pytest.mark.parametrize("batch_seed", [1, 2, 3])
def test_repaired_rows_are_sound_local_and_seeded(name, store_paths,
                                                  batch_seed):
    network = _network(name)
    dyn = DynamicQHLIndex.build(
        network, num_index_queries=300, store_paths=store_paths, seed=SEED
    )
    assert dyn.seed == SEED
    assert assert_sound(dyn.index, dyn.index.pruning) > 0
    stale_total = 0
    for batch in _batches(network, batch_seed):
        nxt = dyn.clone()
        assert nxt.seed == SEED
        report = nxt.apply_deltas(batch)
        stale = assert_repaired(dyn, nxt, SEED)
        assert report.pruning_rows_rebuilt == stale
        assert report.pruning_rebuilt == (stale > 0)
        assert nxt.index.pruning.validate_structure() == []
        assert_sound(nxt.index, nxt.index.pruning)
        stale_total += stale
        dyn = nxt
    assert stale_total > 0, "no row went stale: vacuous"


def test_some_rows_stay_untouched():
    """The stale rule really skips rows (NY, one 4-edge batch)."""
    network = _network("NY")
    dyn = DynamicQHLIndex.build(network, num_index_queries=300, seed=SEED)
    report = dyn.apply_deltas(_batches(network, 1, count=1)[0])
    assert 0 < report.pruning_rows_rebuilt
    assert report.pruning_rows_rebuilt < dyn.index.pruning.num_conditions


def test_empty_change_set_rewrites_no_row():
    network = _network("random")
    dyn = DynamicQHLIndex.build(network, num_index_queries=300, seed=SEED)
    index, old = dyn.index, dyn.index.pruning
    new = build_pruning_index(
        index.tree, index.labels, index.lca, [], seed=SEED,
        previous=old, dirty_labels=(),
    )
    assert new.rows_rebuilt == 0
    assert new.algorithm6_calls == 0
    # No row rewritten: the repaired index shares all four columns.
    for name in COND_COLUMNS:
        assert getattr(new, name) is getattr(old, name)
    assert new.bounds.tobytes() == old.bounds.tobytes()
    # Through the repair: a delta that keeps the metrics moves no label.
    u, v, w, c = dyn.network_edges()[0]
    report = dyn.apply_deltas([(0, w, c)])
    assert report.labels_changed == 0
    assert report.pruning_rows_rebuilt == 0
    assert not report.pruning_rebuilt
    assert dyn.index.pruning is old


def _columns(dyn):
    pruning = dyn.index.pruning
    return [getattr(pruning, name).tobytes() for name in COND_COLUMNS]


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
def test_same_seed_same_batches_same_columns(store_paths):
    network = _network("NY")
    batches = _batches(network, 5, count=3)
    runs = []
    for _ in range(2):
        dyn = DynamicQHLIndex.build(
            network, num_index_queries=300, store_paths=store_paths,
            seed=SEED,
        )
        for batch in batches:
            dyn = dyn.clone()
            dyn.apply_deltas(batch)
        runs.append(_columns(dyn))
    assert runs[0] == runs[1]


def test_seed_survives_journal_replay(tmp_path):
    network = _network("NY")
    journal = str(tmp_path / "journal")

    def build():
        return DynamicQHLIndex.build(
            network, num_index_queries=300, store_paths=False, seed=SEED
        )

    live = EpochManager(build(), journal, CONFIG)
    for batch in _batches(network, 6, count=3):
        live.apply(batch)
    replayed = EpochManager(build(), journal, CONFIG, base_seq=0)
    assert replayed.replay() == 3
    assert replayed.epoch.dyn.seed == SEED
    assert _columns(replayed.epoch.dyn) == _columns(live.epoch.dyn)


def test_patched_rows_read_fold_and_save_as_one_column(tmp_path):
    """Repairs keep changed rows in patches: every read, the joined
    ``bounds`` and a saved file agree, each epoch keeps its own bounds,
    and the patches fold into a new column once they outgrow it."""
    from repro.storage.flatfile import load_flat_index, save_flat_index

    network = _network("NY")
    dyn = DynamicQHLIndex.build(network, num_index_queries=300, seed=SEED)
    kept = []
    folded = False
    for batch in _batches(network, 9, count=12):
        kept.append((dyn.index.pruning, dyn.index.pruning.bounds.tolist()))
        dyn = dyn.clone()
        dyn.apply_deltas(batch)
        pruning = dyn.index.pruning
        folded = folded or pruning._row_at is None and bool(kept[-1][0]._patches)
        bounds = pruning.bounds
        for _row, child, v_end, lo, hi in _rows(pruning):
            want = {
                h: ub
                for h, ub in zip(dyn.index.tree.bag[child], bounds[lo:hi])
                if ub > 0
            }
            assert pruning.lookup(child, v_end) == want, (child, v_end)
        for old, values in kept:
            assert old.bounds.tolist() == values
    assert folded
    path = str(tmp_path / "repaired.qflat")
    save_flat_index(dyn.index, path)
    loaded = load_flat_index(path)
    for name in COND_COLUMNS:
        assert (
            memoryview(getattr(loaded.pruning, name)).tobytes()
            == memoryview(getattr(dyn.index.pruning, name)).tobytes()
        ), name
