"""Clones share every per-vertex dict until a repair writes into it.

``DynamicQHLIndex.clone`` copies no label or shortcut dict; the first
write into a vertex's dict, by either side, copies that one dict.  These
tests pin the isolation that has to survive that sharing, in each
direction, on rollback, and the sharing itself on a no-op epoch.
"""

from __future__ import annotations

import pytest

from repro.dynamic import EdgeDelta, EpochManager, UpdateConfig
from repro.exceptions import UpdateFailedError
from repro.labeling.labels import LabelStore

#: Raises edge 3's weight: changes shortcuts and labels of the
#: ``dyn`` fixture.
BATCH = [(3, 55.0, None)]


def _pairs(entries):
    return [(e[0], e[1]) for e in entries]


def snapshot(dyn):
    """Every label and shortcut list of ``dyn``, with its pairs."""
    tree, labels = dyn.index.tree, dyn.index.labels
    return (
        [(v, u, entries, _pairs(entries)) for v, u, entries in labels.items()],
        [
            (x, w, entries, _pairs(entries))
            for x, row in tree.shortcuts.items()
            for w, entries in row.items()
        ],
    )


def assert_unchanged(dyn, snap):
    """Each list of ``snap`` is still served, the same object with the
    same pairs, and no list was added."""
    tree, labels = dyn.index.tree, dyn.index.labels
    label_sets, shortcut_sets = snap
    for v, u, entries, pairs in label_sets:
        got = labels.get(v, u)
        assert got is entries and _pairs(got) == pairs, (v, u)
    for x, w, entries, pairs in shortcut_sets:
        got = tree.shortcuts[x][w]
        assert got is entries and _pairs(got) == pairs, (x, w)
    assert labels.num_sets() == len(label_sets)
    assert sum(map(len, tree.shortcuts.values())) == len(shortcut_sets)


def test_repairing_a_clone_leaves_the_source_alone(dyn):
    snap = snapshot(dyn)
    twin = dyn.clone()
    report = twin.apply_deltas(BATCH)
    assert report.labels_changed > 0 and report.shortcuts_changed > 0
    assert_unchanged(dyn, snap)
    # The clone copied only the dicts it wrote into.
    n = dyn.index.tree.num_vertices
    shared = [
        twin.index.labels.label(v) is dyn.index.labels.label(v)
        for v in range(n)
    ]
    assert any(shared) and not all(shared)


def test_repairing_the_source_leaves_a_clone_alone(dyn):
    twin = dyn.clone()
    snap = snapshot(twin)
    report = dyn.apply_deltas(BATCH)
    assert report.labels_changed > 0 and report.shortcuts_changed > 0
    assert_unchanged(twin, snap)


def test_deadline_in_the_label_sweep_leaves_the_epoch_alone(
    dyn, tmp_path, monkeypatch
):
    """The repair's clock jumps past its budget right after the clone's
    first label write, so the deadline fires mid label sweep, after the
    clone has copied a dict the serving epoch still reads."""
    now = [0.0]
    writes = []
    set_label = LabelStore.set

    def set_then_expire(store, v, u, entries):
        set_label(store, v, u, entries)
        writes.append((v, u))
        now[0] = 100.0

    manager = EpochManager(
        dyn,
        str(tmp_path),
        UpdateConfig(
            audit_on_publish=False, max_repair_seconds=1.0,
            replay_on_start=False,
        ),
        clock=lambda: now[0],
    )
    serving = manager.epoch
    snap = snapshot(serving.dyn)
    monkeypatch.setattr(LabelStore, "set", set_then_expire)
    with pytest.raises(UpdateFailedError) as excinfo:
        manager.apply([EdgeDelta(*BATCH[0])])
    assert excinfo.value.reason == "deadline"
    assert writes
    assert manager.epoch is serving
    assert_unchanged(serving.dyn, snap)


def test_a_no_op_epoch_shares_every_dict(dyn, tmp_path):
    manager = EpochManager(
        dyn, str(tmp_path), UpdateConfig(replay_on_start=False)
    )
    before = manager.epoch.dyn.index
    edges = dyn.network_edges()
    manager.apply([EdgeDelta(i, *edges[i][2:]) for i in (0, 3, 7)])
    after = manager.epoch.dyn.index
    assert manager.epoch.id == 1 and after is not before
    n = before.tree.num_vertices
    assert all(
        after.labels.label(v) is before.labels.label(v) for v in range(n)
    )
    assert all(
        after.tree.shortcuts[v] is before.tree.shortcuts[v]
        for v in before.tree.shortcuts
    )
