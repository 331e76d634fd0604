"""The cyclic-collector pause around index build, load and repair.

:func:`repro.gcpause.collector_paused` must be reentrant and
thread-safe, and every build, load or repair must leave
``gc.isenabled()`` exactly as it found it — also when it raises.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.core import QHLIndex
from repro.dynamic import DynamicQHLIndex, EdgeDelta, EpochManager, UpdateConfig
from repro.exceptions import DisconnectedGraphError, UpdateFailedError
from repro import gcpause
from repro.gcpause import collector_paused
from repro.graph import RoadNetwork, random_connected_network
from repro.service.faults import FaultInjector, use_injector
from repro.storage import load_index, save_index


@pytest.fixture(scope="module")
def net():
    return random_connected_network(25, 20, seed=8)


@pytest.fixture()
def dyn(net):
    return DynamicQHLIndex.build(net, num_index_queries=150, seed=0)


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts, and must end, with the collector enabled."""
    gc.enable()
    yield
    assert gc.isenabled()
    gc.enable()


def test_pause_disables_and_restores():
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_nesting_restores_only_on_outermost_exit():
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_exception_exit_restores():
    with pytest.raises(RuntimeError):
        with collector_paused():
            with collector_paused():
                raise RuntimeError("boom")
    assert gc.isenabled()


class _Node:
    pass


def _cycle() -> weakref.ref:
    node = _Node()
    node.self = node
    return weakref.ref(node)


def test_cycles_made_during_the_pause_are_freed_on_exit():
    with collector_paused():
        ref = _cycle()
        assert ref() is not None
    assert ref() is None


def test_caller_that_disabled_the_collector_keeps_it_disabled():
    gc.disable()
    try:
        with collector_paused():
            ref = _cycle()
            assert not gc.isenabled()
        assert not gc.isenabled()
        assert ref() is not None  # no collection behind the caller's back
    finally:
        gc.enable()


def test_overlapping_threads_leave_it_enabled():
    first_in = threading.Event()
    second_in = threading.Event()
    first_out = threading.Event()
    seen: list[bool] = []

    def first() -> None:
        with collector_paused():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second() -> None:
        first_in.wait(5)
        with collector_paused():
            second_in.set()
            first_out.wait(5)
            # The first thread left its block; this one still holds
            # the pause open.
            seen.append(gc.isenabled())

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert seen == [False]
    assert gc.isenabled()


def test_many_threads_nesting_leave_the_depth_balanced():
    errors: list[BaseException] = []

    def churn() -> None:
        try:
            for _ in range(300):
                with collector_paused():
                    with collector_paused():
                        if gc.isenabled():
                            raise AssertionError("enabled inside a pause")
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert gcpause._depth == 0
    assert gc.isenabled()


def test_failed_build_restores_the_collector():
    g = RoadNetwork(4)
    g.add_edge(0, 1, weight=1, cost=1)
    g.add_edge(2, 3, weight=1, cost=1)
    with pytest.raises(DisconnectedGraphError):
        QHLIndex.build(g)
    assert gc.isenabled()


def test_build_and_load_restore_the_collector(net, tmp_path):
    index = QHLIndex.build(net, num_index_queries=20)
    assert gc.isenabled()
    path = str(tmp_path / "net.idx")
    save_index(index, path)
    load_index(path)
    assert gc.isenabled()
    gc.disable()
    try:
        QHLIndex.build(net, num_index_queries=20)
        load_index(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
def test_build_frees_its_object_labels_before_the_collection(
    net, monkeypatch, store_paths
):
    """The collection that ends the build's pause must not walk the
    object labels the build has just frozen into columns."""
    from repro.core import engine

    refs: list[weakref.ref] = []
    build_labels = engine.build_labels

    def tracked(*args, **kwargs):
        labels = build_labels(*args, **kwargs)
        refs.append(weakref.ref(labels))
        return labels

    monkeypatch.setattr(engine, "build_labels", tracked)
    alive: list[bool] = []

    def watch(phase, info):
        if phase == "start" and refs:
            alive.append(refs[0]() is not None)

    gc.callbacks.append(watch)
    try:
        QHLIndex.build(net, num_index_queries=20, store_paths=store_paths)
    finally:
        gc.callbacks.remove(watch)
    assert len(refs) == 1
    assert alive, "the pause ended without a collection"
    assert alive[0] is False


def test_injected_repair_fault_restores_the_collector(dyn, tmp_path):
    config = UpdateConfig(
        audit_on_publish=False, replay_on_start=False
    )
    manager = EpochManager(dyn, str(tmp_path), config)
    injector = FaultInjector()
    injector.fail("update-repair", exc=RuntimeError, times=1)
    with use_injector(injector):
        with pytest.raises(UpdateFailedError):
            manager.apply([EdgeDelta(3, 64.0, 8.0)])
    assert gc.isenabled()
    assert manager.replay() == 1
    assert gc.isenabled()


def test_repair_deadline_inside_the_pause_restores_the_collector(
    dyn, tmp_path
):
    ticks = iter(range(0, 10_000, 100))  # 100 s per reading
    manager = EpochManager(
        dyn,
        str(tmp_path),
        UpdateConfig(
            audit_on_publish=False, max_repair_seconds=1.0,
            replay_on_start=False,
        ),
        clock=lambda: float(next(ticks)),
    )
    with pytest.raises(UpdateFailedError) as excinfo:
        manager.apply([EdgeDelta(3, 12.0, None)])
    assert excinfo.value.reason == "deadline"
    assert gc.isenabled()
