"""Shared fixtures for the serving-layer / chaos suite."""

from __future__ import annotations

import pytest

from repro.core import QHLIndex
from repro.dynamic import DynamicQHLIndex
from repro.graph import grid_network


class FakeClock:
    """A manually advanced monotonic clock for deterministic tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture(scope="session")
def service_grid():
    """An 8x8 grid: large enough for non-trivial ladder queries."""
    return grid_network(8, 8, seed=1)


@pytest.fixture(scope="session")
def service_index(service_grid):
    return QHLIndex.build(service_grid, num_index_queries=200, seed=1)


@pytest.fixture(scope="session")
def object_index(service_grid):
    """``service_index`` as the dynamic build holds it: object labels,
    whose entry lists the corruption matrix edits in place."""
    return DynamicQHLIndex.build(
        service_grid, num_index_queries=200, seed=1
    ).index
