"""Tests for the analysis tooling (skyline growth, label depths)."""

import pytest

from repro.analysis import label_depth_profile, skyline_growth_profile
from repro.graph import estimate_diameter, grid_network


@pytest.fixture(scope="module")
def grid():
    return grid_network(9, 9, seed=13)


@pytest.fixture(scope="module")
def dmax(grid):
    return estimate_diameter(grid)


class TestSkylineGrowth:
    def test_five_bands_returned(self, grid, dmax):
        profiles = skyline_growth_profile(
            grid, d_max=dmax, num_sources=4, seed=1
        )
        assert [p.band for p in profiles] == ["Q1", "Q2", "Q3", "Q4", "Q5"]

    def test_band_edges_match_paper_formula(self, grid, dmax):
        profiles = skyline_growth_profile(
            grid, d_max=dmax, num_sources=2, seed=1
        )
        assert profiles[0].low == pytest.approx(dmax / 32)
        assert profiles[4].high == pytest.approx(dmax)

    def test_growth_with_distance(self, grid, dmax):
        """The paper's Fig. 6 mechanism: skylines grow with distance."""
        profiles = skyline_growth_profile(
            grid, d_max=dmax, num_sources=6, seed=2
        )
        sampled = [p for p in profiles if p.samples > 0]
        assert sampled[-1].avg_size > sampled[0].avg_size

    def test_max_at_least_avg(self, grid, dmax):
        for p in skyline_growth_profile(grid, d_max=dmax, num_sources=3):
            if p.samples:
                assert p.max_size >= p.avg_size

    def test_row_formatting(self, grid, dmax):
        profile = skyline_growth_profile(
            grid, d_max=dmax, num_sources=2
        )[0]
        assert "Q1" in profile.row()


class TestLabelDepthProfile:
    def test_counts_sum_to_sets(self, small_grid_index):
        profile = label_depth_profile(
            small_grid_index.labels, small_grid_index.tree
        )
        total = sum(count for count, _avg in profile.values())
        assert total == small_grid_index.labels.num_sets()

    def test_root_depth_absent(self, small_grid_index):
        # The root has no ancestors, hence no label sets.
        profile = label_depth_profile(
            small_grid_index.labels, small_grid_index.tree
        )
        assert 0 not in profile

