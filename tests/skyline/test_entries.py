"""Unit tests for skyline entries and path expansion."""

import pytest

from repro.core.concatenation import rejoin_with_mid
from repro.exceptions import ReproError
from repro.skyline import (
    edge_entry,
    expand,
    join_entry,
    path_of_pairs,
    zero_entry,
)
from repro.skyline.entries import EDGE, ROW, ZERO


class TestConstruction:
    def test_edge_entry_pair(self):
        assert edge_entry(3, 4, 0, 1)[:2] == (3, 4)

    def test_edge_entry_without_provenance(self):
        assert edge_entry(3, 4, 0, 1, with_prov=False)[2] is None

    def test_join_adds_metrics(self):
        a = edge_entry(3, 4, 0, 1)
        b = edge_entry(5, 6, 1, 2)
        assert join_entry(a, b, mid=1)[:2] == (8, 10)

    def test_join_drops_provenance_when_child_lacks_it(self):
        a = edge_entry(3, 4, 0, 1, with_prov=False)
        b = edge_entry(5, 6, 1, 2)
        assert join_entry(a, b, mid=1)[2] is None

    def test_zero_entry_is_identity(self):
        z = zero_entry(0)
        e = edge_entry(3, 4, 0, 1)
        assert join_entry(z, e, mid=0)[:2] == (3, 4)


class TestLayout:
    """Provenance sits inline in the entry tuple, one tuple per entry."""

    def test_edge(self):
        assert edge_entry(3, 4, 0, 1) == (3, 4, EDGE, 0, 1)
        assert edge_entry(3, 4, 0, 1, with_prov=False) == (3, 4, None)

    def test_zero(self):
        assert zero_entry(5) == (0, 0, ZERO, 5)
        assert zero_entry() == (0, 0, ZERO, None)
        assert zero_entry(5, with_prov=False) == (0, 0, None)

    def test_join_holds_its_children(self):
        a = edge_entry(3, 4, 0, 1)
        b = edge_entry(5, 6, 1, 2)
        joined = join_entry(a, b, mid=1)
        assert joined == (8, 10, 1, a, b)
        assert joined[3] is a and joined[4] is b

    def test_rejoin_with_mid_restamps_the_junction(self):
        a = edge_entry(3, 4, 0, 1)
        b = edge_entry(5, 6, 1, 2)
        stamped = rejoin_with_mid(join_entry(a, b, mid=-1), 1)
        assert stamped == (8, 10, 1, a, b)
        assert stamped[3] is a and stamped[4] is b
        bare = (8, 10, None)
        assert rejoin_with_mid(bare, 1) is bare


class _Rows:
    """A stand-in flat store: row ``i`` walks to ``paths[i]``."""

    paths = ([4, 7], [9, 8, 7])

    def walk(self, i):
        return list(self.paths[i])


class TestExpansion:
    def test_row(self):
        assert expand((2, 2, ROW, _Rows(), 1), 7, 9) == [7, 8, 9]

    def test_join_of_rows(self):
        left = (1, 1, ROW, _Rows(), 0)
        right = (2, 2, ROW, _Rows(), 1)
        joined = join_entry(left, right, mid=7)
        assert expand(joined, 4, 9) == [4, 7, 8, 9]
        assert expand(joined, 9, 4) == [9, 8, 7, 4]

    def test_join_with_anonymous_zero_child_raises(self):
        joined = join_entry(edge_entry(1, 1, 0, 1), zero_entry(), mid=1)
        with pytest.raises(ReproError, match="anonymous"):
            expand(joined, 0, 1)

    def test_edge_forward(self):
        assert expand(edge_entry(1, 1, 4, 7), 4, 7) == [4, 7]

    def test_edge_reversed(self):
        assert expand(edge_entry(1, 1, 4, 7), 7, 4) == [7, 4]

    def test_zero(self):
        assert expand(zero_entry(3), 3, 3) == [3]

    def test_join_forward(self):
        a = edge_entry(1, 1, 0, 1)
        b = edge_entry(1, 1, 1, 2)
        assert expand(join_entry(a, b, mid=1), 0, 2) == [0, 1, 2]

    def test_join_reversed(self):
        a = edge_entry(1, 1, 0, 1)
        b = edge_entry(1, 1, 1, 2)
        assert expand(join_entry(a, b, mid=1), 2, 0) == [2, 1, 0]

    def test_join_with_reversed_children(self):
        # Children built in the "wrong" direction still orient correctly.
        a = edge_entry(1, 1, 1, 0)  # built as (1, 0)
        b = edge_entry(1, 1, 2, 1)  # built as (2, 1)
        assert expand(join_entry(a, b, mid=1), 0, 2) == [0, 1, 2]

    def test_nested_joins(self):
        e01 = edge_entry(1, 1, 0, 1)
        e12 = edge_entry(1, 1, 1, 2)
        e23 = edge_entry(1, 1, 2, 3)
        left = join_entry(e01, e12, mid=1)
        full = join_entry(left, e23, mid=2)
        assert expand(full, 0, 3) == [0, 1, 2, 3]
        assert expand(full, 3, 0) == [3, 2, 1, 0]

    def test_missing_provenance_raises(self):
        with pytest.raises(ReproError):
            expand((1, 1, None), 0, 1)

    def test_wrong_endpoints_raise(self):
        with pytest.raises(ReproError):
            expand(edge_entry(1, 1, 0, 1), 0, 5)

    def test_anonymous_zero_cannot_expand(self):
        with pytest.raises(ReproError, match="anonymous"):
            expand(zero_entry(), 0, 0)


class TestHelpers:
    def test_path_of_pairs(self):
        entries = [edge_entry(1, 2, 0, 1), edge_entry(3, 4, 1, 2)]
        assert path_of_pairs(entries) == [(1, 2), (3, 4)]
