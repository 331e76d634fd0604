"""The deep index audit and its corruption matrix.

Five seeded corruption classes, each mapped to the named check that
must catch it:

==============================  ======================
corruption                      failing check
==============================  ======================
dominated skyline entry         ``label-dominance``
swapped / non-increasing costs  ``label-order``
dropped hoplink                 ``label-coverage``
truncated label table           ``label-coverage``
stale storage checksum          ``storage-checksum`` (``repro verify``)
flat: duplicated cost           ``label-order``
flat: unsorted hubs             ``flat-columns``
flat: broken offset table       ``flat-columns``
flat: provenance kind/row/edge  ``flat-columns``
flat: path not a matching walk  ``flat-columns``
flat: bit-flipped envelope      ``storage-checksum`` (``repro verify``)
==============================  ======================

Plus: the audit passes on every honestly built index, the wrong-values
class (structurally valid, semantically wrong) falls to the
spot-check, and the :class:`~repro.service.ladder.QueryService`
``require_audit`` gate degrades instead of serving from a bad index.
"""

from __future__ import annotations

import copy

import pytest

from repro.cli import main
from repro.exceptions import AuditError, SerializationError
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.resilience.audit import audit_index
from repro.service import QueryService, ServiceConfig
from repro.storage.serialize import load_index, save_index


# ----------------------------------------------------------------------
# Corruption helpers (each returns a deep-copied, seeded-bad index)
# ----------------------------------------------------------------------
def _rich_pair(index, min_entries=2):
    """Some ``(v, u, entries)`` with at least ``min_entries`` entries."""
    for v, u, entries in index.labels.items():
        if len(entries) >= min_entries:
            return v, u, entries
    raise AssertionError("index has no skyline set large enough")


def corrupt_dominated_entry(index):
    """Append an entry dominated by the set's last entry (costs stay
    sorted, so only dominance-freeness breaks)."""
    bad = copy.deepcopy(index)
    _v, _u, entries = _rich_pair(bad, min_entries=1)
    last = entries[-1]
    entries.append((last[0], last[1] + 1, None))
    return bad


def corrupt_cost_order(index):
    """Swap the first two entries of one set: costs now decrease."""
    bad = copy.deepcopy(index)
    _v, _u, entries = _rich_pair(bad)
    entries[0], entries[1] = entries[1], entries[0]
    return bad


def corrupt_dropped_hoplink(index):
    """Delete one hub from one label: an ancestor loses its entry."""
    bad = copy.deepcopy(index)
    v, u, _entries = _rich_pair(bad, min_entries=1)
    del bad.labels.label(v)[u]
    return bad


def corrupt_truncated_table(index):
    """Wipe the whole label of the deepest vertices, as a torn write
    to a label table would."""
    bad = copy.deepcopy(index)
    victims = sorted(
        range(bad.tree.num_vertices),
        key=lambda v: bad.tree.depth[v],
        reverse=True,
    )[:3]
    for v in victims:
        bad.labels.label(v).clear()
    return bad


def corrupt_label_values(index):
    """Halve every weight: structurally pristine, semantically wrong."""
    bad = copy.deepcopy(index)
    for v, u, entries in list(bad.labels.items()):
        bad.labels.set(
            v, u, [(w * 0.5, c, None) for (w, c, *_rest) in entries]
        )
    return bad


CORRUPTIONS = {
    "dominated-entry": (corrupt_dominated_entry, "label-dominance"),
    "swapped-cost-order": (corrupt_cost_order, "label-order"),
    "dropped-hoplink": (corrupt_dropped_hoplink, "label-coverage"),
    "truncated-table": (corrupt_truncated_table, "label-coverage"),
}


# ----------------------------------------------------------------------
# audit_index() itself
# ----------------------------------------------------------------------
class TestAuditIndex:
    def test_clean_index_passes_every_check(self, object_index):
        report = audit_index(object_index, queries=6, seed=3)
        assert report.ok
        assert {check.name for check in report.checks} == {
            "tree-structure",
            "label-order",
            "label-dominance",
            "label-coverage",
            "lca",
            "spot-check",
        }
        assert all(check.checked > 0 for check in report.checks)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_each_corruption_trips_its_check(self, object_index, name):
        mutate, expected_check = CORRUPTIONS[name]
        bad = mutate(object_index)
        report = audit_index(bad, queries=0, seed=0)
        assert not report.ok
        assert expected_check in report.failed_checks(), (
            f"{name}: expected {expected_check} to fail, "
            f"got {report.failed_checks()}"
        )

    def test_order_and_dominance_checks_are_distinct(self, object_index):
        # An equal-cost entry with still-decreasing weights violates
        # *only* the cost order; an appended dominated entry violates
        # *only* dominance-freeness.
        order_bad = copy.deepcopy(object_index)
        _v, _u, entries = _rich_pair(order_bad)
        entries[1] = (entries[1][0], entries[0][1], None)
        report = audit_index(order_bad, queries=0)
        assert "label-order" in report.failed_checks()
        assert "label-dominance" not in report.failed_checks()

        dom_bad = corrupt_dominated_entry(object_index)
        report = audit_index(dom_bad, queries=0)
        assert "label-dominance" in report.failed_checks()
        assert "label-order" not in report.failed_checks()

    def test_wrong_values_fall_to_the_spot_check(self, object_index):
        bad = corrupt_label_values(object_index)
        structural = audit_index(bad, queries=0)
        assert structural.ok  # order/dominance/coverage all still hold
        semantic = audit_index(bad, queries=8, seed=1)
        assert semantic.failed_checks() == ["spot-check"]

    def test_report_is_machine_readable(self, object_index):
        bad = corrupt_dropped_hoplink(object_index)
        data = audit_index(bad, queries=0).to_dict()
        assert data["ok"] is False
        by_name = {check["name"]: check for check in data["checks"]}
        coverage = by_name["label-coverage"]
        assert coverage["problem_count"] >= 1
        assert "missing" in coverage["problems"][0]

    def test_index_audit_facade(self, service_index):
        assert service_index.audit(queries=2, seed=0).ok

    def test_audit_metrics_land_in_registry(self, object_index):
        registry = MetricsRegistry()
        bad = corrupt_dominated_entry(object_index)
        with use_registry(registry):
            audit_index(object_index, queries=2, seed=0)
            audit_index(bad, queries=0, seed=0)
        assert registry.counter(
            "audit_runs_total", {"status": "pass"}
        ).value == 1
        assert registry.counter(
            "audit_runs_total", {"status": "fail"}
        ).value == 1
        assert registry.counter(
            "audit_checks_total",
            {"check": "label-dominance", "status": "fail"},
        ).value == 1
        assert registry.counter(
            "audit_problems_total", {"check": "label-dominance"}
        ).value >= 1
        assert registry.gauge("audit_seconds").value >= 0


# ----------------------------------------------------------------------
# The CLI corruption matrix: `repro-qhl verify` flags all 5 classes
# ----------------------------------------------------------------------
class TestVerifyCommand:
    def _saved(self, index, tmp_path, name):
        path = str(tmp_path / name)
        save_index(index, path)
        return path

    def test_clean_index_verifies(self, service_index, tmp_path, capsys):
        path = self._saved(service_index, tmp_path, "clean.idx")
        assert main(["verify", "--index", path, "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "audit PASS" in out
        assert "storage-checksum" in out

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_verify_flags_label_corruptions(
        self, object_index, tmp_path, capsys, name
    ):
        mutate, expected_check = CORRUPTIONS[name]
        path = self._saved(mutate(object_index), tmp_path, f"{name}.idx")
        assert main(
            ["verify", "--index", path, "--queries", "0"]
        ) == 1
        out = capsys.readouterr().out
        assert "audit FAIL" in out
        assert f"FAIL {expected_check}" in out

    def test_verify_flags_stale_checksum(
        self, service_index, tmp_path, capsys
    ):
        path = self._saved(service_index, tmp_path, "stale.idx")
        # Flip one column byte but keep the recorded checksum: the
        # classic stale-checksum / bit-rot corruption.
        data = bytearray(open(path, "rb").read())
        data[len(data) * 3 // 4] ^= 0xFF
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError):
            load_index(path)
        assert main(["verify", "--index", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL storage-checksum" in out

    def test_verify_json_output(self, object_index, tmp_path, capsys):
        import json

        bad = corrupt_cost_order(object_index)
        path = self._saved(bad, tmp_path, "bad.idx")
        assert main(
            ["verify", "--index", path, "--queries", "0", "--json"]
        ) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        failed = [c["name"] for c in data["checks"] if not c["ok"]]
        assert "label-order" in failed


# ----------------------------------------------------------------------
# Flat (columnar) indexes: the same audit plus the flat-columns check
# ----------------------------------------------------------------------
class TestFlatIndexAudit:
    """Seeded corruption over flat columns.

    ``pack_labels`` packs *fresh* arrays from the object labels of the
    dynamic build, so each fixture use gets a private, mutable column
    set — corrupting it cannot leak into the session-scoped indexes.
    """

    @pytest.fixture()
    def flat_index(self, object_index):
        from repro.core import QHLIndex
        from repro.storage import FlatLabelStore, pack_labels

        return QHLIndex(
            object_index.network,
            object_index.tree,
            FlatLabelStore.from_compact(pack_labels(object_index.labels)),
            object_index.lca,
            object_index.pruning,
        )

    def _rich_set_bounds(self, labels, min_entries=2):
        """Bounds of some skyline set with at least ``min_entries``."""
        offsets = labels.entry_offsets
        for i in range(len(offsets) - 1):
            if offsets[i + 1] - offsets[i] >= min_entries:
                return offsets[i], offsets[i + 1]
        raise AssertionError("flat index has no set large enough")

    def test_clean_flat_index_passes_with_flat_columns_check(
        self, flat_index
    ):
        report = audit_index(flat_index, queries=6, seed=3)
        assert report.ok
        assert {check.name for check in report.checks} == {
            "tree-structure",
            "flat-columns",
            "label-order",
            "label-dominance",
            "label-coverage",
            "lca",
            "spot-check",
        }
        assert report.check("flat-columns").checked > 0

    def test_corrupt_cost_column_trips_label_order(self, flat_index):
        # Duplicate a cost inside one set: weights still decrease, so
        # only the strictly-increasing-cost invariant breaks — the same
        # audit check that catches it on object indexes.
        lo, _hi = self._rich_set_bounds(flat_index.labels)
        flat_index.labels.costs[lo + 1] = flat_index.labels.costs[lo]
        report = audit_index(flat_index, queries=0)
        assert "label-order" in report.failed_checks()

    def test_corrupt_hub_order_trips_flat_columns(self, flat_index):
        labels = flat_index.labels
        for v in range(labels.num_vertices):
            lo, hi = labels.set_offsets[v], labels.set_offsets[v + 1]
            if hi - lo >= 2:
                labels.hubs[lo], labels.hubs[lo + 1] = (
                    labels.hubs[lo + 1],
                    labels.hubs[lo],
                )
                break
        else:
            raise AssertionError("no vertex with two hubs")
        report = audit_index(flat_index, queries=0)
        assert "flat-columns" in report.failed_checks()

    def test_corrupt_offset_table_trips_flat_columns(self, flat_index):
        offsets = flat_index.labels.entry_offsets
        mid = len(offsets) // 2
        offsets[mid] = offsets[mid + 1] + 1  # no longer non-decreasing
        report = audit_index(flat_index, queries=0)
        assert "flat-columns" in report.failed_checks()

    @pytest.fixture()
    def paths_index(self, object_index):
        """Flat columns with (fresh, mutable) provenance columns."""
        from repro.core import QHLIndex
        from repro.storage import FlatLabelStore, pack_labels

        return QHLIndex(
            object_index.network,
            object_index.tree,
            FlatLabelStore.from_compact(
                pack_labels(object_index.labels, provenance=True)
            ),
            object_index.lca,
            object_index.pruning,
        )

    def _rows_of_kind(self, labels, kind):
        kinds = labels.provenance[0]
        return [r for r in range(len(kinds)) if kinds[r] == kind]

    def test_clean_provenance_passes(self, paths_index):
        report = audit_index(paths_index, queries=2, seed=5)
        assert report.ok
        check = report.check("flat-columns")
        assert check.checked > len(paths_index.labels.provenance[0])

    def test_unknown_kind_trips_flat_columns(self, paths_index):
        paths_index.labels.provenance[0][3] = 7
        report = audit_index(paths_index, queries=0)
        assert report.failed_checks() == ["flat-columns"]
        assert "kind 7" in report.check("flat-columns").problems[0]

    def test_child_row_out_of_range_trips_flat_columns(self, paths_index):
        from repro.storage.compact import PROV_JOIN

        labels = paths_index.labels
        row = self._rows_of_kind(labels, PROV_JOIN)[0]
        labels.provenance[2][row] = len(labels.provenance[0])
        report = audit_index(paths_index, queries=0)
        assert report.failed_checks() == ["flat-columns"]

    def test_edge_row_off_the_network_trips_flat_columns(
        self, paths_index
    ):
        from repro.storage.compact import PROV_EDGE

        labels, network = paths_index.labels, paths_index.network
        row = self._rows_of_kind(labels, PROV_EDGE)[0]
        a = labels.provenance[1][row]
        stranger = next(
            v for v in range(network.num_vertices)
            if v != a and not network.has_edge(a, v)
        )
        labels.provenance[2][row] = stranger
        report = audit_index(paths_index, queries=0)
        assert report.failed_checks() == ["flat-columns"]
        assert any(
            "not a network edge" in problem
            for problem in report.check("flat-columns").problems
        )

    def test_miswired_junctions_fail_the_sampled_walks(self, paths_index):
        # Every join now names the wrong junction: the rows stay in
        # range, but no sampled row expands to a matching walk.
        from repro.storage.compact import PROV_JOIN

        labels = paths_index.labels
        junctions = labels.provenance[1]
        for row in self._rows_of_kind(labels, PROV_JOIN):
            junctions[row] = (junctions[row] + 1) % labels.num_vertices
        report = audit_index(paths_index, queries=0)
        assert report.failed_checks() == ["flat-columns"]
        assert any(
            "does not expand" in problem
            for problem in report.check("flat-columns").problems
        )

    def test_swapped_provenance_fails_the_walk_sums(self, paths_index):
        # Within each skyline set, neighbouring rows trade provenance:
        # every path still joins the set's two vertices, but sums to
        # its neighbour's (weight, cost).
        labels = paths_index.labels
        offsets = labels.entry_offsets
        for i in range(labels.num_sets()):
            for row in range(offsets[i], offsets[i + 1] - 1, 2):
                for column in labels.provenance:
                    column[row], column[row + 1] = (
                        column[row + 1], column[row],
                    )
        report = audit_index(paths_index, queries=0)
        assert report.failed_checks() == ["flat-columns"]
        assert any(
            "does not sum to" in problem
            for problem in report.check("flat-columns").problems
        )

    def test_verify_flat_clean_and_bit_flipped(
        self, service_index, tmp_path, capsys
    ):
        from repro.storage import save_flat_index

        path = str(tmp_path / "clean.qflat")
        save_flat_index(service_index, path)
        assert main(
            ["verify", "--index", path, "--queries", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "audit PASS" in out
        assert "flat-columns" in out

        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x10
        with open(path, "wb") as f:
            f.write(bytes(data))
        assert main(
            ["verify", "--index", path, "--queries", "0"]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL storage-checksum" in out


# ----------------------------------------------------------------------
# The service's require_audit gate
# ----------------------------------------------------------------------
class TestRequireAuditGate:
    def test_clean_index_serves_normally(self, service_index):
        service = QueryService(
            index=service_index,
            config=ServiceConfig(require_audit=True, audit_queries=2),
        )
        assert service.tiers == ["QHL-flat", "CSP-2Hop", "SkyDijkstra"]
        assert service.audit_report is not None and service.audit_report.ok
        assert service.query(0, 63, budget=400).engine == "QHL-flat"

    def test_bad_index_degrades_to_index_free_tier(self, object_index):
        bad = corrupt_dominated_entry(object_index)
        registry = MetricsRegistry()
        with use_registry(registry):
            service = QueryService(
                index=bad,
                config=ServiceConfig(require_audit=True, audit_queries=0),
            )
        assert service.tiers == ["SkyDijkstra"]
        assert isinstance(service.index_load_error, AuditError)
        assert service.index_load_error.report is not None
        assert not service.audit_report.ok
        assert registry.counter(
            "service_index_audit_failures_total"
        ).value == 1
        # Still answers queries, exactly, just slower.
        result = service.query(0, 63, budget=400)
        assert result.engine == "SkyDijkstra"
        assert result.feasible

    def test_bad_index_with_no_fallback_raises(self, object_index):
        bad = corrupt_cost_order(object_index)
        with pytest.raises(AuditError, match="self-audit"):
            QueryService(
                index=bad,
                config=ServiceConfig(
                    require_audit=True,
                    audit_queries=0,
                    tiers=("QHL", "CSP-2Hop"),
                ),
            )

    def test_gate_off_by_default(self, object_index):
        bad = corrupt_dominated_entry(object_index)
        service = QueryService(index=bad)
        assert service.audit_report is None
        assert "QHL" in service.tiers
