"""Fixture tests for the call-graph-aware rules (QHL000, QHL007-QHL010)
and the interprocedural QHL001 upgrade.

Each rule gets at least one seeded violation that must fire and one
corrected form that must stay quiet — the rules' contract is exactness
on both sides, not just recall.
"""

from __future__ import annotations


def _rules(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# QHL001 interprocedural upgrade


class TestInterproceduralDeadline:
    def test_checkpoint_through_callee_is_clean(self, harness):
        """The regression the upgrade exists for: a loop that delegates
        to a helper which (transitively) checks the deadline used to
        need blind forwarding credit; now the chain is verified."""
        harness.write(
            "src/repro/core/sample.py",
            """
            def _step(state, deadline):
                deadline.check()
                return state + 1

            def drive(items, deadline):
                state = 0
                for item in items:
                    state = _step(state, deadline)
                return state
            """,
        )
        assert harness.findings("QHL001") == []

    def test_two_hop_checkpoint_chain_is_clean(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            def _leaf(deadline):
                deadline.check()

            def _mid(deadline):
                _leaf(deadline)

            def drive(items, deadline):
                for item in items:
                    _mid(deadline)
            """,
        )
        assert harness.findings("QHL001") == []

    def test_self_method_checkpoint_is_clean(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            class Engine:
                def _checkpoint(self, deadline):
                    deadline.check()

                def run(self, items, deadline):
                    for item in items:
                        self._checkpoint(deadline)
            """,
        )
        assert harness.findings("QHL001") == []

    def test_genuinely_uncheckpointed_loop_still_fires(self, harness):
        """The other half of the regression: delegation to a resolved
        helper that never checks is not credit."""
        harness.write(
            "src/repro/core/sample.py",
            """
            def _step(state):
                return state + 1

            def drive(items, deadline):
                state = 0
                for item in items:
                    state = _step(state)
                return state
            """,
        )
        findings = harness.findings("QHL001")
        assert _rules(findings) == ["QHL001"]
        assert "drive()" in findings[0].message

    def test_forwarding_into_a_sink_fires(self, harness):
        """Forwarding the deadline to a resolved function that never
        checks it was silently credited by the old rule; now it is its
        own finding."""
        harness.write(
            "src/repro/core/sample.py",
            """
            def _sink(item, deadline):
                return item

            def drive(items, deadline):
                out = []
                for item in items:
                    out.append(_sink(item, deadline))
                return out
            """,
        )
        findings = harness.findings("QHL001")
        assert _rules(findings) == ["QHL001"]
        assert "_sink" in findings[0].message

    def test_forwarding_to_unresolvable_callee_keeps_credit(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            import external

            def drive(items, deadline):
                for item in items:
                    external.answer(item, deadline=deadline)
            """,
        )
        assert harness.findings("QHL001") == []

    def test_depth_bound_cuts_off_deep_chains(self, harness):
        hops = "\n".join(
            f"def _h{i}(deadline):\n    _h{i + 1}(deadline)\n"
            for i in range(8)
        )
        harness.write(
            "src/repro/core/sample.py",
            f"""
{hops}
def _h8(deadline):
    deadline.check()

def drive(items, deadline):
    for item in items:
        _h0(deadline)
""",
        )
        # _h0 is 9 hops from the check; depth 5 must not credit it,
        # but the forward-sink path fires instead of the generic one.
        findings = harness.findings("QHL001")
        assert _rules(findings) == ["QHL001"]


# ----------------------------------------------------------------------
# QHL007 fork-safety


_POOL_STUB = """
class SupervisedPool:
    def __init__(self, entrypoint, **kwargs):
        self.entrypoint = entrypoint
"""


class TestForkSafety:
    def test_module_handle_used_by_entrypoint_fires(self, harness):
        harness.write("src/repro/supervise/pool.py", _POOL_STUB)
        harness.write(
            "src/repro/perf/sample.py",
            """
            from repro.supervise.pool import SupervisedPool

            _log = open("/tmp/worker.log", "a")

            def _chunk(payload):
                _log.write(str(payload))
                return payload

            def run():
                return SupervisedPool(_chunk, workers=2)
            """,
        )
        findings = harness.findings("QHL007")
        assert _rules(findings) == ["QHL007"]
        assert "open file handle" in findings[0].message
        assert "_chunk" in findings[0].message

    def test_lock_reached_through_helper_fires(self, harness):
        """Interprocedural: the capture sits in a helper the
        entrypoint calls, not in the entrypoint itself."""
        harness.write("src/repro/supervise/pool.py", _POOL_STUB)
        harness.write(
            "src/repro/perf/sample.py",
            """
            import threading

            from repro.supervise.pool import SupervisedPool

            _lock = threading.Lock()

            def _helper(payload):
                with _lock:
                    return payload

            def _chunk(payload):
                return _helper(payload)

            def run():
                return SupervisedPool(_chunk, workers=2)
            """,
        )
        findings = harness.findings("QHL007")
        assert _rules(findings) == ["QHL007"]
        assert "synchronisation primitive" in findings[0].message
        assert "_helper" in findings[0].message

    def test_rebound_in_child_is_clean(self, harness):
        harness.write("src/repro/supervise/pool.py", _POOL_STUB)
        harness.write(
            "src/repro/perf/sample.py",
            """
            from repro.supervise.pool import SupervisedPool

            _log = open("/tmp/parent.log", "a")

            def _chunk(payload, path):
                _log = open(path, "a")
                _log.write(str(payload))
                return payload

            def run():
                return SupervisedPool(_chunk, workers=2)
            """,
        )
        assert harness.findings("QHL007") == []

    def test_deadline_default_argument_fires(self, harness):
        harness.write("src/repro/supervise/pool.py", _POOL_STUB)
        harness.write(
            "src/repro/perf/sample.py",
            """
            from repro.service.deadline import Deadline
            from repro.supervise.pool import SupervisedPool

            def _chunk(payload, deadline=Deadline(50.0)):
                deadline.check()
                return payload

            def run():
                return SupervisedPool(_chunk, workers=2)
            """,
        )
        findings = harness.findings("QHL007")
        assert _rules(findings) == ["QHL007"]
        assert "default" in findings[0].message

    def test_function_not_reachable_from_entrypoint_is_clean(
        self, harness
    ):
        harness.write("src/repro/supervise/pool.py", _POOL_STUB)
        harness.write(
            "src/repro/perf/sample.py",
            """
            from repro.supervise.pool import SupervisedPool

            _log = open("/tmp/parent.log", "a")

            def _chunk(payload):
                return payload

            def parent_only():
                _log.write("parent side")

            def run():
                return SupervisedPool(_chunk, workers=2)
            """,
        )
        assert harness.findings("QHL007") == []


# ----------------------------------------------------------------------
# QHL008 durability discipline


class TestDurability:
    def test_bare_write_to_journal_path_fires(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            def save(journal_path, lines):
                with open(journal_path, "w") as handle:
                    handle.writelines(lines)
            """,
        )
        findings = harness.findings("QHL008")
        assert _rules(findings) == ["QHL008"]
        assert "atomic" in findings[0].message

    def test_atomic_writer_is_clean(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            import os

            def save(journal_path, data):
                tmp = journal_path + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, journal_path)
            """,
        )
        assert harness.findings("QHL008") == []

    def test_append_without_fsync_fires(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            def append(journal_path, line):
                with open(journal_path, "a") as handle:
                    handle.write(line)
                    handle.flush()
            """,
        )
        findings = harness.findings("QHL008")
        assert _rules(findings) == ["QHL008"]
        assert "os.fsync" in findings[0].message

    def test_append_with_flush_and_fsync_is_clean(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            import os

            def append(journal_path, line):
                with open(journal_path, "a") as handle:
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
            """,
        )
        assert harness.findings("QHL008") == []

    def test_append_fsync_through_helper_is_clean(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            import os

            def _sync(handle):
                handle.flush()
                os.fsync(handle.fileno())

            def append(journal_path, line):
                with open(journal_path, "a") as handle:
                    handle.write(line)
                    _sync(handle)
            """,
        )
        assert harness.findings("QHL008") == []

    def test_scratch_paths_are_out_of_scope(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            def save_report(report_path, text):
                with open(report_path, "w") as handle:
                    handle.write(text)
            """,
        )
        assert harness.findings("QHL008") == []

    def test_reads_never_fire(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            def load(journal_path):
                with open(journal_path) as handle:
                    return handle.read()
            """,
        )
        assert harness.findings("QHL008") == []


# ----------------------------------------------------------------------
# QHL009 epoch immutability


class TestEpochImmutability:
    def test_store_into_epoch_attribute_fires(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            from repro.dynamic.epochs import Epoch

            def rebadge(epoch: Epoch, seq: int) -> None:
                epoch.id = seq
            """,
        )
        findings = harness.findings("QHL009")
        assert _rules(findings) == ["QHL009"]
        assert "Epoch" in findings[0].message

    def test_mutating_method_on_store_attribute_fires(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            from repro.storage.flat import FlatLabelStore

            def grow(store: FlatLabelStore, items) -> None:
                store.hubs.extend(items)
            """,
        )
        findings = harness.findings("QHL009")
        assert _rules(findings) == ["QHL009"]

    def test_subscript_store_into_memoryview_fires(self, harness):
        harness.write(
            "src/repro/storage/sample.py",
            """
            def patch(buffer, index, value):
                view = memoryview(buffer)
                view[index] = value
            """,
        )
        findings = harness.findings("QHL009")
        assert _rules(findings) == ["QHL009"]

    def test_mutation_laundered_through_helper_fires(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            from repro.dynamic.epochs import Epoch

            def _rebadge(target, seq):
                target.id = seq

            def apply(epoch: Epoch, seq: int) -> None:
                _rebadge(epoch, seq)
            """,
        )
        findings = harness.findings("QHL009")
        rules = _rules(findings)
        # The helper mutates an (untyped) parameter — only the
        # call-site handing it a typed epoch is the violation.
        assert rules == ["QHL009"]
        assert "_rebadge" in findings[0].message

    def test_constructing_function_owns_its_value(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            from repro.dynamic.epochs import Epoch

            def build(dyn, config, now):
                epoch = Epoch(0, dyn, config, now)
                epoch.id = 1
                return epoch
            """,
        )
        assert harness.findings("QHL009") == []

    def test_protected_class_manages_itself(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            class Epoch:
                def __init__(self):
                    self.readers = 0

                def retain(self):
                    self.readers += 1
            """,
        )
        assert harness.findings("QHL009") == []

    def test_reads_are_clean(self, harness):
        harness.write(
            "src/repro/dynamic/sample.py",
            """
            from repro.dynamic.epochs import Epoch

            def describe(epoch: Epoch) -> str:
                return f"epoch {epoch.id}"
            """,
        )
        assert harness.findings("QHL009") == []


# ----------------------------------------------------------------------
# QHL010 registry reachability


class TestRegistryReachability:
    def _write_fault_registry(self, harness, *points: str) -> None:
        declared = ", ".join(repr(p) for p in points)
        harness.write(
            "src/repro/service/faults.py",
            f"""
            INJECTION_POINTS = ({declared},)

            class FaultInjector:
                def fire(self, point, **context):
                    return None
            """,
        )

    def test_never_fired_point_is_dead_taxonomy(self, harness):
        self._write_fault_registry(harness, "index-load", "ghost-point")
        harness.write(
            "src/repro/storage/sample.py",
            """
            from repro.service.faults import FaultInjector

            def load(injector: FaultInjector):
                injector.fire("index-load")
            """,
        )
        findings = harness.findings("QHL010")
        assert _rules(findings) == ["QHL010"]
        assert "ghost-point" in findings[0].message
        assert "never fired" in findings[0].message

    def test_point_fired_only_from_dead_code_fires(self, harness):
        self._write_fault_registry(harness, "index-load", "orphan-point")
        harness.write(
            "src/repro/storage/sample.py",
            """
            from repro.service.faults import FaultInjector

            def load(injector: FaultInjector):
                injector.fire("index-load")

            def _nobody_calls_this(injector: FaultInjector):
                injector.fire("orphan-point")
            """,
        )
        findings = harness.findings("QHL010")
        assert _rules(findings) == ["QHL010"]
        assert "orphan-point" in findings[0].message
        assert "unreachable" in findings[0].message

    def test_reachable_emission_is_clean(self, harness):
        self._write_fault_registry(harness, "index-load")
        harness.write(
            "src/repro/storage/sample.py",
            """
            from repro.service.faults import FaultInjector

            def load(injector: FaultInjector):
                injector.fire("index-load")
            """,
        )
        assert harness.findings("QHL010") == []

    def test_skips_when_registry_outside_linted_set(self, harness):
        harness.write(
            "src/repro/storage/sample.py",
            """
            def load():
                return 1
            """,
        )
        # No registry module in the tree at all: rule must stay quiet
        # rather than guess (QHL004/QHL005 own the hard-failure path).
        assert harness.findings("QHL010") == []

    _METRICS = """
    METRICS = {"qhl_test_total": ("counter", (), "fixture")}
    """

    def test_metric_emitted_only_from_dead_code_fires(self, harness):
        harness.write("src/repro/observability/names.py", self._METRICS)
        harness.write(
            "src/repro/core/sample.py",
            """
            def _nobody_calls_this(registry):
                registry.counter("qhl_test_total").inc()
            """,
        )
        findings = harness.findings("QHL010")
        assert _rules(findings) == ["QHL010"]
        assert "qhl_test_total" in findings[0].message
        assert "unreachable" in findings[0].message

    def test_never_emitted_metric_is_left_to_qhl004(self, harness):
        harness.write("src/repro/observability/names.py", self._METRICS)
        harness.write(
            "src/repro/core/sample.py",
            """
            def observe(registry):
                return registry
            """,
        )
        assert harness.findings("QHL010") == []

    def test_reachable_metric_is_clean(self, harness):
        harness.write("src/repro/observability/names.py", self._METRICS)
        harness.write(
            "src/repro/core/sample.py",
            """
            def observe(registry):
                registry.counter("qhl_test_total").inc()
            """,
        )
        assert harness.findings("QHL010") == []

    _INCIDENTS = """
    INCIDENT_KINDS = ("spawn", "ghost-kind")
    """

    def test_never_recorded_incident_kind_fires(self, harness):
        harness.write("src/repro/supervise/incidents.py", self._INCIDENTS)
        harness.write(
            "src/repro/supervise/sample.py",
            """
            def start(log):
                log.new("spawn", worker="w0", pid=1, detail="")
            """,
        )
        findings = harness.findings("QHL010")
        assert _rules(findings) == ["QHL010"]
        assert "ghost-kind" in findings[0].message

    def test_recorded_incident_kinds_are_clean(self, harness):
        harness.write("src/repro/supervise/incidents.py", self._INCIDENTS)
        harness.write(
            "src/repro/supervise/sample.py",
            """
            def start(log):
                log.new("spawn", worker="w0", pid=1, detail="")
                log.new(kind="ghost-kind", worker="w0", pid=1, detail="")
            """,
        )
        assert harness.findings("QHL010") == []


# ----------------------------------------------------------------------
# QHL000 stale pragmas


class TestStalePragmas:
    def test_pragma_suppressing_live_finding_is_kept(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            def drive(items, deadline):
                for item in items:  # lint: allow=QHL001 bounded by degree
                    print(item)
            """,
        )
        result = harness.run("QHL000", "QHL001")
        assert result.findings == []
        assert [f.rule for f in result.inline_suppressed] == ["QHL001"]

    def test_pragma_with_no_finding_is_stale(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            def drive(items, deadline):
                for item in items:  # lint: allow=QHL001 obsolete
                    deadline.check()
            """,
        )
        findings = harness.findings("QHL000", "QHL001")
        assert _rules(findings) == ["QHL000"]
        assert "stale pragma" in findings[0].message

    def test_pragma_for_rule_that_did_not_run_is_not_stale(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            def drive(items, deadline):
                for item in items:  # lint: allow=QHL001 obsolete
                    deadline.check()
            """,
        )
        # Only QHL000 selected: QHL001 never ran, absence of a finding
        # proves nothing.
        assert harness.findings("QHL000") == []

    def test_unknown_rule_pragma_always_fires(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            def drive(items):
                return sorted(items)  # lint: allow=QHL999 misremembered
            """,
        )
        findings = harness.findings("QHL000")
        assert _rules(findings) == ["QHL000"]
        assert "unknown rule" in findings[0].message

    def test_stale_pragma_finding_is_itself_suppressible(self, harness):
        harness.write(
            "src/repro/core/sample.py",
            """
            def drive(items, deadline):
                for item in items:  # lint: allow=QHL001,QHL000 docs fixture
                    deadline.check()
            """,
        )
        result = harness.run("QHL000", "QHL001")
        assert result.findings == []
        assert [f.rule for f in result.inline_suppressed] == ["QHL000"]
