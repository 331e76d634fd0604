"""Call-graph builder tests on adversarial shapes.

The whole-program rules are only as good as the graph under them, so
these tests pin the resolver on the shapes that break naive builders:
call cycles, decorated functions, aliased and re-exported imports,
method calls through ``self``, and worker entrypoints spelled as
strings or ``functools.partial`` objects.
"""

from __future__ import annotations

from repro.lint import run_lint
from repro.lint.rules.base import Project


def _project(harness, *rels: str) -> Project:
    result = run_lint(["src"], root=str(harness.root), select=frozenset())
    assert result.errors == []
    assert result.project is not None
    return result.project


class TestEdgesAndCycles:
    def test_direct_call_edge(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            def callee():
                return 1

            def caller():
                return callee()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.callee" in graph.edges["repro.core.a.caller"]

    def test_cycle_terminates_and_keeps_both_edges(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            def ping(n):
                return pong(n - 1) if n else 0

            def pong(n):
                return ping(n - 1) if n else 0
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.pong" in graph.edges["repro.core.a.ping"]
        assert "repro.core.a.ping" in graph.edges["repro.core.a.pong"]
        # Reachability over the cycle must terminate.
        closure = graph.reachable_from({"repro.core.a.ping"})
        assert {"repro.core.a.ping", "repro.core.a.pong"} <= closure

    def test_decorated_function_still_resolves(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            import functools

            def wrap(func):
                @functools.wraps(func)
                def inner(*args, **kwargs):
                    return func(*args, **kwargs)
                return inner

            @wrap
            def decorated():
                return 1

            def caller():
                return decorated()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.decorated" in graph.functions
        assert "repro.core.a.decorated" in graph.edges[
            "repro.core.a.caller"
        ]

    def test_nested_function_gets_locals_qname(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            def outer():
                def inner():
                    return 1
                return inner()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.outer.<locals>.inner" in graph.functions
        assert "repro.core.a.outer.<locals>.inner" in graph.edges[
            "repro.core.a.outer"
        ]


class TestImportResolution:
    def test_aliased_import(self, harness):
        harness.write(
            "src/repro/core/util.py",
            """
            def helper():
                return 1
            """,
        )
        harness.write(
            "src/repro/core/a.py",
            """
            from repro.core.util import helper as h

            def caller():
                return h()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.util.helper" in graph.edges[
            "repro.core.a.caller"
        ]

    def test_module_alias_attribute_call(self, harness):
        harness.write(
            "src/repro/core/util.py",
            """
            def helper():
                return 1
            """,
        )
        harness.write(
            "src/repro/core/a.py",
            """
            import repro.core.util as util

            def caller():
                return util.helper()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.util.helper" in graph.edges[
            "repro.core.a.caller"
        ]

    def test_reexport_chain_follows_to_definition(self, harness):
        harness.write(
            "src/repro/core/impl.py",
            """
            def real():
                return 1
            """,
        )
        harness.write(
            "src/repro/core/__init__.py",
            """
            from repro.core.impl import real
            """,
        )
        harness.write(
            "src/repro/service/a.py",
            """
            from repro.core import real

            def caller():
                return real()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.impl.real" in graph.edges[
            "repro.service.a.caller"
        ]


class TestMethodResolution:
    def test_self_method_call(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            class Engine:
                def query(self):
                    return self._inner()

                def _inner(self):
                    return 1
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.Engine._inner" in graph.edges[
            "repro.core.a.Engine.query"
        ]

    def test_inherited_method_via_self(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            class Base:
                def shared(self):
                    return 1

            class Derived(Base):
                def query(self):
                    return self.shared()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.Base.shared" in graph.edges[
            "repro.core.a.Derived.query"
        ]

    def test_typed_attribute_method_call(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            class Store:
                def get(self):
                    return 1

            class Engine:
                def __init__(self):
                    self.store = Store()

                def query(self):
                    return self.store.get()
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a.Store.get" in graph.edges[
            "repro.core.a.Engine.query"
        ]


class TestSpawnSites:
    def test_supervised_pool_positional_entrypoint(self, harness):
        harness.write(
            "src/repro/perf/a.py",
            """
            from repro.supervise.pool import SupervisedPool

            def _chunk(payload):
                return payload

            def run():
                pool = SupervisedPool(_chunk, workers=2)
                return pool
            """,
        )
        graph = _project(harness).graph()
        assert graph.fork_entries() == {"repro.perf.a._chunk"}
        (site,) = graph.spawn_sites
        assert site.api == "SupervisedPool"
        assert site.caller == "repro.perf.a.run"

    def test_partial_entrypoint_unwraps(self, harness):
        harness.write(
            "src/repro/perf/a.py",
            """
            import functools

            from repro.supervise.pool import SupervisedPool

            def _chunk(config, payload):
                return payload

            def run(config):
                pool = SupervisedPool(
                    functools.partial(_chunk, config), workers=2
                )
                return pool
            """,
        )
        graph = _project(harness).graph()
        assert graph.fork_entries() == {"repro.perf.a._chunk"}

    def test_string_entrypoint_resolves(self, harness):
        harness.write(
            "src/repro/perf/worker.py",
            """
            def entry(payload):
                return payload
            """,
        )
        harness.write(
            "src/repro/perf/a.py",
            """
            from repro.supervise.pool import SupervisedPool

            def run():
                return SupervisedPool(
                    "repro.perf.worker:entry", workers=2
                )
            """,
        )
        graph = _project(harness).graph()
        assert graph.fork_entries() == {"repro.perf.worker.entry"}

    def test_executor_initializer_and_submit(self, harness):
        harness.write(
            "src/repro/perf/a.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def _init(engine):
                return None

            def _task(chunk):
                return chunk

            def run(chunks):
                with ProcessPoolExecutor(initializer=_init) as pool:
                    futures = [pool.submit(_task, c) for c in chunks]
                return futures
            """,
        )
        graph = _project(harness).graph()
        assert graph.fork_entries() == {
            "repro.perf.a._init",
            "repro.perf.a._task",
        }


class TestReachability:
    def test_private_function_unreachable_without_callers(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            def public():
                return 1

            def _orphan():
                return 2
            """,
        )
        graph = _project(harness).graph()
        reachable = graph.reachable()
        assert "repro.core.a.public" in reachable
        assert "repro.core.a._orphan" not in reachable

    def test_reference_without_call_keeps_function_live(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            def _target(x):
                return x

            def public(items):
                return sorted(items, key=lambda i: _target(i))
            """,
        )
        graph = _project(harness).graph()
        assert "repro.core.a._target" in graph.reachable()

    def test_export_to_json_shape(self, harness):
        harness.write(
            "src/repro/core/a.py",
            """
            def public():
                return _private()

            def _private():
                return 1
            """,
        )
        import json

        graph = _project(harness).graph()
        data = json.loads(graph.to_json())
        assert data["version"] == 1
        assert "repro.core.a" in data["modules"]
        qnames = {f["qname"] for f in data["functions"]}
        assert {"repro.core.a.public", "repro.core.a._private"} <= qnames
        assert ["repro.core.a.public", "repro.core.a._private"] in (
            data["edges"]
        )
