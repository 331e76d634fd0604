"""QHL008: durable writes go through the atomic/fsync discipline.

PR 8/9 earned crash-safety the hard way: the flat-index save path
writes ``*.tmp`` + ``fsync`` + ``os.replace`` (:func:`_atomic_write_bytes`),
the update journal flushes **and fsyncs the same handle** before an
append is acknowledged, and everything else rides the checksummed
envelope (:func:`save_envelope`).  A later PR that opens a journal or
checkpoint file with a bare ``open(path, "w")`` silently re-introduces
the torn-write windows those PRs closed — and no test catches it until
a crash lands inside the window.

The rule fires on ``open(...)`` calls in write/append mode whose path
expression mentions a durable artifact (``journal`` / ``checkpoint`` /
``manifest`` / ``index`` ... — configurable markers, matched against
string literals *and* identifier names in the path expression):

* **write modes** (``w``/``x``) must sit inside an atomic-writer
  function: the enclosing function itself calls ``os.replace`` *and*
  ``os.fsync`` (the tmp-file discipline), or is one of the blessed
  helpers.
* **append modes** (``a``) must flush-and-fsync the handle they open
  before returning: the enclosing function calls ``<handle>.flush()``
  and ``os.fsync(<handle>.fileno())`` (directly or through a helper
  whose body fsyncs).

Reads are never flagged, and paths without a durable marker are out of
scope — scratch files and reports can be sloppy.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.context import Module
from repro.lint.dataflow import call_name, iter_scope
from repro.lint.findings import Finding
from repro.lint.rules.base import Project, Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import CallGraph

_OPEN_SPELLINGS = frozenset({"open", "io.open", "os.fdopen"})

#: Substrings that mark a path expression as a durable artifact.
PATH_MARKERS = (
    "journal", "checkpoint", "ckpt", "manifest", "index", "quarantine",
)
#: Functions allowed to write durable paths non-atomically because
#: they *are* the atomic discipline.
ATOMIC_HELPERS = frozenset({
    "_atomic_write_bytes", "_atomic_write", "atomic_write",
    "save_envelope",
})


def _mode_of(call: ast.Call) -> str:
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(
            keyword.value, ast.Constant
        ):
            if isinstance(keyword.value.value, str):
                return keyword.value.value
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        if isinstance(call.args[1].value, str):
            return call.args[1].value
    return "r"


def _path_words(expr: ast.expr) -> Iterator[str]:
    """Every identifier and string fragment in a path expression."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _handle_name(module: Module, call: ast.Call) -> str | None:
    """The name the opened handle is bound to, if syntactically
    obvious: ``with open(...) as h`` or ``h = open(...)``."""
    parent_map = _parents(module)
    parent = parent_map.get(id(call))
    if isinstance(parent, ast.withitem):
        if isinstance(parent.optional_vars, ast.Name):
            return parent.optional_vars.id
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        if isinstance(parent.targets[0], ast.Name):
            return parent.targets[0].id
    return None


_PARENT_CACHE: dict[int, dict[int, ast.AST]] = {}


def _parents(module: Module) -> dict[int, ast.AST]:
    cached = _PARENT_CACHE.get(id(module))
    if cached is None:
        cached = {
            id(child): node
            for node in ast.walk(module.tree)
            for child in ast.iter_child_nodes(node)
        }
        _PARENT_CACHE[id(module)] = cached
    return cached


@register
class DurabilityRule(Rule):
    id = "QHL008"
    name = "durability-discipline"
    rationale = (
        "Index, journal, and checkpoint files survive crashes only "
        "because every write goes tmp+fsync+os.replace (or the "
        "checksummed envelope) and every acknowledged append is "
        "flushed and fsynced first; a bare open(path, 'w') reopens "
        "the torn-write window."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        for module in project.modules:
            yield from self._check_module(graph, module)
        _PARENT_CACHE.clear()

    # ------------------------------------------------------------------
    def _check_module(
        self, graph: "CallGraph", module: Module
    ) -> Iterable[Finding]:
        resolver = graph.resolver_for(module)
        for qname, scope_node in graph.scopes_of(module):
            func_name = qname.rpartition(".")[2]
            if func_name in ATOMIC_HELPERS:
                continue
            body_calls = [
                node
                for node in iter_scope(scope_node)
                if isinstance(node, ast.Call)
            ]
            opens = [
                call
                for call in body_calls
                if self._is_open(resolver, call)
            ]
            if not opens:
                continue
            for call in opens:
                mode = _mode_of(call)
                if not any(flag in mode for flag in "wax+"):
                    continue
                path_expr = self._path_arg(call)
                if path_expr is None:
                    continue
                words = " ".join(_path_words(path_expr)).lower()
                if not any(marker in words for marker in PATH_MARKERS):
                    continue
                if "a" in mode:
                    yield from self._check_append(
                        graph, module, qname, call, body_calls
                    )
                else:
                    if self._is_atomic_writer(resolver, body_calls):
                        continue
                    yield self.finding(
                        module,
                        call,
                        f"durable path opened with mode {mode!r} "
                        f"outside the atomic write discipline — write "
                        f"to a tmp file and fsync+os.replace (use "
                        f"{'/'.join(sorted(ATOMIC_HELPERS))}) or the "
                        f"checksummed envelope",
                    )

    def _path_arg(self, call: ast.Call) -> ast.expr | None:
        for keyword in call.keywords:
            if keyword.arg == "file":
                return keyword.value
        return call.args[0] if call.args else None

    def _is_open(self, resolver: object, call: ast.Call) -> bool:
        name = call_name(call.func)
        if name is None:
            return False
        resolved: str = resolver.resolve_dotted(name)  # type: ignore[attr-defined]
        return resolved in _OPEN_SPELLINGS

    def _is_atomic_writer(
        self, resolver: object, body_calls: list[ast.Call]
    ) -> bool:
        saw_replace = saw_fsync = False
        for call in body_calls:
            name = call_name(call.func)
            if name is None:
                continue
            base = name.rpartition(".")[2]
            if base == "replace" and name.startswith("os."):
                saw_replace = True
            elif base == "rename" and name.startswith("os."):
                saw_replace = True
            elif base == "fsync":
                saw_fsync = True
        return saw_replace and saw_fsync

    def _check_append(
        self,
        graph: "CallGraph",
        module: Module,
        qname: str,
        call: ast.Call,
        body_calls: list[ast.Call],
    ) -> Iterable[Finding]:
        handle = _handle_name(module, call)
        if handle is None:
            yield self.finding(
                module,
                call,
                "durable append handle is not bound to a name — the "
                "flush+fsync acknowledgement discipline cannot be "
                "verified; bind it (with open(...) as handle) and "
                "fsync before acknowledging",
            )
            return
        saw_flush = saw_fsync = False
        for other in body_calls:
            name = call_name(other.func)
            if name is None:
                continue
            if name == f"{handle}.flush":
                saw_flush = True
                continue
            base = name.rpartition(".")[2]
            if base == "fsync" and self._fsync_hits_handle(other, handle):
                saw_fsync = True
                continue
            # A helper taking the handle counts when its body fsyncs.
            if self._helper_fsyncs(graph, module, name, other, handle):
                saw_flush = saw_fsync = True
        if not (saw_flush and saw_fsync):
            missing = []
            if not saw_flush:
                missing.append(f"{handle}.flush()")
            if not saw_fsync:
                missing.append(f"os.fsync({handle}.fileno())")
            yield self.finding(
                module,
                call,
                f"durable append to {handle!r} is acknowledged "
                f"without {' and '.join(missing)} on the same handle "
                f"— a crash after return can lose the record the "
                f"caller believes is persisted",
            )

    def _fsync_hits_handle(self, call: ast.Call, handle: str) -> bool:
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id == handle:
                return True
            if isinstance(arg, ast.Call):
                inner = call_name(arg.func)
                if inner == f"{handle}.fileno":
                    return True
        return False

    def _helper_fsyncs(
        self,
        graph: "CallGraph",
        module: Module,
        name: str,
        call: ast.Call,
        handle: str,
    ) -> bool:
        takes_handle = any(
            isinstance(arg, ast.Name) and arg.id == handle
            for arg in call.args
        ) or any(
            isinstance(kw.value, ast.Name) and kw.value.id == handle
            for kw in call.keywords
        )
        if not takes_handle:
            return False
        resolved = graph.resolver_for(module).resolve_dotted(name)
        info = graph.functions.get(resolved)
        if info is None:
            return False
        for node in iter_scope(info.node):
            if isinstance(node, ast.Call):
                inner = call_name(node.func)
                if inner is not None and inner.rpartition(".")[2] == (
                    "fsync"
                ):
                    return True
        return False
