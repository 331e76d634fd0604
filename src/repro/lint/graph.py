"""Project-wide symbol table and call graph.

This is the whole-program half of the linter: one pass over every
parsed module builds

* a **symbol table** — every function, method, and class with a stable
  qualified name (``repro.perf.batch._worker_chunk``,
  ``repro.supervise.pool.SupervisedPool.run``), plus each module's
  import aliases (``from x import y as z`` and ``import x as y``,
  relative imports resolved, re-export chains followed through
  ``__init__`` modules);
* a **call graph** — edges from each function to every callee the
  resolver can name: plain calls, constructor calls, ``self.method()``
  within a class (walking project-local base classes), method calls on
  locals whose type is known (annotation or constructor assignment),
  and method calls through typed ``self.attr`` instance attributes;
* **reference edges** — a function *mentioned* without being called
  (passed as a callback, stored in a registry) may run later, so loads
  of function names are kept as weaker edges, used by reachability;
* **fork entries** — functions handed to ``SupervisedPool`` /
  ``Supervisor`` / ``ProcessPoolExecutor`` / ``multiprocessing.Process``
  as worker entrypoints, including ``functools.partial`` wrappers and
  ``"pkg.mod:func"`` string spellings.

Everything is resolved *statically and conservatively*: when a callee
cannot be named (a value of unknown type, ``getattr``, a lambda) the
call simply produces no edge.  Rules built on the graph must therefore
treat "no edge" as "unknown", never as "does not call".

The graph serialises to JSON (``repro-qhl lint --graph-out``) so CI can
diff reachability between revisions.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.lint.dataflow import call_name, iter_scope, scope_bindings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.context import Module
    from repro.lint.rules.base import Project

#: Suffix of the synthetic per-module node holding import-time calls.
MODULE_NODE = "<module>"

#: Spawn APIs whose argument (positional or keyword) is a fork
#: entrypoint: class/function basename -> argument spec.  ``0`` means
#: the first positional argument.
_SPAWN_SIGNATURES: dict[str, tuple[int | None, tuple[str, ...]]] = {
    "SupervisedPool": (0, ("entrypoint",)),
    "Supervisor": (0, ("entrypoint",)),
    "ProcessPoolExecutor": (None, ("initializer",)),
    "Process": (None, ("target",)),
}

#: Method names that hand their first argument to a worker process.
_SPAWN_METHODS = frozenset({"submit", "apply_async", "map"})


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str
    module: "Module"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qname: str | None = None
    decorators: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_public(self) -> bool:
        name = self.node.name
        if name.startswith("__") and name.endswith("__"):
            return True  # dunders are called implicitly
        return not name.startswith("_")

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None

    def positional_params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def param_names(self) -> set[str]:
        args = self.node.args
        return {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }


@dataclass
class ClassInfo:
    """One project-local class: methods, bases, typed attributes."""

    qname: str
    module: "Module"
    node: ast.ClassDef
    bases: tuple[str, ...] = ()  # resolved qnames where possible
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qname, from ``self.x = Ctor()`` /
    #: ``self.x: T`` in any method body.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSymbols:
    """Per-module name resolution state."""

    dotted: str
    module: "Module"
    #: local alias -> dotted target (module, or module.symbol)
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level name -> qname of the local function/class it denotes
    defs: dict[str, str] = field(default_factory=dict)


@dataclass
class SpawnSite:
    """One place a function is handed to a fork-based worker API."""

    entry: str  # qname of the entry function
    caller: str  # qname of the function containing the spawn call
    path: str
    lineno: int
    api: str  # e.g. "SupervisedPool" or "submit"


class CallGraph:
    """The resolved whole-program view; built by :func:`build_graph`."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleSymbols] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: dict[str, set[str]] = {}
        self.refs: dict[str, set[str]] = {}
        #: caller qname -> class qnames it instantiates
        self.instantiates: dict[str, set[str]] = {}
        self.spawn_sites: list[SpawnSite] = []
        #: ``id(ast def node)`` -> info, for rules that found a node
        #: during their own walk and need its graph identity.
        self.by_node: dict[int, FunctionInfo] = {}

    # -- queries --------------------------------------------------------
    def fork_entries(self) -> set[str]:
        return {site.entry for site in self.spawn_sites}

    def callees(self, qname: str) -> set[str]:
        return self.edges.get(qname, set())

    def successors(self, qname: str) -> set[str]:
        """Call edges plus reference edges plus instantiated dunders."""
        out = set(self.edges.get(qname, ()))
        out.update(self.refs.get(qname, ()))
        for cls_qname in self.instantiates.get(qname, ()):
            info = self.classes.get(cls_qname)
            if info is None:
                continue
            for method_name, method_qname in info.methods.items():
                if method_name.startswith("__") and method_name.endswith(
                    "__"
                ):
                    out.add(method_qname)
        return out

    def reachable_from(self, roots: set[str]) -> set[str]:
        """Transitive closure over :meth:`successors`."""
        seen = set(roots & (set(self.functions) | self._module_nodes()))
        stack = list(seen)
        while stack:
            current = stack.pop()
            for nxt in self.successors(current):
                if nxt not in seen and (
                    nxt in self.functions or nxt in self._module_nodes()
                ):
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def _module_nodes(self) -> set[str]:
        return {
            f"{dotted}.{MODULE_NODE}" for dotted in self.modules
        }

    def default_roots(self) -> set[str]:
        """Import-time code plus the public API surface.

        Anything with a public name is callable from outside the
        project, so reachability treats it as live; private functions
        must earn liveness through a call or reference chain.
        """
        roots = self._module_nodes()
        for qname, info in self.functions.items():
            if info.is_public:
                roots.add(qname)
        return roots

    def reachable(self) -> set[str]:
        return self.reachable_from(self.default_roots())

    def calls_within(
        self, func: FunctionInfo, sub: ast.AST | None = None
    ) -> Iterator[tuple[ast.Call, set[str]]]:
        """(call node, resolved callee qnames) inside ``func``.

        ``sub`` restricts the walk to one statement subtree (a loop
        body, say); resolution reuses the edge resolver's scope.
        """
        resolver = _Resolver(self, func.module)
        scope = _FunctionScope(self, resolver, func)
        for node in iter_scope(sub if sub is not None else func.node):
            if isinstance(node, ast.Call):
                yield node, scope.resolve_call(node)

    def resolver_for(self, module: "Module") -> "_Resolver":
        """A name resolver scoped to ``module`` — how rules turn a
        dotted callee into a canonical qname (``resolve_dotted``)."""
        return _Resolver(self, module)

    def scope_for(self, func: FunctionInfo) -> "_FunctionScope":
        """A per-function resolution scope (receiver types, call
        resolution) for rules that walk a function body themselves."""
        return _FunctionScope(self, _Resolver(self, func.module), func)

    def scopes_of(
        self, module: "Module"
    ) -> Iterator[tuple[str, ast.AST]]:
        """Every executable scope of ``module``: each function (by
        qname) plus the module top level as ``<module>``.  Walk the
        yielded node with :func:`iter_scope` / ``iter_module_scope``."""
        dotted = module_dotted(module.package_rel)
        for qname, info in self.functions.items():
            if info.module is module:
                yield qname, info.node
        yield f"{dotted}.{MODULE_NODE}", module.tree

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        reachable = self.reachable()
        fork = self.fork_entries()
        functions = []
        for qname in sorted(self.functions):
            info = self.functions[qname]
            functions.append({
                "qname": qname,
                "path": info.module.rel,
                "line": info.node.lineno,
                "class": info.class_qname,
                "public": info.is_public,
                "fork_entry": qname in fork,
                "reachable": qname in reachable,
            })
        return {
            "version": 1,
            "modules": sorted(self.modules),
            "functions": functions,
            "edges": sorted(
                [caller, callee]
                for caller, callees in self.edges.items()
                for callee in callees
            ),
            "references": sorted(
                [source, target]
                for source, targets in self.refs.items()
                for target in targets
            ),
            "spawn_sites": [
                {
                    "entry": site.entry,
                    "caller": site.caller,
                    "path": site.path,
                    "line": site.lineno,
                    "api": site.api,
                }
                for site in sorted(
                    self.spawn_sites,
                    key=lambda s: (s.path, s.lineno, s.entry),
                )
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def module_dotted(package_rel: str) -> str:
    """``repro/lint/cli.py`` -> ``repro.lint.cli``; ``__init__`` folds
    into its package."""
    rel = package_rel
    if rel.endswith(".py"):
        rel = rel[:-3]
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else rel


def build_graph(project: "Project") -> CallGraph:
    """Build the whole-program graph for every parsed module."""
    graph = CallGraph()
    for module in project.modules:
        _collect_symbols(graph, module)
    for symbols in graph.modules.values():
        _resolve_bases(graph, symbols)
    for symbols in graph.modules.values():
        _collect_attr_types(graph, symbols)
    for symbols in graph.modules.values():
        _build_edges(graph, symbols)
    return graph


def _collect_symbols(graph: CallGraph, module: "Module") -> None:
    dotted = module_dotted(module.package_rel)
    symbols = ModuleSymbols(dotted=dotted, module=module)
    graph.modules[dotted] = symbols

    package = dotted if _is_package(module) else dotted.rpartition(".")[0]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    symbols.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    symbols.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import_base(node, dotted, package)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                symbols.imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )

    _collect_defs(graph, symbols, module.tree, prefix=dotted, cls=None)

    # Module-level aliases: ``name = other_callable``.
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and node.value.id in symbols.defs
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.defs.setdefault(
                        target.id, symbols.defs[node.value.id]
                    )


def _is_package(module: "Module") -> bool:
    return module.package_rel.endswith("/__init__.py") or (
        module.package_rel == "__init__.py"
    )


def _resolve_import_base(
    node: ast.ImportFrom, dotted: str, package: str
) -> str | None:
    if node.level == 0:
        return node.module or ""
    # Relative import: climb ``level - 1`` packages above ``package``.
    parts = package.split(".") if package else []
    climb = node.level - 1
    if climb > len(parts):
        return None
    base_parts = parts[: len(parts) - climb]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts)


def _collect_defs(
    graph: CallGraph,
    symbols: ModuleSymbols,
    scope: ast.AST,
    prefix: str,
    cls: str | None,
) -> None:
    body = (
        scope.body
        if isinstance(scope, (ast.Module, ast.ClassDef))
        else getattr(scope, "body", [])
    )
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{prefix}.{node.name}"
            info = FunctionInfo(
                qname=qname,
                module=symbols.module,
                node=node,
                class_qname=cls,
                decorators=tuple(
                    name
                    for name in (
                        call_name(
                            d.func if isinstance(d, ast.Call) else d
                        )
                        for d in node.decorator_list
                    )
                    if name is not None
                ),
            )
            graph.functions[qname] = info
            graph.by_node[id(node)] = info
            if cls is None and prefix == symbols.dotted:
                symbols.defs[node.name] = qname
            if cls is not None:
                graph.classes[cls].methods[node.name] = qname
            _collect_nested(graph, symbols, node, qname)
        elif isinstance(node, ast.ClassDef) and cls is None:
            qname = f"{prefix}.{node.name}"
            graph.classes[qname] = ClassInfo(
                qname=qname, module=symbols.module, node=node
            )
            if prefix == symbols.dotted:
                symbols.defs[node.name] = qname
            _collect_defs(graph, symbols, node, qname, cls=qname)


def _collect_nested(
    graph: CallGraph,
    symbols: ModuleSymbols,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    qname: str,
) -> None:
    """Nested defs get ``outer.<locals>.inner`` qnames and a
    containment edge (defining is not calling, but a nested function
    is only ever live through its owner)."""
    for node in iter_scope(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{qname}.<locals>.{node.name}"
            info = FunctionInfo(
                qname=inner, module=symbols.module, node=node
            )
            graph.functions[inner] = info
            graph.by_node[id(node)] = info
            graph.refs.setdefault(qname, set()).add(inner)
            _collect_nested(graph, symbols, node, inner)


def _resolve_bases(graph: CallGraph, symbols: ModuleSymbols) -> None:
    resolver = _Resolver(graph, symbols.module)
    for cls_qname, info in graph.classes.items():
        if info.module is not symbols.module:
            continue
        resolved: list[str] = []
        for base in info.node.bases:
            name = call_name(base)
            if name is None:
                continue
            target = resolver.resolve_dotted(name)
            if target in graph.classes:
                resolved.append(target)
        info.bases = tuple(resolved)


def _collect_attr_types(graph: CallGraph, symbols: ModuleSymbols) -> None:
    resolver = _Resolver(graph, symbols.module)
    for info in graph.classes.values():
        if info.module is not symbols.module:
            continue
        for method_qname in info.methods.values():
            method = graph.functions.get(method_qname)
            if method is None:
                continue
            args = method.node.args
            param_annotations = {
                a.arg: a.annotation
                for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs
                )
                if a.annotation is not None
            }
            for node in iter_scope(method.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    annotation = node.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                # ``self.x = param`` inherits the parameter's annotation.
                if (
                    annotation is None
                    and isinstance(value, ast.Name)
                    and value.id in param_annotations
                ):
                    annotation = param_annotations[value.id]
                cls_qname = _type_of_expr(resolver, value, annotation)
                if cls_qname is not None:
                    info.attr_types.setdefault(target.attr, cls_qname)


def annotation_type(
    resolver: "_Resolver", annotation: ast.expr | None
) -> str | None:
    """The class qname (or opaque external CapWords name) named by an
    annotation, unwrapping string forms, ``X | None`` unions, and
    ``Optional[X]`` subscripts."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return None
        return annotation_type(resolver, parsed.body)
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        return annotation_type(resolver, annotation.left) or (
            annotation_type(resolver, annotation.right)
        )
    if isinstance(annotation, ast.Subscript):
        base = call_name(annotation.value)
        if base is not None and base.rpartition(".")[2] in (
            "Optional", "Union"
        ):
            inner = annotation.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return annotation_type(resolver, inner)
        return None
    name = call_name(annotation)
    if name is None or name == "None":
        return None
    target = resolver.resolve_dotted(name)
    if target in resolver.graph.classes:
        return target
    if target.rpartition(".")[2][:1].isupper():
        return target
    return None


def _type_of_expr(
    resolver: "_Resolver",
    value: ast.expr | None,
    annotation: ast.expr | None = None,
) -> str | None:
    """The class qname an expression evaluates to, if statically
    knowable: a constructor call or a class annotation."""
    if isinstance(value, ast.Call):
        name = call_name(value.func)
        if name is not None:
            target = resolver.resolve_dotted(name)
            if target in resolver.graph.classes:
                return target
            # ``Class.from_x(...)`` alternate constructors.
            head, _, tail = target.rpartition(".")
            if head in resolver.graph.classes and tail.startswith("from"):
                return head
            # Project-external constructor (ProcessPoolExecutor, ...):
            # keep the dotted name as an opaque external type so spawn
            # APIs on the value are still recognised.  CapWords is the
            # constructor-vs-call tell.
            if target.rpartition(".")[2][:1].isupper():
                return target
    return annotation_type(resolver, annotation)


#: Public spelling for rules inferring a binding's type themselves.
type_of_expr = _type_of_expr


class _Resolver:
    """Resolves dotted names as seen from one module."""

    #: Re-export chains longer than this are cycles, not code.
    _MAX_HOPS = 16

    def __init__(self, graph: CallGraph, module: "Module") -> None:
        self.graph = graph
        self.symbols = graph.modules[module_dotted(module.package_rel)]

    def resolve_dotted(self, name: str) -> str:
        """Best-effort canonical qname for a dotted name used in this
        module (``FlatLabelStore.from_compact`` ->
        ``repro.storage.flat.FlatLabelStore.from_compact``)."""
        head, _, rest = name.partition(".")
        target = self.symbols.defs.get(head) or self.symbols.imports.get(
            head
        )
        if target is None:
            return name
        resolved = self._canonical(target)
        return f"{resolved}.{rest}" if rest else resolved

    def _canonical(self, dotted: str, hops: int = 0) -> str:
        """Follow re-export chains (``from a.b import f`` in
        ``__init__`` modules) to the defining module."""
        if hops >= self._MAX_HOPS:
            return dotted
        if dotted in self.graph.functions or dotted in self.graph.classes:
            return dotted
        module_part, _, attr = dotted.rpartition(".")
        symbols = self.graph.modules.get(module_part)
        if symbols is None or not attr:
            return dotted
        target = symbols.defs.get(attr) or symbols.imports.get(attr)
        if target is None or target == dotted:
            return dotted
        return self._canonical(target, hops + 1)


class _FunctionScope:
    """Resolution inside one function body: locals, self, parameters."""

    def __init__(
        self,
        graph: CallGraph,
        resolver: _Resolver,
        func: FunctionInfo,
    ) -> None:
        self.graph = graph
        self.resolver = resolver
        self.func = func
        self.cls = (
            graph.classes.get(func.class_qname)
            if func.class_qname
            else None
        )
        self._local_types: dict[str, str] = {}
        self._local_funcs: dict[str, str] = {}
        self._scan_locals()

    def _scan_locals(self) -> None:
        for name, bindings in scope_bindings(self.func.node).items():
            for binding in bindings:
                inferred = _type_of_expr(
                    self.resolver, binding.value, binding.annotation
                )
                if inferred is not None:
                    self._local_types.setdefault(name, inferred)
                if binding.value is not None:
                    target = self._expr_function(binding.value)
                    if target is not None:
                        self._local_funcs.setdefault(name, target)
        # Nested defs shadow everything else.
        for node in iter_scope(self.func.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = f"{self.func.qname}.<locals>.{node.name}"
                if nested in self.graph.functions:
                    self._local_funcs[node.name] = nested

    def _expr_function(self, expr: ast.expr) -> str | None:
        """A function qname an expression denotes (not calls)."""
        name = call_name(expr)
        if name is None:
            return None
        resolved = self.resolve_value_name(name)
        return resolved if resolved in self.graph.functions else None

    def resolve_value_name(self, dotted: str) -> str:
        """Resolve ``a.b.c`` seen in this body to a canonical qname."""
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and self.cls is not None:
            return self._resolve_on_class(self.cls.qname, rest)
        local = self._local_funcs.get(head)
        if local is not None and not rest:
            return local
        local_type = self._local_types.get(head)
        if local_type is not None and rest:
            return self._resolve_on_class(local_type, rest)
        return self.resolver.resolve_dotted(dotted)

    def type_of_value(self, expr: ast.expr) -> str | None:
        """Best-effort class qname of an expression's value: locals and
        parameters by annotation or constructor, ``self``/``cls``, and
        attribute chains through each class's ``attr_types``."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.cls is not None:
                return self.cls.qname
            return self._local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of_value(expr.value)
            if base is None:
                return None
            return self._attr_type_on(base, expr.attr)
        if isinstance(expr, ast.Call):
            return _type_of_expr(self.resolver, expr)
        return None

    def _attr_type_on(self, cls_qname: str, attr: str) -> str | None:
        seen: set[str] = set()
        stack = [cls_qname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.graph.classes.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            stack.extend(info.bases)
        return None

    def _resolve_on_class(self, cls_qname: str, rest: str) -> str:
        """``self.a.b()`` / ``obj.method()`` lookup with inheritance."""
        if not rest:
            return cls_qname
        attr, _, tail = rest.partition(".")
        seen: set[str] = set()
        stack = [cls_qname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.graph.classes.get(current)
            if info is None:
                continue
            if not tail and attr in info.methods:
                return info.methods[attr]
            if attr in info.attr_types:
                return self._resolve_on_class(
                    info.attr_types[attr], tail
                )
            stack.extend(info.bases)
        return f"{cls_qname}.{rest}"

    # -- call resolution ------------------------------------------------
    def resolve_call(self, node: ast.Call) -> set[str]:
        """Callee qnames for one call: functions, or a class (meaning
        its constructor)."""
        name = call_name(node.func)
        if name is None:
            return set()
        resolved = self.resolve_value_name(name)
        out: set[str] = set()
        if resolved in self.graph.functions:
            out.add(resolved)
        elif resolved in self.graph.classes:
            out.add(resolved)
            init = self.graph.classes[resolved].methods.get("__init__")
            if init is not None:
                out.add(init)
        elif "." in resolved:
            # ``Class.method`` spelled through the class object.
            head, _, tail = resolved.rpartition(".")
            if head in self.graph.classes:
                target = self._resolve_on_class(head, tail)
                if target in self.graph.functions:
                    out.add(target)
        return out

    def entry_candidates(self, node: ast.Call) -> list[tuple[str, str]]:
        """(entry qname, api name) pairs when ``node`` is a spawn call."""
        name = call_name(node.func)
        if name is None:
            return []
        resolved = self.resolve_value_name(name)
        base = resolved.rpartition(".")[2]
        api: str | None = None
        arg_exprs: list[ast.expr] = []
        if base in _SPAWN_SIGNATURES:
            api = base
            pos_index, kw_names = _SPAWN_SIGNATURES[base]
            if pos_index is not None and len(node.args) > pos_index:
                arg_exprs.append(node.args[pos_index])
            for keyword in node.keywords:
                if keyword.arg in kw_names:
                    arg_exprs.append(keyword.value)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SPAWN_METHODS
            and node.args
        ):
            receiver = call_name(node.func.value)
            receiver_type = (
                self._local_types.get(receiver) if receiver else None
            )
            if receiver is not None and receiver_type is None:
                # self.attr receivers and class-typed locals.
                resolved_recv = self.resolve_value_name(receiver)
                if resolved_recv in self.graph.classes:
                    receiver_type = resolved_recv
            if receiver_type is None or receiver_type.rpartition(".")[
                2
            ] not in ("ProcessPoolExecutor", "SupervisedPool", "Pool"):
                return []
            api = node.func.attr
            arg_exprs.append(node.args[0])
        if api is None:
            return []
        out: list[tuple[str, str]] = []
        for expr in arg_exprs:
            target = self._entry_target(expr)
            if target is not None:
                out.append((target, api))
        return out

    def _entry_target(self, expr: ast.expr) -> str | None:
        """Resolve an entrypoint expression: name, partial, or string."""
        if isinstance(expr, ast.Call):
            callee = call_name(expr.func)
            if callee is not None and callee.rpartition(".")[2] == (
                "partial"
            ) and expr.args:
                return self._entry_target(expr.args[0])
            return None
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            spelled = expr.value.replace(":", ".")
            if spelled in self.graph.functions:
                return spelled
            resolved = self.resolver.resolve_dotted(spelled)
            return resolved if resolved in self.graph.functions else None
        name = call_name(expr)
        if name is None:
            return None
        resolved = self.resolve_value_name(name)
        if resolved in self.graph.functions:
            return resolved
        return None


def _build_edges(graph: CallGraph, symbols: ModuleSymbols) -> None:
    resolver = _Resolver(graph, symbols.module)
    module_node = f"{symbols.dotted}.{MODULE_NODE}"

    scopes: list[tuple[str, ast.AST, _FunctionScope | None]] = []
    for qname, info in graph.functions.items():
        if info.module is symbols.module:
            scopes.append(
                (qname, info.node, _FunctionScope(graph, resolver, info))
            )
    scopes.append((module_node, symbols.module.tree, None))

    for qname, scope_node, scope in scopes:
        edges = graph.edges.setdefault(qname, set())
        refs = graph.refs.setdefault(qname, set())
        instantiated = graph.instantiates.setdefault(qname, set())
        if scope is None:
            scope = _ModuleScope(graph, resolver)
        call_funcs: set[int] = set()
        walker = (
            iter_scope(scope_node)
            if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else _iter_module_scope(scope_node)
        )
        nodes = list(walker)
        for node in nodes:
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
        for node in nodes:
            if isinstance(node, ast.Call):
                for target in scope.resolve_call(node):
                    if target in graph.classes:
                        instantiated.add(target)
                    else:
                        edges.add(target)
                for entry, api in scope.entry_candidates(node):
                    graph.spawn_sites.append(SpawnSite(
                        entry=entry,
                        caller=qname,
                        path=symbols.module.rel,
                        lineno=node.lineno,
                        api=api,
                    ))
                    edges.add(entry)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if id(node) in call_funcs or not isinstance(
                    node.ctx, ast.Load
                ):
                    continue
                name = call_name(node)
                if name is None:
                    continue
                resolved = scope.resolve_value_name(name)
                if resolved in graph.functions:
                    refs.add(resolved)
                elif resolved in graph.classes:
                    instantiated.add(resolved)


def _iter_module_scope(tree: ast.AST) -> Iterator[ast.AST]:
    """Module top-level statements, excluding function/class bodies."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ClassDef):
            continue
        yield node
        yield from iter_scope(node)


#: Public spelling for rules walking the ``<module>`` scope yielded by
#: :meth:`CallGraph.scopes_of`.
iter_module_scope = _iter_module_scope


class _ModuleScope:
    """Scope adapter for module top-level code."""

    def __init__(self, graph: CallGraph, resolver: _Resolver) -> None:
        self.graph = graph
        self.resolver = resolver

    def resolve_value_name(self, dotted: str) -> str:
        return self.resolver.resolve_dotted(dotted)

    def resolve_call(self, node: ast.Call) -> set[str]:
        name = call_name(node.func)
        if name is None:
            return set()
        resolved = self.resolver.resolve_dotted(name)
        out: set[str] = set()
        if resolved in self.graph.functions:
            out.add(resolved)
        elif resolved in self.graph.classes:
            out.add(resolved)
            init = self.graph.classes[resolved].methods.get("__init__")
            if init is not None:
                out.add(init)
        return out

    def entry_candidates(self, node: ast.Call) -> list[tuple[str, str]]:
        return []
