"""QHL009: published epochs and flat buffers are immutable.

The PR-8/PR-9 concurrency story rests on one invariant: once an
:class:`Epoch` is published (or a :class:`FlatLabelStore` is built /
mmap-loaded), nothing mutates it — readers pin an epoch and dereference
its columns with no locks, and forked workers share the mmap pages
copy-on-write.  A single ``epoch.labels[v] = ...`` or
``store._offsets.extend(...)`` after publication is a data race with
every concurrent reader and a silent divergence between parent and
child address spaces.

The rule tracks names bound to protected values — parameters and
attributes annotated/typed as the protected classes (a value received
from elsewhere is presumed published; the constructing function owns
what it builds), ``memoryview(...)`` / ``.cast(...)`` views, and the
blessed loader factories — and flags:

* stores into their attributes (``epoch.x = ...``), subscripts
  (``view[i] = ...``, ``epoch.labels[v] = ...``) and ``del``;
* calls to mutating container methods on them or their attributes
  (``store.offsets.append(...)``);
* **interprocedurally**: passing a protected value into a helper whose
  parameter is mutated by any of the above (to a fixpoint over the
  call graph), so laundering the mutation through a function does not
  dodge the rule.

Methods *of* the protected classes themselves are exempt for ``self``
— construction has to mutate; the invariant binds everyone holding a
reference after publication.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint.context import Module
from repro.lint.dataflow import call_name, iter_scope, scope_bindings
from repro.lint.findings import Finding
from repro.lint.rules.base import Project, Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import CallGraph, FunctionInfo


@register
class EpochImmutabilityRule(Rule):
    id = "QHL009"
    name = "epoch-immutability"
    rationale = (
        "Published Epoch / FlatLabelStore objects and mmap-backed "
        "memoryviews are read concurrently without locks and shared "
        "copy-on-write across forks; any post-publication store is a "
        "data race."
    )
    default_options = {
        "packages": (),
        # Class basenames whose instances are immutable once held.
        "protected_classes": ("Epoch", "FlatLabelStore"),
        # Factory basenames returning protected values.
        "protected_factories": ("load_flat_index", "memoryview"),
        # Container methods that mutate in place.
        "mutators": (
            "append", "extend", "insert", "remove", "pop", "clear",
            "sort", "reverse", "update", "setdefault", "add",
            "discard", "release",
        ),
        # Fixpoint iterations for the param-mutation summaries.
        "max_passes": 8,
    }

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        protected = tuple(self.options["protected_classes"])  # type: ignore[arg-type]
        mutated = self._param_mutation_summaries(graph)
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if not self.applies_to(info.module):
                continue
            yield from self._check_function(
                graph, info, protected, mutated
            )

    # -- what counts as protected ---------------------------------------
    def _is_protected_type(
        self, protected: tuple[str, ...], cls_qname: str | None
    ) -> bool:
        if cls_qname is None:
            return False
        base = cls_qname.rpartition(".")[2]
        return base in protected or base == "memoryview"

    def _protected_locals(
        self,
        graph: "CallGraph",
        info: "FunctionInfo",
        protected: tuple[str, ...],
    ) -> dict[str, str]:
        """Local/param names holding protected values -> reason."""
        from repro.lint.graph import annotation_type

        resolver = graph.resolver_for(info.module)
        factories = tuple(self.options["protected_factories"])  # type: ignore[arg-type]
        out: dict[str, str] = {}
        for name, bindings in scope_bindings(info.node).items():
            for binding in bindings:
                ann_type = annotation_type(resolver, binding.annotation)
                if self._is_protected_type(protected, ann_type):
                    out.setdefault(
                        name, ann_type.rpartition(".")[2]  # type: ignore[union-attr]
                    )
                    continue
                # Constructor calls are *not* protected here: the
                # function that builds an Epoch/FlatLabelStore owns it
                # until publication, and construction has to populate.
                # Protection attaches to values received from
                # elsewhere (annotations, self state) and to shared
                # views (memoryview / .cast / the mmap loaders).
                value = binding.value
                if not isinstance(value, ast.Call):
                    continue
                callee = call_name(value.func)
                if callee is None:
                    continue
                base = callee.rpartition(".")[2]
                if base in factories:
                    out.setdefault(name, base)
                    continue
                resolved = resolver.resolve_dotted(callee)
                rbase = resolved.rpartition(".")[2]
                if rbase == "cast" and "." in callee:
                    # ``view.cast("I")`` keeps the buffer protected
                    # when the receiver is (heuristically) a view.
                    out.setdefault(name, "memoryview")
        return out

    # -- interprocedural summaries --------------------------------------
    def _param_mutation_summaries(
        self, graph: "CallGraph"
    ) -> dict[str, set[str]]:
        """qname -> names of parameters the function mutates (directly
        or by passing them to another mutating function)."""
        summaries: dict[str, set[str]] = {}
        for qname, info in graph.functions.items():
            params = set(info.param_names()) - {"self", "cls"}
            direct: set[str] = set()
            for root, _node in self._mutation_sites(info, params):
                direct.add(root)
            summaries[qname] = direct
        max_passes = int(self.options["max_passes"])  # type: ignore[arg-type]
        for _ in range(max_passes):
            changed = False
            for qname, info in graph.functions.items():
                params = set(info.param_names()) - {"self", "cls"}
                if not params:
                    continue
                scope = graph.scope_for(info)
                for node in iter_scope(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    for callee in scope.resolve_call(node):
                        callee_info = graph.functions.get(callee)
                        if callee_info is None:
                            continue
                        hit = summaries.get(callee, set())
                        if not hit:
                            continue
                        for arg_name, param in self._arg_param_pairs(
                            node, callee_info
                        ):
                            if (
                                param in hit
                                and arg_name in params
                                and arg_name not in summaries[qname]
                            ):
                                summaries[qname].add(arg_name)
                                changed = True
            if not changed:
                break
        return summaries

    def _arg_param_pairs(
        self, call: ast.Call, callee: "FunctionInfo"
    ) -> Iterable[tuple[str, str]]:
        positional = callee.positional_params()
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and index < len(positional):
                yield arg.id, positional[index]
        for keyword in call.keywords:
            if keyword.arg is not None and isinstance(
                keyword.value, ast.Name
            ):
                yield keyword.value.id, keyword.arg

    # -- mutation-site detection ----------------------------------------
    def _mutation_sites(
        self, info: "FunctionInfo", roots: set[str]
    ) -> Iterable[tuple[str, ast.AST]]:
        """(root name, node) for every in-place mutation whose receiver
        chain starts at a name in ``roots``."""
        mutators = frozenset(self.options["mutators"])  # type: ignore[arg-type]

        def root_of(expr: ast.expr) -> str | None:
            current = expr
            while isinstance(current, (ast.Attribute, ast.Subscript)):
                current = current.value
            if isinstance(current, ast.Name) and current.id in roots:
                return current.id
            return None

        for node in iter_scope(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = root_of(target)
                        if root is not None:
                            yield root, node
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = root_of(target)
                        if root is not None:
                            yield root, node
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in mutators:
                    root = root_of(node.func.value)
                    if root is not None:
                        yield root, node

    # -- per-function check ---------------------------------------------
    def _check_function(
        self,
        graph: "CallGraph",
        info: "FunctionInfo",
        protected: tuple[str, ...],
        mutated: dict[str, set[str]],
    ) -> Iterable[Finding]:
        inside_protected = (
            info.class_qname is not None
            and info.class_qname.rpartition(".")[2] in protected
        )
        locals_ = self._protected_locals(graph, info, protected)
        scope = graph.scope_for(info)

        # self.<attr> receivers typed as protected classes count too —
        # unless we *are* the protected class managing itself.
        def protected_reason(expr: ast.expr) -> str | None:
            current = expr
            chain: list[str] = []
            while isinstance(current, (ast.Attribute, ast.Subscript)):
                if isinstance(current, ast.Attribute):
                    chain.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                if current.id in locals_:
                    return locals_[current.id]
                if current.id in ("self", "cls"):
                    if inside_protected:
                        return None
                    for depth in range(len(chain), 0, -1):
                        prefix = ast.Attribute(
                            value=ast.Name(id="self", ctx=ast.Load()),
                            attr=chain[depth - 1],
                            ctx=ast.Load(),
                        )
                        cls_qname = scope.type_of_value(prefix)
                        if self._is_protected_type(protected, cls_qname):
                            return cls_qname.rpartition(".")[2]  # type: ignore[union-attr]
            return None

        roots = set(locals_) | {"self"}
        for root, node in self._mutation_sites(info, roots):
            target = _mutation_receiver(node)
            if target is None:
                continue
            reason = protected_reason(target)
            if reason is None:
                continue
            verb = (
                "calls a mutating method on"
                if isinstance(node, ast.Call)
                else "stores into"
            )
            yield self.finding(
                info.module,
                node,
                f"{info.name}() {verb} a published {reason} — epochs, "
                f"flat label stores, and mmap-backed views are "
                f"immutable after publication (readers and forked "
                f"workers share them without locks); build a new "
                f"epoch instead",
            )

        # Interprocedural: protected value handed to a mutating helper.
        for node in iter_scope(info.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in scope.resolve_call(node):
                callee_info = graph.functions.get(callee)
                if callee_info is None:
                    continue
                hit = mutated.get(callee, set())
                if not hit:
                    continue
                for arg_name, param in self._arg_param_pairs(
                    node, callee_info
                ):
                    if param not in hit or arg_name not in locals_:
                        continue
                    yield self.finding(
                        info.module,
                        node,
                        f"{info.name}() passes a published "
                        f"{locals_[arg_name]} to "
                        f"{callee_info.name}(), which mutates its "
                        f"{param!r} parameter — laundering the store "
                        f"through a helper is still a post-publication "
                        f"mutation",
                    )


def _mutation_receiver(node: ast.AST) -> ast.expr | None:
    """The receiver expression of a mutation site from
    :meth:`_mutation_sites`."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return target.value
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return target.value
    elif isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        return node.func.value
    return None
