"""Intraprocedural reaching-assignments: what a name is bound to.

The whole-program rules (QHL007/QHL009) and the call-graph builder all
need one small fact about local names: *which expressions could this
name be bound to at this use site?*  Full dataflow is overkill for a
linter — this helper is deliberately flow-insensitive per function
(every binding in the function "reaches", optionally filtered to
bindings on earlier lines) which over-approximates in exactly the
conservative direction the rules want.

Bindings come from plain/annotated/augmented assignments, ``with ... as
name``, walrus expressions, and parameter annotations/defaults.  Loop
targets and ``except`` aliases bind too but carry an opaque value.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

@dataclass(frozen=True)
class Binding:
    """One place a local (or module-level) name gets a value."""

    name: str
    lineno: int
    value: ast.expr | None  # None = opaque (loop target, except alias)
    annotation: ast.expr | None = None
    is_param: bool = False
    is_default: bool = False


def _target_names(target: ast.expr) -> Iterator[tuple[str, ast.expr]]:
    """Names bound by an assignment target (tuples unpack opaquely)."""
    if isinstance(target, ast.Name):
        yield target.id, target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            inner = (
                element.value
                if isinstance(element, ast.Starred)
                else element
            )
            if isinstance(inner, ast.Name):
                yield inner.id, inner


def iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` over one scope: never descends into nested defs.

    Lambdas *are* descended into — they share the enclosing scope for
    everything a linter cares about (names they close over run in the
    enclosing function's world).
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(child))


def scope_bindings(scope: ast.AST) -> dict[str, list[Binding]]:
    """Every binding of every name inside ``scope`` (one function body
    or a module), *excluding* nested function/class bodies.

    For function scopes the parameters are included: annotated
    parameters carry their annotation, defaulted parameters their
    default expression (the QHL007 default-argument-capture case).
    """
    bindings: dict[str, list[Binding]] = {}

    def add(binding: Binding) -> None:
        bindings.setdefault(binding.name, []).append(binding)

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        positional = [*args.posonlyargs, *args.args]
        defaults: list[ast.expr | None] = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        for arg, default in zip(positional, defaults, strict=True):
            add(Binding(
                arg.arg, arg.lineno, default, arg.annotation,
                is_param=True, is_default=default is not None,
            ))
        for arg, kw_default in zip(
            args.kwonlyargs, args.kw_defaults, strict=True
        ):
            add(Binding(
                arg.arg, arg.lineno, kw_default, arg.annotation,
                is_param=True, is_default=kw_default is not None,
            ))
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                add(Binding(
                    vararg.arg, vararg.lineno, None, None, is_param=True
                ))

    for node in iter_scope(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name, tnode in _target_names(target):
                    add(Binding(name, tnode.lineno, node.value))
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                add(Binding(
                    node.target.id, node.target.lineno,
                    node.value, node.annotation,
                ))
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                add(Binding(node.target.id, node.target.lineno, None))
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                add(Binding(node.target.id, node.target.lineno, node.value))
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                for name, tnode in _target_names(node.optional_vars):
                    add(Binding(name, tnode.lineno, node.context_expr))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name, tnode in _target_names(node.target):
                add(Binding(name, tnode.lineno, None))
        elif isinstance(node, ast.ExceptHandler):
            if node.name is not None:
                add(Binding(node.name, node.lineno, None))
    return bindings


def call_name(node: ast.expr) -> str | None:
    """The dotted name of a call's callee, e.g. ``"mmap.mmap"``.

    Returns ``None`` for non-trivial callees (subscripts, calls).
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
