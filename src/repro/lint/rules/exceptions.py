"""QHL002: library code raises ReproError subclasses; no silent catch-alls.

The PR-2 contract: callers catch one type — :class:`~repro.exceptions.
ReproError` — at the service boundary.  Every deliberate ``raise`` of a
foreign builtin (``RuntimeError``, ``OSError``, bare ``Exception``)
punches a hole in that contract, and every ``except:`` /
``except Exception`` that swallows without re-raising can hide a real
engine bug behind a degraded-but-green answer.

Sanctioned raises:

* any class transitively derived from ``ReproError`` (the hierarchy is
  recovered statically from every linted module plus the declared
  ``exceptions.py``, so new subclasses anywhere are recognised);
* builtin *argument/programming* errors — ``ValueError``,
  ``TypeError``, ``KeyError``, ``IndexError``, ``NotImplementedError``,
  ``AssertionError`` — which signal caller bugs, not library failures;
* re-raises (``raise`` / ``raise exc``) and raises of non-class
  expressions the rule cannot resolve (factories, attributes).

Sanctioned handlers: a bare/broad handler whose body contains any
``raise`` (plain re-raise or a typed conversion like
``raise ReproError(...) from exc``).  Deliberate record-and-continue
catch-alls (the degradation ladder, the audit) must carry an inline
``# lint: allow=QHL002 <why>`` pragma.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from repro.lint.context import Module
from repro.lint.findings import Finding
from repro.lint.rules.base import Project, Rule, register

#: The root of the taxonomy, and the module declaring it (its classes
#: seed the hierarchy even when it is outside the linted paths).
ROOT_EXCEPTION = "ReproError"
TAXONOMY_MODULE = "repro/exceptions.py"
#: Builtin argument/programming errors library code may raise.
SANCTIONED_BUILTINS = frozenset({
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "NotImplementedError",
    "AssertionError",
})

_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _exception_name(node: ast.expr) -> str | None:
    """The class name a ``raise`` statement names, if resolvable."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return None


def _handler_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        return [name for e in node.elts for name in _handler_names(e)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


@register
class ExceptionTaxonomyRule(Rule):
    id = "QHL002"
    name = "exception-taxonomy"
    rationale = (
        "Callers catch ReproError at the boundary; foreign raises "
        "escape that contract and broad silent excepts hide engine "
        "bugs behind degraded answers."
    )

    def __init__(self) -> None:
        self._edges: dict[str, list[str]] = {}
        self._raises: list[tuple[Module, ast.Raise, str]] = []

    # ------------------------------------------------------------------
    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._edges.setdefault(node.name, []).extend(
                    _base_names(node)
                )
            elif isinstance(node, ast.Raise):
                if node.exc is None:
                    continue  # bare re-raise
                name = _exception_name(node.exc)
                if name is not None:
                    self._raises.append((module, node, name))
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)

    def _check_handler(
        self, module: Module, node: ast.ExceptHandler
    ) -> Iterable[Finding]:
        names = _handler_names(node.type)
        broad = node.type is None or any(
            name in ("Exception", "BaseException") for name in names
        )
        if not broad:
            return
        reraises = any(
            isinstance(child, ast.Raise) for child in ast.walk(node)
        )
        if reraises:
            return
        what = "bare except:" if node.type is None else (
            f"except {'/'.join(names)}"
        )
        yield self.finding(
            module,
            node,
            f"{what} swallows without re-raising; catch a ReproError "
            f"subclass, convert (`raise ... from exc`), or justify "
            f"with `# lint: allow=QHL002 <why>`",
        )

    # ------------------------------------------------------------------
    def _repro_error_set(self, project: Project) -> set[str]:
        """Names of known ReproError descendants, by static fixpoint."""
        edges = {k: list(v) for k, v in self._edges.items()}
        if project.find_module(TAXONOMY_MODULE) is None:
            import os

            path = os.path.join(project.root, "src", TAXONOMY_MODULE)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef):
                        edges.setdefault(node.name, []).extend(
                            _base_names(node)
                        )
            except (OSError, SyntaxError):
                pass
        known = {ROOT_EXCEPTION}
        changed = True
        while changed:
            changed = False
            for name, bases in edges.items():
                if name not in known and any(b in known for b in bases):
                    known.add(name)
                    changed = True
        return known

    def finish(self, project: Project) -> Iterable[Finding]:
        repro_errors = self._repro_error_set(project)
        for module, node, name in self._raises:
            if name in repro_errors or name in SANCTIONED_BUILTINS:
                continue
            if name not in _BUILTIN_EXCEPTIONS:
                # Unresolvable or third-party name: benefit of the
                # doubt (e.g. re-raising a captured variable).
                continue
            yield self.finding(
                module,
                node,
                f"raise {name}: library code raises ReproError "
                f"subclasses (or builtin argument errors: "
                f"{', '.join(sorted(SANCTIONED_BUILTINS))})",
            )
        # Findings must come out deterministically even though raises
        # were collected across modules; runner sorts globally.
