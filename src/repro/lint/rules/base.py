"""Rule base class, rule registry, and shared static helpers."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Type

from repro.exceptions import LintConfigError
from repro.lint.context import Module
from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.lint.graph import CallGraph


@dataclass
class Project:
    """Everything a whole-project (two-phase) rule can see."""

    root: str
    modules: list[Module] = field(default_factory=list)
    _graph: "CallGraph | None" = field(
        default=None, repr=False, compare=False
    )

    def find_module(self, package_rel: str) -> Module | None:
        for module in self.modules:
            if module.package_rel == package_rel or module.rel == package_rel:
                return module
        return None

    def graph(self) -> "CallGraph":
        """The whole-program call graph, built once per run on first
        use and shared by every rule."""
        if self._graph is None:
            from repro.lint.graph import build_graph

            self._graph = build_graph(self)
        return self._graph


class Rule:
    """One lint rule.

    Subclasses set ``id`` / ``name`` / ``rationale`` and implement
    :meth:`check_module`; rules that need the whole project (registry
    cross-checks, call-graph rules) also implement :meth:`finish`,
    called once after every module has been visited.  A rule's policy
    (package scopes, registry locations) lives in module constants next
    to it.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        return ()

    # -- helpers shared by several rules --------------------------------
    def finding(
        self, module: Module, node: ast.AST | int, message: str
    ) -> Finding:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, node.col_offset
        return Finding(
            rule=self.id,
            path=module.rel,
            line=line,
            col=col,
            message=message,
            snippet=module.line_text(line),
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise LintConfigError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise LintConfigError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """The registered rules, keyed by id, in id order."""
    return dict(sorted(_REGISTRY.items()))


# ----------------------------------------------------------------------
# Static extraction of declared-name registries (QHL004 / QHL005).

def declared_names(
    tree: ast.Module, targets: tuple[str, ...]
) -> dict[str, int]:
    """String constants declared in module-level assignments.

    Finds ``NAME = {...}`` / ``NAME = (...)`` / ``NAME = frozenset((..))``
    for any ``NAME`` in ``targets`` and returns each declared string
    with its line number.  Dict values contribute their *keys* (the
    metric-registry shape); tuples/lists/sets contribute elements.
    Purely syntactic — nothing is imported or executed.
    """
    names: dict[str, int] = {}

    def collect(value: ast.expr) -> None:
        if isinstance(value, ast.Dict):
            elements: Iterator[ast.expr | None] = iter(value.keys)
        elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            elements = iter(value.elts)
        elif isinstance(value, ast.Call) and value.args:
            # frozenset((...)) / tuple([...]) wrappers.
            collect(value.args[0])
            return
        else:
            return
        for element in elements:
            if (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                names.setdefault(element.value, element.lineno)

    for node in tree.body:
        value: ast.expr | None
        if isinstance(node, ast.Assign):
            assign_targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            assign_targets, value = [node.target], node.value
        else:
            continue
        if value is None:
            continue
        for target in assign_targets:
            if isinstance(target, ast.Name) and target.id in targets:
                collect(value)
    return names


def load_declared_names(
    project: Project,
    registry_path: str,
    targets: tuple[str, ...],
) -> tuple[dict[str, int], str]:
    """Declared names from a registry module, scanned or read from disk.

    Prefers the already-parsed module when the registry file is inside
    the linted path set; otherwise parses it straight from
    ``project.root``.  Raises :class:`LintConfigError` when the file is
    missing or holds no declaration — a broken registry must fail the
    run loudly, not pass vacuously.
    """
    module = project.find_module(registry_path)
    if module is not None:
        names = declared_names(module.tree, targets)
        rel = module.rel
    else:
        # registry_path is package-relative; on disk the package may sit
        # under a src/ layout, so try both spellings.
        candidates = [
            os.path.join(project.root, registry_path),
            os.path.join(project.root, "src", registry_path),
        ]
        tree = None
        last_error: Exception | None = None
        for path in candidates:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                break
            except (OSError, SyntaxError) as exc:
                last_error = exc
        if tree is None:
            raise LintConfigError(
                f"cannot read name registry {registry_path!r}: {last_error}"
            ) from last_error
        names = declared_names(tree, targets)
        rel = registry_path
    if not names:
        raise LintConfigError(
            f"name registry {registry_path!r} declares none of "
            f"{', '.join(targets)}"
        )
    return names, rel
