"""The package's modules import one another in one direction only.

Every `import` and `from ... import` in `src/outerspatial/*.py` is read from
the syntax tree, at module level and inside functions.  Imports of sibling
modules form an acyclic graph and all sit at module level; only imports of
third-party modules, such as networkx for a planarity embedding, may be
deferred into a function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "outerspatial"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _targets(node: ast.AST) -> list[str]:
    """The modules an import statement names: package modules by stem, others by top-level name."""
    if isinstance(node, ast.Import):
        out = []
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] != "outerspatial":
                out.append(parts[0])
            else:
                out.append(parts[1] if len(parts) > 1 else "__init__")
        return out
    if isinstance(node, ast.ImportFrom):
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] != "outerspatial":
            return [parts[0]]
        if node.level == 0:
            parts = parts[1:]
        if parts and parts[0]:
            return [parts[0]]
        return [a.name if a.name in MODULES else "__init__" for a in node.names]
    return []


def _imports() -> list[tuple[str, str, bool]]:
    """(importing module, imported module, inside a function) for every import."""
    out = []

    def visit(module: str, node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            out.extend((module, target, in_function) for target in _targets(child))
            visit(module, child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), False)
    return out


def _cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """Some cycle of the directed graph as a closed list of nodes, or None."""
    state: dict[str, int] = {}
    path: list[str] = []

    def walk(u: str) -> list[str] | None:
        state[u] = 1
        path.append(u)
        for w in sorted(edges.get(u, ())):
            if state.get(w) == 1:
                return path[path.index(w):] + [w]
            if w not in state:
                found = walk(w)
                if found:
                    return found
        state[u] = 2
        path.pop()
        return None

    for u in sorted(edges):
        if u not in state:
            found = walk(u)
            if found:
                return found
    return None


def test_the_reader_sees_module_and_function_level_imports():
    imports = _imports()
    assert ("decider", "oracle", False) in imports
    assert ("oracle", "verdicts", False) in imports
    assert ("cli", "generators", False) in imports
    assert ("embedding", "networkx", True) in imports


def test_the_package_import_graph_has_no_cycle():
    edges: dict[str, set[str]] = {}
    for module, target, _ in _imports():
        if target in MODULES:
            edges.setdefault(module, set()).add(target)
    assert _cycle(edges) is None


def test_no_package_module_is_imported_inside_a_function():
    deferred = [(module, target) for module, target, inside in _imports()
                if inside and target in MODULES]
    assert deferred == []


def test_the_cycle_finder_finds_a_cycle():
    assert _cycle({"decider": {"oracle"}, "oracle": {"decider"}}) == \
        ["decider", "oracle", "decider"]
    assert _cycle({"decider": {"oracle"}, "oracle": {"verdicts"}}) is None
