"""The package's modules import one another in one direction only, and
`src/` holds only code that the package itself uses.

Every `import` and `from ... import` in `src/outerspatial/*.py` is read
from the syntax tree, at module level and inside functions; an import under
`if TYPE_CHECKING:` runs only for a type checker and is not read.  Imports
of sibling modules form an acyclic graph, and the modules each one imports
at module level are an exact table: the answer records in `verdicts` import
only `complexes`, every module that builds or prints an answer imports them,
and `__init__` imports none, as it reads each public name from its home
module on first use.  The only sibling imports deferred
into functions are the command functions of `cli`, an exact list, so a
cold command compiles only the modules it runs.  Every other module-level
import is of the standard library, so no module reaches the tests' ground
truth; the one third-party import deferred into a function is networkx's,
in `embedding.test_planar`, the single place that decides whether a
planarity test runs.  Every function, method and class defined there is named
somewhere else in the package, bar a short list of entry points, and the
private names one module reads from another are an exact list.
"""

import ast
import sys
from collections import Counter
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


def _imports() -> list[tuple[str, str, str | None]]:
    """(importing module, imported module, innermost enclosing function or None) for every import."""
    out = []

    def visit(module: str, node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue
            out.extend((module, target, function) for target in _targets(child))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(module, child, child.name if inner else function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), None)
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
    assert ("decider", "oracle", None) in imports
    assert ("oracle", "verdicts", None) in imports
    assert ("cli", "generators", "_cmd_generate") in imports
    assert ("embedding", "networkx", "test_planar") in imports
    assert ("verdicts", "typing", None) in imports
    assert ("verdicts", "surface", None) not in imports  # only under `if TYPE_CHECKING:`


# The package modules each module imports at module level.
IMPORTED = {
    "__init__": set(),
    "cli": {"complexes", "fileformat", "verdicts"},
    "complexes": set(),
    "decider": {"complexes", "embedding", "oracle", "surface", "verdicts"},
    "embedding": {"complexes", "verdicts"},
    "fileformat": {"complexes", "verdicts"},
    "generators": {"complexes", "decider", "oracle"},
    "oracle": {"complexes", "embedding", "surface", "verdicts"},
    "surface": {"complexes"},
    "verdicts": {"complexes"},
}


def test_each_module_imports_exactly_its_row_of_the_table():
    table: dict[str, set[str]] = {module: set() for module in MODULES}
    for module, target, function in _imports():
        if function is None and target in MODULES:
            table[module].add(target)
    assert table == IMPORTED


def test_every_other_module_level_import_is_of_the_standard_library():
    outside = sorted({(module, target) for module, target, function in _imports()
                      if function is None and target not in MODULES
                      and target not in sys.stdlib_module_names})
    assert outside == []


def test_the_package_import_graph_has_no_cycle():
    edges: dict[str, set[str]] = {}
    for module, target, _ in _imports():
        if target in MODULES:
            edges.setdefault(module, set()).add(target)
    assert _cycle(edges) is None


# The package modules each command imports, inside its own function.
DEFERRED = {
    ("cli", "embedding", "_cmd_links"),
    ("cli", "decider", "_cmd_decide"),
    ("cli", "decider", "_cmd_nested"),
    ("cli", "decider", "_cmd_oracle"),
    ("cli", "decider", "_cmd_render"),
    ("cli", "surface", "_cmd_surface"),
    ("cli", "generators", "_cmd_generate"),
}


def test_no_package_module_is_imported_inside_a_function():
    deferred = [(module, target, function) for module, target, function in _imports()
                if function and target in MODULES]
    assert sorted(deferred) == sorted(DEFERRED)


def test_networkx_is_imported_by_test_planar_alone():
    """No other function loads a third-party module, and no module loads networkx at import."""
    third_party = [(module, target, function) for module, target, function in _imports()
                   if target not in MODULES and (function or target == "networkx")]
    assert third_party == [("embedding", "networkx", "test_planar")]


def test_the_cycle_finder_finds_a_cycle():
    assert _cycle({"decider": {"oracle"}, "oracle": {"decider"}}) == \
        ["decider", "oracle", "decider"]
    assert _cycle({"decider": {"oracle"}, "oracle": {"verdicts"}}) is None


# Definitions that nothing else in `src/` names, each kept for a reason of its own.
UNREFERENCED = {
    "cli._Parser.error",  # argparse calls it
    "decider.decide_nested_plane",  # the library entry point the README shows
    "fileformat.parse_certificate_report",  # the report round-trip the benchmark checks
    # Per-layer metrics of BENCHMARK.json name these.
    "oracle.find_aspherical_subcomplex",
    "embedding.cycle_sides",
    "embedding.cycles_cross",
    "embedding.is_2_connected",
}


def _named(node: ast.AST) -> Counter:
    """How often each identifier occurs under node as an `ast.Name` or an `ast.Attribute`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _named_through(node: ast.AST, base: str, name: str) -> int:
    """How often `base.name` occurs under node."""
    return sum(isinstance(n, ast.Attribute) and n.attr == name
               and isinstance(n.value, ast.Name) and n.value.id == base for n in ast.walk(node))


def _unreferenced(sources: dict[str, str]) -> set[str]:
    """Functions, methods and classes of the modules, given as stem -> source, whose name
    occurs in no module outside their own definition; dunders aside.

    Names are matched without their owner, so a method passes when anything
    else of that name is used: `Graph.components` would pass unused because
    `NestedCertificate.components` is read.  A classmethod counts only where
    it is named through its owner, as `Owner.m` anywhere or `cls.m` in the
    owner's body, so `Path.from_vertices` would not pass on `Face.from_vertices`.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = sum((_named(tree) for tree in trees.values()), Counter())
    out = set()

    def uses(child: ast.AST, owner: ast.ClassDef | None) -> int:
        m = child.name
        if owner is None or not any(isinstance(d, ast.Name) and d.id == "classmethod"
                                    for d in child.decorator_list):
            return used[m] - _named(child)[m]
        return (sum(_named_through(tree, owner.name, m) for tree in trees.values())
                + _named_through(owner, "cls", m)
                - _named_through(child, owner.name, m) - _named_through(child, "cls", m))

    def visit(prefix: str, node: ast.AST, owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and uses(child, owner) == 0:
                    out.add(name)
                visit(name, child, child if isinstance(child, ast.ClassDef) else None)
            else:
                visit(prefix, child, owner)

    for module, tree in trees.items():
        visit(module, tree, None)
    return out


def test_src_holds_no_definition_that_only_tests_use():
    """A name that `__init__.py` alone exports is unused too."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert _unreferenced(sources) == UNREFERENCED


def test_the_reference_scan_ignores_a_definition_naming_itself():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\n\n"
             "def g():\n    return h\n\n"
             "class K:\n    def __init__(self):\n        pass\n\n"
             "    def m(self):\n        def inner():\n            pass\n        return inner\n",
        "b": "def h():\n    return g()\n",
    }
    assert _unreferenced(sources) == {"a.f", "a.K", "a.K.m"}


def test_a_classmethod_counts_only_where_named_through_its_owner():
    sources = {
        "a": "class A:\n    @classmethod\n    def make(cls):\n        return cls.build()\n\n"
             "    @classmethod\n    def build(cls):\n        return cls()\n\n"
             "class B:\n    @classmethod\n    def make(cls):\n        return cls.make()\n",
        "b": "def f(x):\n    return A.make(), x.make(), B\n",
    }
    assert _unreferenced(sources) == {"a.B.make", "b.f"}


# Private names that one module of `src/` reads from another, each a helper
# shared on purpose.  A new cross-module read of a private name, such as a
# record's private attribute, must be made public or listed here.
PRIVATE_READS = {
    ("decider", "_orient_faces"),
    ("embedding", "_single_cycle"),
    ("generators", "_fresh_name"),
    ("fileformat", "TwoComplex._regroup"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) for each private name a module, given as stem -> source, reads
    from another: `from .x import _y` gives `_y`, and `obj._y` gives `obj._y` unless
    obj is `self` or `cls` or the module defines or assigns `_y` itself."""
    out = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        own = set()
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.add(n.name)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                own.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                own.add(n.attr)
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                out.update((module, a.name) for a in n.names if _private(a.name))
            elif (isinstance(n, ast.Attribute) and _private(n.attr) and n.attr not in own
                  and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"))):
                out.add((module, f"{ast.unparse(n.value)}.{n.attr}"))
    return out


def test_modules_read_only_the_listed_private_names_of_others():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _private_reads(sources) == PRIVATE_READS


def test_the_private_read_scan_skips_own_names_self_and_cls():
    sources = {
        "a": "from .b import _h, g\n_k = 1\n\n"
             "class A:\n    def __init__(self):\n        self._own = 1\n\n"
             "    @classmethod\n    def make(cls):\n        return cls._make()\n\n"
             "    def m(self, other):\n        return self._x, other._own, other._far, _k\n",
        "b": "def _h():\n    return A._make(), _h, g.__name__\n",
    }
    assert _private_reads(sources) == {("a", "_h"), ("a", "other._far"), ("b", "A._make")}
