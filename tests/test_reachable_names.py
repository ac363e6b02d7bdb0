"""Every public module-level name in ``src/repro`` is reached from an entry point.

The entry points are every file under ``scripts/``, ``examples/``,
``benchmarks/`` and ``perfbench/``, the ``repro.testing`` package (its
oracles stay, so whatever they call stays), ``repro/__main__.py`` and the
module-level statements that run on import.  A definition is reached when an
entry point or a reached definition names it: as a ``Name``, an
``Attribute`` or an import alias.  In the entry-point files an
identifier-shaped string constant counts too, because perfbench wraps
functions by ``(module, "name")``.  Package ``__init__`` re-exports and
``tests/`` do not count.

Names match by identifier, not by module, so the walk can only err towards
keeping a name.  A public name that nothing reaches is deleted with its
tests, or listed in ``ALLOWLIST`` with a one-line reason.  Only module-level
names are checked, not methods.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SOURCE_ROOT.parents[1]
ENTRY_DIRS = ("scripts", "examples", "benchmarks", "perfbench")

ALLOWLIST = {
    "repro.graphs.io.load_graph_json":
        "reads back the file `repro synthesize --output x.json` writes",
    "repro.graphs.io.graph_from_payload":
        "reads back the JSON bodies `/sample` returns",
    "repro.graphs.truncation.truncate_edges":
        "Definition 2's truncated graph µ(G, k); the truncation oracle "
        "tests compare against it",
    "repro.privacy.ledger.LEDGER_FAULT_POINTS":
        "the crash-recovery matrix iterates it",
}


def _named(node: ast.AST, strings: bool = False) -> set:
    """Every identifier ``node`` names."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.update(child.name.split("."))
        elif (strings and isinstance(child, ast.Constant)
              and isinstance(child.value, str) and child.value.isidentifier()):
            names.add(child.value)
    return names


def _defined(statement: ast.stmt) -> list:
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def unreached(modules: dict, roots: set) -> list:
    """``module.name`` of every public definition in ``modules`` (dotted name
    to parsed tree) that neither ``roots`` nor a reached definition names."""
    definitions = {}
    pending = set(roots)
    for module, tree in modules.items():
        for statement in tree.body:
            names = _defined(statement)
            for name in names:
                definitions.setdefault(name, []).append((module, statement))
            if not names and not isinstance(statement, (ast.Import, ast.ImportFrom)):
                pending |= _named(statement)
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for _, statement in definitions.get(name, ()):
                pending |= _named(statement)
    return sorted(f"{module}.{name}" for name, found in definitions.items()
                  if name not in reached and not name.startswith("_")
                  for module, _ in found)


def _repository_unreached() -> list:
    roots = set()
    for directory in ENTRY_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            roots |= _named(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    modules = {}
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = path.relative_to(SOURCE_ROOT.parent).with_suffix("")
        if relative.parts[1] in ("testing", "__main__"):
            roots |= _named(tree)
        else:
            parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
            modules[".".join(parts)] = tree
    return unreached(modules, roots)


def test_every_public_name_is_reached():
    assert [name for name in _repository_unreached() if name not in ALLOWLIST] == []


def test_allowlist_entries_are_defined_and_unreached():
    assert sorted(set(ALLOWLIST) - set(_repository_unreached())) == []
    for reason in ALLOWLIST.values():
        assert reason and "\n" not in reason


def test_walk_is_transitive_and_reads_entry_strings():
    source = (
        "import os\n"
        "def used(): return _helper()\n"
        "def _helper(): return kept\n"
        "kept = 1\n"
        "def dead(): return dead_helper()\n"
        "def dead_helper(): return os.sep\n"
        "def wrapped(): pass\n"
        "class Imported: pass\n"
        "if True: on_import()\n"
        "def on_import(): pass\n"
    )
    roots = _named(ast.parse("from m import Imported\nused()\nwrap(m, 'wrapped')"),
                   strings=True)
    assert unreached({"m": ast.parse(source)}, roots) == ["m.dead", "m.dead_helper"]


def test_package_reexports_do_not_reach():
    modules = {
        "pkg": ast.parse("from pkg.m import dead\n__all__ = ['dead']\n"),
        "pkg.m": ast.parse("def dead(): pass\n"),
    }
    assert unreached(modules, set()) == ["pkg.m.dead"]


def test_strings_reach_only_from_entry_files():
    source = "def dead(): pass\ndef table(): return {'dead': 1}\n"
    roots = _named(ast.parse("table()"), strings=True)
    assert unreached({"m": ast.parse(source)}, roots) == ["m.dead"]
