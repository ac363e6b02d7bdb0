"""Keyword arguments passed to the library outside ``tests/`` exist.

``scripts/``, ``examples/``, ``benchmarks/`` and ``perfbench/`` call into
``repro``, and some of that code runs only in the nightly job or by hand.
For every call whose callee is a class, function or module attribute
imported from ``repro``, each keyword argument must name a parameter of
the callee, so a retired option fails at tier-1 instead of nightly.
Callees that take ``**kwargs`` are skipped.  The files are parsed, not run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("scripts", "examples", "benchmarks", "perfbench")
FILES = sorted(path for directory in DIRECTORIES
               for path in (ROOT / directory).glob("*.py"))


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _imported_names(tree: ast.AST) -> dict:
    """Every name an import anywhere in the file binds to a ``repro``
    module or module attribute."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _is_repro(alias.name):
                    continue
                module = importlib.import_module(alias.name)
                if alias.asname:
                    names[alias.asname] = module
                else:  # ``import repro.a.b`` binds ``repro``
                    names["repro"] = importlib.import_module("repro")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_repro(node.module or ""):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    value = getattr(module, alias.name)
                else:  # a submodule the package does not import itself
                    value = importlib.import_module(
                        f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = value
    return names


def _resolve(node: ast.AST, names: dict):
    """The object a call's callee expression names, or ``None`` when the
    expression is not an attribute chain rooted at an imported name."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        if owner is None:
            return None
        if not hasattr(owner, node.attr):
            raise AssertionError(f"{ast.unparse(node)} does not exist")
        return getattr(owner, node.attr)
    return None


def _keyword_parameters(callee):
    """The names a call may pass by keyword, or ``None`` when any name goes
    (``**kwargs``) or the signature cannot be read."""
    try:
        signature = inspect.signature(callee)
    except (TypeError, ValueError):
        return None
    parameters = signature.parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return None
    return {p.name for p in parameters
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}


def _checked_keywords(path: Path):
    """``(line, callee, keyword, accepted)`` for each keyword argument the
    file passes to a ``repro`` callee with a readable signature."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = _imported_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        if not keywords:
            continue
        callee = _resolve(node.func, names)
        if callee is None or not callable(callee):
            continue
        accepted = _keyword_parameters(callee)
        if accepted is None:
            continue
        for keyword in keywords:
            yield (node.lineno, ast.unparse(node.func), keyword,
                   keyword in accepted)


def test_every_directory_has_files():
    assert {path.parent.name for path in FILES} == set(DIRECTORIES)


def test_the_check_sees_keyword_calls():
    # A resolver that silently skipped everything would pass the test
    # below; the four directories pass well over a hundred keywords.
    checked = sum(1 for path in FILES for _ in _checked_keywords(path))
    assert checked >= 100


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_keywords_name_parameters(path):
    unknown = [f"{path.parent.name}/{path.name}:{line}: {callee}(..., "
               f"{keyword}=...)"
               for line, callee, keyword, accepted in _checked_keywords(path)
               if not accepted]
    assert unknown == []
