"""The scalar oracles in ``repro.testing.reference`` stay out of production.

Production code imports :mod:`repro.testing.faults`, which runs the
``repro.testing`` package ``__init__``; so that ``__init__`` is checked too,
and only the reference module itself is exempt.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent
REFERENCE = "repro.testing.reference"


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == REFERENCE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == REFERENCE:
                return True
            if node.module == "repro.testing" and any(
                alias.name == "reference" for alias in node.names
            ):
                return True
    return False


def test_no_production_module_imports_the_oracles():
    offenders = [
        str(path.relative_to(SOURCE_ROOT))
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        if path != SOURCE_ROOT / "testing" / "reference.py"
        and _imports_reference(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_guard_detects_each_import_form():
    for source in (
        "import repro.testing.reference",
        "from repro.testing.reference import SequentialTriCycLeModel",
        "from repro.testing import faults, reference",
        "def f():\n    from repro.testing import reference\n",
    ):
        assert _imports_reference(ast.parse(source)), source
    assert not _imports_reference(ast.parse("from repro.testing import faults"))
