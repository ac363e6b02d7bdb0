"""The test-only modules of ``repro.testing`` stay out of production.

They are the scalar oracles in ``repro.testing.reference`` and the
non-inferiority gate in ``repro.testing.fidelity``.  Production code imports
:mod:`repro.testing.faults`, which runs the ``repro.testing`` package
``__init__``; so that ``__init__`` is checked too, and only the test-only
modules themselves are exempt.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent
TEST_ONLY = ("repro.testing.reference", "repro.testing.fidelity")


def _imports_test_only(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name in TEST_ONLY for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in TEST_ONLY:
                return True
            if node.module == "repro.testing" and any(
                f"repro.testing.{alias.name}" in TEST_ONLY
                for alias in node.names
            ):
                return True
    return False


def test_no_production_module_imports_the_oracles():
    exempt = {SOURCE_ROOT / "testing" / f"{name.rsplit('.', 1)[1]}.py"
              for name in TEST_ONLY}
    offenders = [
        str(path.relative_to(SOURCE_ROOT))
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        if path not in exempt
        and _imports_test_only(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_guard_detects_each_import_form():
    for source in (
        "import repro.testing.reference",
        "from repro.testing.reference import SequentialTriCycLeModel",
        "from repro.testing import faults, reference",
        "def f():\n    from repro.testing import reference\n",
        "import repro.testing.fidelity",
        "from repro.testing.fidelity import noninferiority",
        "from repro.testing import fidelity",
    ):
        assert _imports_test_only(ast.parse(source)), source
    assert not _imports_test_only(ast.parse("from repro.testing import faults"))
