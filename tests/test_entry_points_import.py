"""Every script and example imports cleanly.

Each module under ``scripts/`` and ``examples/`` keeps its work behind an
``if __name__ == "__main__"`` guard, so importing it runs only its imports
and definitions.  Some of them run only in the nightly job or by hand;
importing them here catches a removed or renamed library name at tier-1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("examples/*.py")])


def test_both_directories_have_modules():
    assert {path.parent.name for path in MODULES} == {"scripts", "examples"}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_imports(path, monkeypatch):
    name = f"_entry_point_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Scripts prepend src/ to sys.path; keep that local to this test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
