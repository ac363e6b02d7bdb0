"""The dtype lint: clean on this tree, failing on a stale allowlist entry."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_dtypes.py"


@pytest.fixture
def lint():
    spec = importlib.util.spec_from_file_location("check_dtypes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_is_clean(lint, capsys):
    assert lint.main() == 0
    assert "clean" in capsys.readouterr().out


def test_allowlist_entry_for_a_missing_file_fails(lint, monkeypatch, capsys):
    monkeypatch.setitem(lint.FILE_ALLOWLIST, "graphs/no_such_module.py",
                        "a temporary entry")
    assert lint.main() == 1
    assert "src/repro/graphs/no_such_module.py" in capsys.readouterr().out
