"""The repository's ``pytest.ini`` lets a failing hypothesis test report.

``error::DeprecationWarning`` must not reach the deprecation warning that
hypothesis's failure-patch writer raises on import: turned into an error, it
ends the run in an INTERNALERROR (exit code 3) that hides the falsifying
example.
"""

import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parents[1] / "pytest.ini"


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "pytest.ini").write_text(PYTEST_INI.read_text())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
