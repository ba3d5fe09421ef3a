"""The pytest configuration reports a failing test instead of aborting."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
"""


def test_failing_hypothesis_property_is_reported(tmp_path):
    """Every warning is an error, but printing the failing example must not
    turn into an INTERNALERROR (exit 3) that stops the whole session."""
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in proc.stdout and "INTERNALERROR" not in out
