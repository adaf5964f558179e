"""The project's pytest settings report a failing hypothesis property like any
other failure: the run goes on to the next test and prints its summary."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
