"""The suite's own pytest configuration: a failing property test must not end
the session."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

THROWAWAY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # Hypothesis's failure report raises a DeprecationWarning from a library
    # it imports; under "error" that would be an INTERNALERROR, and every
    # later result would be lost
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = child.stdout + child.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
