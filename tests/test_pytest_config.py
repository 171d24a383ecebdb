"""The suite's own pytest configuration: a failing property test must not end
the session, and an exception that escapes a thread fails its test."""
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


THREAD_THROWAWAY = '''
import threading


def test_a_thread_raises():
    thread = threading.Thread(target=lambda: 1 / 0)
    thread.start()
    thread.join()
'''


def _child_session(tmp_path, source: str, *options: str) -> str:
    (tmp_path / "test_throwaway.py").write_text(source)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         *options, "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return child.stdout + child.stderr


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # Hypothesis's failure report raises a DeprecationWarning from a library
    # it imports; under "error" that would be an INTERNALERROR, and every
    # later result would be lost
    out = _child_session(tmp_path, THROWAWAY)
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out


def test_an_exception_in_a_thread_fails_its_test(tmp_path):
    # pytest reports an exception that escapes a thread as a
    # PytestUnhandledThreadExceptionWarning, which the "error" filter turns
    # into a failure; so an error that the replica law's producer thread
    # raised, and its hand-off lost, cannot pass unseen. Without the filter
    # the same test passes with a warning
    out = _child_session(tmp_path, THREAD_THROWAWAY)
    assert "1 failed" in out and "PytestUnhandledThreadExceptionWarning" in out, out
    out = _child_session(tmp_path, THREAD_THROWAWAY,
                         "-W", "default::pytest.PytestUnhandledThreadExceptionWarning")
    assert "1 passed, 1 warning" in out, out
