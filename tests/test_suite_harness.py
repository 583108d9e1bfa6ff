"""The suite's own harness: conftest.py and the pytest settings."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_HYPOTHESIS_TEST = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_fails(x):
        assert x < 5


    def test_after():
        pass
    """
)


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # a suite with this repo's conftest and warning filters: hypothesis's
    # report hook imports its patch module after a failure, and that must
    # not end the session in an INTERNALERROR that hides the other tests
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_HYPOTHESIS_TEST)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "FAILED test_failing.py::test_fails" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
