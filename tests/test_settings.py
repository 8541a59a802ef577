"""The suite's own pytest settings (`pyproject.toml`)."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x > 10**9


def test_after():
    pass
'''


def test_failing_property_test_prints_its_example(tmp_path):
    # With every warning an error, a deprecation warning raised in
    # hypothesis's report hook once ended the session with INTERNALERROR:
    # no example was printed and the next test never ran.
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY)
    config = os.path.join(REPO, "pyproject.toml")
    command = [sys.executable, "-m", "pytest", "-q", "-c", config, "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_pair.py"]
    env = {key: value for key, value in os.environ.items() if key != "PYTEST_ADDOPTS"}
    result = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout[-2000:] + result.stderr[-2000:]
    assert "Falsifying example: test_fails(" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
