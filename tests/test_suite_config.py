"""The suite's own configuration reports every failure: pyproject.toml's warning filters."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROPERTY_FAILS_ONE_PASSES = '''
import warnings

import pytest
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 5


def test_the_next_test_still_runs_and_other_deprecations_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("any other deprecation", DeprecationWarning)
'''


def test_a_failing_property_test_is_one_failure_not_an_internal_error(tmp_path):
    # Reporting a falsifying example imports libcst, which warns on import.
    (tmp_path / "test_property.py").write_text(PROPERTY_FAILS_ONE_PASSES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
