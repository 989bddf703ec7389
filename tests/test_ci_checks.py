"""The CI checks under tools/ci, each in a fresh interpreter (the numpy.ma
check needs one), under the CI's warning policy: each must exit 0."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKS = sorted((ROOT / "tools" / "ci").glob("*.py"))


def test_the_ci_checks_are_found():
    assert len(CHECKS) == 10


@pytest.mark.parametrize("check", CHECKS, ids=lambda p: p.name)
def test_ci_check_exits_zero(check):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(check)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
