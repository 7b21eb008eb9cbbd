"""Every narrative demo runs to completion without a RuntimeWarning.

The demos import library names directly and read trace fields, so a
deletion or rename in the library that leaves a demo behind fails here.
Each demo runs in its own interpreter, in a temporary working directory,
against the same ``rmfspline`` package the tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmfspline

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(rmfspline.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
