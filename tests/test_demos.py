"""Every narrative demo, and README's library quick start, runs to
completion without a RuntimeWarning.

The demos import library names directly and read trace fields, so a
deletion or rename in the library that leaves a demo behind fails here.
Each demo runs in its own interpreter, in a temporary working directory,
against the same ``rmfspline`` package the tests import.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rmfspline

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(rmfspline.__file__).resolve().parents[1])


def _package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=_package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    # README's only python block, run with every warning as an error.
    blocks = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        cwd=tmp_path, env=_package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# Every scipy import fails once sys.modules["scipy"] is None, as it would
# with scipy not installed.
NO_SCIPY_RUN = """
import runpy, sys
sys.modules["scipy"] = None
for demo in sys.argv[1:]:
    runpy.run_path(demo, run_name="__main__")
print(sorted(m for m, module in sys.modules.items() if m.startswith("scipy") and module))
"""


def test_oracle_demos_run_without_scipy(tmp_path):
    # Demos 03 and 04 run the RK45 oracle, which needs numpy alone.
    demos = [str(d) for d in DEMOS if d.stem.startswith(("03_", "04_"))]
    assert len(demos) == 2
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", NO_SCIPY_RUN, *demos],
        cwd=tmp_path, env=_package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"
