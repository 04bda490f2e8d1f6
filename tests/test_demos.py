"""Each demo script runs to the end.  They run in a fresh working directory,
as demo 04 writes its ``demo_results/`` there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrpbench

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the package the tests import, so the demos run the same code
SRC = str(Path(nrpbench.__file__).resolve().parents[1])


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
