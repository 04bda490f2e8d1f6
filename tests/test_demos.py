"""Each demo script runs to the end.  They run in a fresh working directory,
as demo 04 writes its ``demo_results/`` there.  The package exports the API
that README and the demos document, and nothing else."""

import subprocess
import sys
import types
from pathlib import Path

import pytest

import nrpbench
from conftest import subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


# the documented calls, the types they take and return, and the errors they raise
DOCUMENTED_API = """
    AcoParams BenchConfig ConfigError CoverTracker FhcParams FileSource GenSource GenSpec
    GraspParams Instance InvalidInstanceError LevelSpec ParseError SaParams Solution
    TooLargeError budget builtin_names builtin_spec closure evaluate exact generate
    make_instance parse_bench_config read_instance read_instance_file run run_bench
    solve_one verify_dump write_instance write_instance_file
""".split()


def test_package_exports_the_documented_api():
    assert len(DOCUMENTED_API) == 33
    assert set(nrpbench.__all__) == set(DOCUMENTED_API)
    assert len(nrpbench.__all__) == len(DOCUMENTED_API)
    # every listed name resolves, and no other public name is imported
    exported = {name for name, value in vars(nrpbench).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(DOCUMENTED_API)


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
