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
from nrpbench import bench

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


def _readme_parameter_rows() -> list[list[str]]:
    """The cells of README's "Solver parameters" table, backticks dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Solver parameters", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    assert lines[0].split("|")[1:5] == [" algorithm ", " INI key ", " `solve` flag ", " default "]
    return [[cell.strip().replace("`", "") for cell in line.split("|")[1:-1]]
            for line in lines[2:]]


def test_readme_parameter_table_matches_the_registry():
    # one row per parameter of every algorithm, with its INI key, its ``solve``
    # flag and its default
    documented = {}
    for algos, key, flag, default, _meaning in _readme_parameter_rows():
        for algo in algos.split(", "):
            assert (algo, key) not in documented
            documented[algo, key] = (flag, default)
    params_of = {algo: bench._params_of(algo) for algo in bench.ALGORITHMS}
    assert documented.keys() == {(a, p.key) for a, ps in params_of.items() for p in ps}
    for algo, ps in params_of.items():
        defaults = bench.default_params(algo)
        for p in ps:
            flag, default = documented[algo, p.key]
            assert flag == "--" + p.flag.replace("_", "-"), (algo, p.key)
            value = getattr(defaults, p.field)
            if value is None:  # told in words, such as "calibrated from probe moves"
                with pytest.raises(ValueError):
                    p.type(default)
            else:
                assert p.type(default) == value, (algo, p.key)


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
