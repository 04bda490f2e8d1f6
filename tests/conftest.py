import os
from pathlib import Path

import pytest

import nrpbench
from nrpbench import baselines, builtin_spec, generate, make_instance, write_instance_file

# the package the tests import, so a subprocess runs the same code
SRC = str(Path(nrpbench.__file__).resolve().parents[1])


def subprocess_env() -> dict[str, str]:
    """The environment for a test that starts the package in a subprocess:
    ``SRC`` first on ``PYTHONPATH``, so the child finds the package whether
    or not it is installed."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

# filled by test_acceptance via the `criterion` fixture, printed at the end
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def toy():
    """Four requirements (costs 5,3,4,2), edges 1->2 and 3->4; customers
    1:(10,{2}) 2:(8,{3}) 3:(6,{4}).  Total cost 14; at budget 10 the
    optimum is {2,3} with profit 14, and {1} is a strict local optimum.
    """
    return make_instance([5, 3, 4, 2], [(1, 2), (3, 4)],
                         [(10, [2]), (8, [3]), (6, [4])])


@pytest.fixture
def node_limited_nrp1(tmp_path, monkeypatch):
    """NRP-1@1 written to ``big.txt``, with ``exact``'s node limit cut to 1.

    At ratio 0.5 HiGHS needs 10 nodes to prove that instance, so ``exact``
    refuses it with ``TooLargeError``.
    """
    monkeypatch.setattr(baselines, "EXACT_NODE_LIMIT", 1)
    path = tmp_path / "big.txt"
    write_instance_file(generate(builtin_spec("NRP-1"), 1), path)
    return path


@pytest.fixture(scope="session")
def criterion():
    def record(num, ok, detail):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
