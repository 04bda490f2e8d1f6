"""Replay of the benchmark's golden selections: pool seed 1 of every
haco-sweep and restarts-cover cell, run through ``solve_one`` with those
workloads' own parameters, must hash to what ``perfbench/golden.json``
records.  A change that moves a construction's or a climb's selection fails
here in about a second; ``python3 perfbench/reference.py check`` replays
every seed of every workload.  The perfbench files are only read."""

import os
from pathlib import Path

import pytest

from nrpbench import budget, solve_one

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``workloads`` and ``reference`` modules.  Importing them
    pins the BLAS thread variables, which are put back afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, os.environ.get(var, "1"))
        import reference
        import workloads
    return workloads, reference


@pytest.mark.parametrize("workload", ["haco-sweep", "restarts-cover"])
def test_seed_one_reproduces_the_golden_selections(perfbench, workload):
    workloads, reference = perfbench
    assert SEED in workloads.POOL
    wl = workloads.WORKLOADS[workload]
    golden = reference.load_golden()
    cells = 0
    for name in wl.instances:
        inst = workloads.build_instance(name)
        for ratio in wl.ratios:
            for algo, params in wl.solvers:
                sol, _ = solve_one(inst, budget(inst, ratio), algo, SEED, params)
                want = golden[reference.golden_key(workload, name, ratio, algo, SEED)]
                assert (reference.selection_hash(sol.selected), sol.profit) == \
                    (want["sha256"], want["profit"]), (name, ratio, algo)
                cells += 1
    assert cells == len(wl.instances) * len(wl.ratios) * len(wl.solvers)
