"""Replay of the benchmark's golden selections: pool seed 1 of every cell
of the three workloads, run through ``solve_one`` with each workload's own
parameters, must hash to what ``perfbench/golden.json`` records.
small-matrix's parameters are read from the config its pass writes, as
``run_bench`` parses it: the default colonies and 100-restart climbs, which
only this workload runs.  A change that moves a construction's or a climb's
selection fails here in about two seconds; ``python3 perfbench/reference.py
check`` replays every seed of every workload.  The perfbench files are only
read."""

import os
from pathlib import Path

import pytest

from nrpbench import budget, parse_bench_config, solve_one

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


def _solvers(workloads, wl, folder):
    """The ratios and (algorithm, params) of ``wl``'s cells; a matrix
    workload's come from the config it writes for seed 1."""
    if isinstance(wl, workloads.DirectWorkload):
        return wl.ratios, wl.solvers
    files = [folder / f"{name}.txt" for name in wl.instances]
    config = parse_bench_config(workloads.write_config(folder, files, wl.ratios, SEED, jobs=1))
    assert config.seeds == [SEED]
    return config.ratios, [(algo, config.params[algo]) for algo in config.algorithms]


@pytest.mark.parametrize("workload", ["haco-sweep", "restarts-cover", "small-matrix"])
def test_seed_one_reproduces_the_golden_selections(perfbench, workload, tmp_path):
    workloads, reference = perfbench
    assert SEED in workloads.POOL
    wl = workloads.WORKLOADS[workload]
    ratios, solvers = _solvers(workloads, wl, tmp_path)
    golden = reference.load_golden()
    cells = 0
    for name in wl.instances:
        inst = workloads.build_instance(name)
        for ratio in ratios:
            for algo, params in solvers:
                sol, _ = solve_one(inst, budget(inst, ratio), algo, SEED, params)
                want = golden[reference.golden_key(workload, name, ratio, algo, SEED)]
                assert (reference.selection_hash(sol.selected), sol.profit) == \
                    (want["sha256"], want["profit"]), (name, ratio, algo)
                cells += 1
    assert cells == len(wl.instances) * len(ratios) * len(solvers)
    if workload == "small-matrix":
        assert cells == 30
