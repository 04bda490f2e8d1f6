"""Self-tests of the benchmark: python3 -m pytest perfbench -q  (about a minute)."""

import sys
import time

import pytest

import bootstrap  # noqa: F401  (before numpy: single-threaded BLAS, src/ on the path)
import nrpbench
import reference
import spans
import worker
from run import run_worker
from workloads import POOL, WORKLOADS, Cell, PassResult, build_instance, write_config


def _toy():
    """The 3-customer toy of tests/conftest.py: optimum 14 ({2, 3}) at budget 10."""
    return nrpbench.make_instance([5, 3, 4, 2], [(1, 2), (3, 4)],
                                  [(10, [2]), (8, [3]), (6, [4])])


def _cut(instance, customers: int):
    return nrpbench.make_instance(
        [r.cost for r in instance.requirements], instance.graph.edges,
        [(c.profit, c.requests) for c in instance.customers[:customers]],
        instance.level_sizes)


def test_stored_references_are_canonical():
    for path, data in ((reference.GOLDEN_FILE, reference.load_golden()),
                       (reference.OPTIMA_FILE, reference.load_optima())):
        assert path.read_text(encoding="utf-8") == reference.render(data)


def test_optima_regenerate_byte_for_byte():
    assert reference.render(reference.compute_optima()) == \
        reference.OPTIMA_FILE.read_text(encoding="utf-8")


def test_golden_regenerates_for_one_pool_seed():
    """The full check is `python3 perfbench/reference.py check` (a few minutes)."""
    seed = POOL[0]
    fresh = reference.compute_golden(seeds=[seed])
    stored = reference.load_golden()
    assert len(fresh) == sum(1 for k in stored if k.endswith(f"|{seed}"))
    assert reference.render(fresh) == reference.render({k: stored[k] for k in fresh})


@pytest.mark.parametrize("budget", range(0, 15))
def test_milp_matches_exact_on_toy(budget):
    inst = _toy()
    assert reference.prove_optimum(inst, budget)[0] == nrpbench.exact(inst, budget).profit


@pytest.mark.parametrize("ratio", ["0.3", "0.5", "0.7"])
def test_milp_matches_exact_on_cut_nrp1(ratio):
    inst = _cut(build_instance("NRP-1@1"), 20)
    bud = nrpbench.budget(inst, ratio)
    value, selected = reference.prove_optimum(inst, bud)
    assert value == nrpbench.exact(inst, bud).profit
    assert nrpbench.evaluate(inst, selected).cost <= bud


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6];  root > c [5.5, 7] overlaps b
    starts = [0.0, 1.0, 2.0, 5.0, 5.5]
    ends = [10.0, 4.0, 3.0, 6.0, 7.0]
    parents = [-1, 0, 1, 0, 0]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 2, 3 - 1, 1, 1, 1.5])


def test_self_time_clips_children_to_parent():
    assert spans.self_times([0.0, 1.0], [2.0, 5.0], [-1, 0]) == pytest.approx([1.0, 4.0])


def test_tracer_rebinds_everywhere_and_restores():
    original = nrpbench.evaluate
    tracer = spans.Tracer()
    inst = _toy()
    with tracer:
        assert nrpbench.aco.evaluate is not original
        assert nrpbench.bench.evaluate is nrpbench.aco.evaluate
        params = nrpbench.AcoParams(ants=2, iterations=3)
        nrpbench.solve_one(inst, 10, "haco", 1, params)
        nrpbench.solve_one(inst, 10, "sa", 1, nrpbench.SaParams(lm_beta=0.5, moves_per_temp=3))
    assert nrpbench.evaluate is original and nrpbench.aco.evaluate is original
    assert nrpbench.CoverTracker.add.__name__ == "add" and not hasattr(
        nrpbench.CoverTracker.add, "__wrapped__")
    agg = tracer.aggregate(0, tracer.mark(), tracer.self_times())
    assert agg["local_search.sweep_improve"]["calls"] == 6
    assert agg["aco.construct_solution"]["calls"] == 6
    assert agg["aco.evaporate"]["calls"] == 3
    assert agg["bench.solve_one"]["calls"] == 2
    assert agg["baselines.sa"]["attempts"] == 3 * tracer.lundy_mees_steps > 0
    assert "baselines.lundy_mees" not in agg


def test_calibration_scales_each_segment_by_the_kernel_timings_around_it():
    cal = worker.Calibration()
    ref = worker.CALIBRATION_REF_S
    # a set-up, then a pass of two segments: the first holds no cell, the second two
    cal.kernel_s = [ref, ref, 3 * ref, ref]
    assert cal.scaled(1.0, 0) == pytest.approx(1.0)
    cells = [Cell("i", "0.5", "a", 0.5), Cell("i", "0.5", "b", 0.25)]
    total, cell_times = cal.scaled_pass(PassResult([(2.0, 0), (1.0, 2)], cells), first=1)
    assert total == pytest.approx(2.0 / 2 + 1.0 / 2)
    assert cell_times == pytest.approx([0.25, 0.125])


def test_matrix_pass_times_the_kernel_before_every_cell(tmp_path):
    wl = WORKLOADS["small-matrix"]
    ticks = []
    res = wl.run_pass(wl.setup(tmp_path), POOL[0], tmp_path, between=lambda: ticks.append(1))
    assert len(res.cells) == 2 * 3 * 5 and all(c.error is None for c in res.cells)
    assert len({c.key for c in res.cells}) == len(res.cells)
    assert [n for _, n in res.segments] == [0] + [1] * len(res.cells)
    assert len(ticks) == len(res.segments) + 1
    assert nrpbench.bench._run_cell.__name__ == "_run_cell"


def test_small_matrix_is_identical_for_one_and_two_jobs(tmp_path):
    wl = WORKLOADS["small-matrix"]
    prepared = wl.setup(tmp_path)
    files = [p for p, _ in prepared.values()]
    outputs = []
    for jobs in (1, 2):
        folder = tmp_path / f"jobs{jobs}"
        config = write_config(folder, files, wl.ratios, POOL[0], jobs=jobs)
        records = nrpbench.run_bench(nrpbench.parse_bench_config(config))
        assert all(r.error is None for r in records)
        rows = (folder / "results.csv").read_text().splitlines()
        time_col = rows[0].split(",").index("time_s")
        csv = [",".join(c for i, c in enumerate(row.split(",")) if i != time_col) for row in rows]
        dumps = {p.name: p.read_bytes() for p in sorted((folder / "dumps").iterdir())}
        outputs.append((csv, dumps))
    assert len(outputs[0][1]) == 2 * 3 * 5
    assert outputs[0] == outputs[1]


def test_hang_guard_ends_a_stuck_worker():
    t0 = time.monotonic()
    result, reason = run_worker([sys.executable, "-c", "import time; time.sleep(60)"], 1.0)
    assert result is None and "ceiling" in reason
    assert time.monotonic() - t0 < 30
