"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this in a fresh process per workload, under a wall-clock
ceiling.  With ``--trace 0`` it measures the end-to-end metrics with
tracing off; with ``--trace 1`` it pairs traced and untraced passes over
the same solver seed and reports the per-layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import bootstrap
import numpy as np
from reference import golden_key, load_golden, load_optima, selection_hash
from spans import Tracer
from workloads import POOL, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

SETUPS_PER_PASS = 2  # setup_s is the median of all set-ups in the run
MIN_PASSES = 3  # passes every run makes; the gap metrics cover exactly these

# The speed of a shared virtual machine drifts by a quarter within a minute.  The
# worker times a fixed kernel before every set-up, before every cell and after a
# pass's last one (small-matrix: before and after each run_bench), and scales each
# stretch of work by the mean of the two kernel times around it, to the speed at
# which the kernel takes CALIBRATION_REF_S (about its median on the machine the
# baseline was recorded on).  The kernel does the package's two kinds of work:
# dense float64 matmuls on a 0/1 matrix shaped like a closure, and interpreted
# loops over a dict.  Its matrix adds about 5 MB to peak_rss_mb.  The raw times
# are recorded too.
CALIBRATION_REF_S = 0.035
_CAL_CLOSURE = (np.arange(400 * 1000) % 50 == 0).astype(np.float64).reshape(400, 1000)

END_TO_END = {"setup_s": "s", "matrix_s": "s", "cell_s_p50": "s", "gap_pct_mean": "%",
              "peak_rss_mb": "MB"}
# printed and recorded, not gated: the worst of a few cells moves by about 20%
# from one set of solver seeds to the next, more than any allowed bound
REPORTED_ONLY = {"gap_pct_max": "%"}

# per-layer metrics: span name -> quantities; every traced run reports all of them
LAYER_QUANTITIES = {
    "local_search.sweep_improve": ("calls", "self_s", "improved_frac"),
    "local_search.improve": ("calls", "self_s", "improved_frac"),
    "local_search.random_feasible": ("calls", "self_s"),
    "model.cover_add": ("calls", "self_s"),
    "model.evaluate": ("calls", "self_s"),
    "model.make_instance": ("calls", "self_s", "alloc_mb"),
    "aco.construct_solution": ("calls", "self_s"),
    "aco.pheromone": ("calls", "self_s"),
    "aco.run": ("calls", "self_s"),
    "baselines.grasp_construct": ("calls", "self_s"),
    "baselines.sa": ("calls", "self_s", "attempts", "attempts_per_s"),
    "generate.generate": ("calls", "self_s"),
    "fileformat.read_instance_file": ("calls", "self_s"),
    "bench.run_bench": ("calls", "self_s"),
    "bench.write": ("calls", "self_s"),
}
# metric span -> the spans whose self times it adds up; its calls are the first one's
GROUPS = {
    "aco.pheromone": ("aco.evaporate", "aco.deposit"),
    "bench.write": ("bench.write_csv", "bench.write_markdown", "bench.write_file"),
    "fileformat.read_instance_file": ("fileformat.read_instance_file", "fileformat.read_instance"),
}
QUANTITY_UNITS = {"calls": "count", "self_s": "s", "improved_frac": "ratio", "alloc_mb": "MB",
                  "attempts": "count", "attempts_per_s": "1/s"}


def pass_order(seed: int) -> list[int]:
    """The solver seeds of a run's passes, in order: a seeded shuffle of the pool."""
    order = list(POOL)
    random.Random(seed).shuffle(order)
    return order


class Checker:
    """Checks every cell: no error, within budget, golden selection; keeps the gaps."""

    def __init__(self, workload: str):
        self.workload = workload
        self.golden = load_golden()
        self.optima = load_optima()
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps: list[float] = []

    def check(self, cells, seed: int, keep_gaps: bool) -> None:
        for cell in cells:
            self.attempted += 1
            problem = cell.error
            if problem is None and cell.cost > cell.budget:
                problem = f"cost {cell.cost} exceeds budget {cell.budget}"
            gold = self.golden.get(golden_key(self.workload, cell.instance, cell.ratio,
                                              cell.algo, seed))
            if problem is None and gold is None:
                problem = "no golden selection recorded"
            if problem is None and selection_hash(cell.selected) != gold["sha256"]:
                problem = f"selection differs from the golden (profit {cell.profit}, golden {gold['profit']})"
            opt = self.optima.get(cell.instance, {}).get(cell.ratio)
            if problem is None and opt is None:
                problem = "no proven optimum recorded"
            if problem is None and cell.profit > opt:
                problem = f"profit {cell.profit} beats the proven optimum {opt}"
            if problem is not None:
                self.failures.append(f"seed {seed} {cell.key}: {problem}")
            elif keep_gaps:
                self.gaps.append(100.0 * (opt - cell.profit) / opt)


def machine_facts() -> dict:
    cfg = np.show_config(mode="dicts")
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": cfg["Build Dependencies"]["blas"].get("name"),
        "blas_threads": bootstrap.BLAS_THREADS,
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_s() -> float:
    """One timing of the fixed kernel: four 400x1000 by 1000x400 matmuls and a dict loop."""
    t0 = time.perf_counter()
    for _ in range(4):
        _CAL_CLOSURE @ _CAL_CLOSURE.T
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - t0


class Calibration:
    """Kernel times in the order they were taken; scales the work between two."""

    def __init__(self):
        self.kernel_s: list[float] = []

    def tick(self) -> None:
        self.kernel_s.append(calibration_s())

    def scaled(self, seconds: float, before: int) -> float:
        """``seconds`` of work done between kernel timings ``before`` and ``before + 1``."""
        pair = self.kernel_s[before] + self.kernel_s[before + 1]
        return seconds * 2.0 * CALIBRATION_REF_S / pair

    def scaled_pass(self, res, first: int) -> tuple[float, list[float]]:
        """A pass's time and its cells' times, scaled; ``first`` is the index of the
        kernel timing before its first segment."""
        total, cell_times = 0.0, []
        cells = iter(res.cells)
        for i, (seconds, n) in enumerate(res.segments):
            total += self.scaled(seconds, first + i)
            cell_times.extend(self.scaled(next(cells).time_s, first + i) for _ in range(n))
        return total, cell_times


def loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def run_untraced(wl, seed: int, seconds: float, work: Path, t_start: float) -> dict:
    checker = Checker(wl.name)
    cal = Calibration()
    setup_times, pass_times, cell_times = [], [], []
    raw_setups, raw_passes, raw_cells = [], [], []
    rounds: list[float] = []
    for k, solver_seed in enumerate(_cycle(pass_order(seed))):
        if k >= MIN_PASSES and (time.perf_counter() - t_start
                                + statistics.median(rounds) > seconds):
            break
        t_round = time.perf_counter()
        # set-ups spread over the run, so that their median sees all of it; each is
        # followed by a kernel timing, the next set-up's or the pass's first
        setups = []  # (seconds, index of the kernel timing before it)
        for _ in range(SETUPS_PER_PASS):
            cal.tick()
            t0 = time.perf_counter()
            prepared = wl.setup(work)
            setups.append((time.perf_counter() - t0, len(cal.kernel_s) - 1))
        first = len(cal.kernel_s)
        res = wl.run_pass(prepared, solver_seed, work, between=cal.tick)
        setup_times.extend(cal.scaled(t, i) for t, i in setups)
        pass_s, cells_s = cal.scaled_pass(res, first)
        pass_times.append(pass_s)
        cell_times.extend(cells_s)
        raw_setups.extend(t for t, _ in setups)
        raw_passes.append(res.wall_s)
        raw_cells.extend(c.time_s for c in res.cells)
        checker.check(res.cells, solver_seed, keep_gaps=k < MIN_PASSES)
        rounds.append(time.perf_counter() - t_round)

    raw = {"setup_s": statistics.median(raw_setups), "matrix_s": statistics.median(raw_passes),
           "cell_s_p50": statistics.median(raw_cells)}
    gaps = checker.gaps or [0.0]  # no gap when every measured cell failed
    scaled = ", each scaled by the kernel timings around it"
    values = {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups{scaled}"),
        "matrix_s": (statistics.median(pass_times), f"median of {len(pass_times)} passes{scaled}"),
        "cell_s_p50": (statistics.median(cell_times), f"median of {len(cell_times)} cells{scaled}"),
        "gap_pct_mean": (statistics.fmean(gaps), f"mean of {len(checker.gaps)} cells"),
        "gap_pct_max": (max(gaps), f"worst of {len(checker.gaps)} cells"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "whole worker process"),
    }
    units = {**END_TO_END, **REPORTED_ONLY}
    return {
        "metrics": {k: {"value": values[k][0], "unit": units[k]} for k in END_TO_END},
        "reported_only": {k: {"value": values[k][0], "unit": units[k]} for k in REPORTED_ONLY},
        "checker": checker,
        "samples": {k: note for k, (_, note) in values.items()},
        "raw_times": raw,
        "slowdown": statistics.median(cal.kernel_s) / CALIBRATION_REF_S,
        "pass_times": pass_times,
        "raw_pass_times": raw_passes,
        "setup_times": setup_times,
        "calibrations": cal.kernel_s,
    }


def run_traced(wl, seed: int, seconds: float, work: Path, t_start: float) -> dict:
    """Traced and untraced passes in pairs over the same solver seed."""
    tracer = Tracer()
    checker = Checker(wl.name)
    setup_ranges, pass_ranges, ratios = [], [], []
    for k, solver_seed in enumerate(_cycle(pass_order(seed))):
        spent = time.perf_counter() - t_start
        if k >= 1 and spent + spent / k > seconds:
            break
        lo = tracer.mark()
        with tracer:
            prepared = wl.setup(work)
        setup_ranges.append((lo, tracer.mark()))
        timed = {}
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            lo = tracer.mark()
            if traced:
                with tracer:
                    res = wl.run_pass(prepared, solver_seed, work)
                pass_ranges.append((lo, tracer.mark()))
            else:
                res = wl.run_pass(prepared, solver_seed, work)
            timed[traced] = res.wall_s
            checker.check(res.cells, solver_seed, keep_gaps=False)
        ratios.append(timed[True] / timed[False])

    # retained bytes of each build, in a separate set-up: tracemalloc slows allocation
    alloc_tracer = Tracer()
    tracemalloc.start()
    try:
        with alloc_tracer:
            wl.setup(work)
    finally:
        tracemalloc.stop()

    # one set-up plus one pass: set-up spans averaged over set-ups, pass spans over passes
    selfs = tracer.self_times()
    per_layer: dict[str, dict[str, float]] = {}
    for ranges in (setup_ranges, pass_ranges):
        _add_into(per_layer, _phase_means(tracer, ranges, selfs))
    alloc = alloc_tracer.aggregate(0, alloc_tracer.mark(), alloc_tracer.self_times())
    _add_into(per_layer, {"model.make_instance": {
        "alloc_bytes": alloc.get("model.make_instance", {}).get("alloc_bytes", 0.0)}})

    metrics = {}
    for span, quantities in LAYER_QUANTITIES.items():
        agg = per_layer.get(span, {})
        calls = agg.get("calls", 0.0)
        values = {
            "calls": calls,
            "self_s": agg.get("self_s", 0.0),
            "improved_frac": agg.get("improved", 0.0) / calls if calls else 0.0,
            "alloc_mb": agg.get("alloc_bytes", 0.0) / 2**20,
            "attempts": agg.get("attempts", 0.0),
            "attempts_per_s": agg.get("attempts", 0.0) / agg["self_s"] if agg.get("self_s") else 0.0,
        }
        for q in quantities:
            metrics[f"{span}.{q}"] = {"value": values[q], "unit": QUANTITY_UNITS[q]}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (statistics.median(ratios) - 1.0),
                                     "unit": "%"}
    tracer.dump(work.parent / f"spans-{wl.name}-s{seed}.jsonl.gz")
    note = f"mean of {len(pass_ranges)} traced set-ups and passes"
    return {"metrics": metrics, "checker": checker,
            "samples": {"trace.overhead_pct": f"median of {len(ratios)} paired passes",
                        **{name: note for name in metrics if name.endswith("self_s")}}}


def _phase_means(tracer: Tracer, ranges, selfs) -> dict[str, dict[str, float]]:
    """Per span name and per metric group: totals per phase, averaged over the phases."""
    sums: dict[str, dict[str, float]] = {}
    for lo, hi in ranges:
        _add_into(sums, tracer.aggregate(lo, hi, selfs))
    for group, members in GROUPS.items():
        parts = [sums.get(m, {}) for m in members]
        sums[group] = {"calls": parts[0].get("calls", 0.0),
                       "self_s": sum(p.get("self_s", 0.0) for p in parts)}
    return {name: {k: v / len(ranges) for k, v in agg.items()} for name, agg in sums.items()}


def _add_into(total: dict[str, dict[str, float]], part: dict[str, dict[str, float]]) -> None:
    for name, agg in part.items():
        slot = total.setdefault(name, {})
        for key, val in agg.items():
            slot[key] = slot.get(key, 0.0) + val


def _cycle(order):
    while True:
        yield from order


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    facts = machine_facts()
    facts["loadavg_start"] = loadavg()
    run = run_traced if args.trace else run_untraced
    out = run(wl, args.seed, args.seconds, work, t_start)
    facts["loadavg_end"] = loadavg()
    facts["elapsed_s"] = time.perf_counter() - t_start
    checker = out.pop("checker")
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "attempted": checker.attempted, "failed": len(checker.failures),
        "failures": checker.failures[:20], "meta": facts, **out,
    }
    record = WORK / f"result-{wl.name}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
