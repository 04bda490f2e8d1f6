"""The benchmark's three workloads, run through nrpbench's public API only.

A workload has a set-up (build every instance it needs) and a pass (run
every cell of its matrix once, for one solver seed).  Every cell is one
``solve_one`` call, timed the way ``bench._run_cell`` times it; small-matrix
goes through ``run_bench`` itself, and only hooks ``bench._run_cell`` to time
the calibration kernel between its cells.  Solver seeds come from
:data:`POOL`, for which ``golden.json`` holds every selection.

Package functions are looked up on the package at call time, so that the
traced run (see ``spans.py``) sees every call.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import bootstrap  # noqa: F401  (before numpy: single-threaded BLAS, src/ on the path)
import nrpbench
from nrpbench import bench

HERE = Path(__file__).resolve().parent
SMALL_MATRIX_TEMPLATE = HERE / "small_matrix.ini"

# solver seeds with recorded golden selections; a run draws its passes from these
POOL = tuple(range(1, 17))


@dataclass(frozen=True)
class Cell:
    instance: str
    ratio: str
    algo: str
    time_s: float
    profit: int | None = None
    cost: int | None = None
    budget: int | None = None
    selected: tuple[int, ...] | None = None
    error: str | None = None

    @property
    def key(self) -> str:
        return f"{self.instance} {self.ratio} {self.algo}"


@dataclass(frozen=True)
class PassResult:
    """Every cell once.  ``segments`` are the stretches of work between two
    calls of the pass's ``between`` hook, in order, as (seconds, cells in it);
    they add up to the user's wait, checks by the package included."""

    segments: list[tuple[float, int]]
    cells: list[Cell]

    @property
    def wall_s(self) -> float:
        return sum(seconds for seconds, _ in self.segments)


def _nothing() -> None:
    pass


def build_instance(name: str):
    """``NRP-k@g``: built-in family k at generation seed g."""
    family, _, gen_seed = name.partition("@")
    return nrpbench.generate(nrpbench.builtin_spec(family), int(gen_seed))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[str, ...]
    ratios: tuple[str, ...]

    def instance_ratios(self) -> list[tuple[str, str]]:
        return [(i, r) for i in self.instances for r in self.ratios]


@dataclass(frozen=True)
class DirectWorkload(Workload):
    """Cells are solve_one calls on generated instances, in this process."""

    solvers: tuple = ()  # (algorithm, params)

    def setup(self, work: Path) -> dict:
        return {name: build_instance(name) for name in self.instances}

    def run_pass(self, instances: dict, seed: int, work: Path, between=_nothing) -> PassResult:
        """One segment per cell; ``between`` runs before each cell and after the last."""
        cells, segments = [], []
        for name, inst in instances.items():
            for ratio in self.ratios:
                for algo, params in self.solvers:
                    between()
                    t0 = time.perf_counter()
                    bud = nrpbench.budget(inst, ratio)
                    cells.append(_direct_cell(inst, name, ratio, bud, algo, seed, params))
                    segments.append((time.perf_counter() - t0, 1))
        between()
        return PassResult(segments, cells)


def _direct_cell(inst, name, ratio, bud, algo, seed, params) -> Cell:
    t0 = time.perf_counter()
    try:
        sol, _ = nrpbench.solve_one(inst, bud, algo, seed, params)
    except Exception as exc:  # noqa: BLE001 - a failed cell is recorded, not fatal
        return Cell(name, ratio, algo, time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    check = nrpbench.evaluate(inst, sol.selected)
    error = None
    if (check.profit, check.cost) != (sol.profit, sol.cost):
        error = f"re-evaluation gives profit {check.profit} cost {check.cost}"
    return Cell(name, ratio, algo, elapsed, sol.profit, sol.cost, bud,
                tuple(sorted(sol.selected)), error)


@dataclass(frozen=True)
class MatrixWorkload(Workload):
    """One pass is one ``run_bench`` over an INI config of instance files."""

    def setup(self, work: Path) -> dict:
        """Generate, write and read back every instance; returns name -> (path, instance)."""
        folder = work / "instances"
        folder.mkdir(parents=True, exist_ok=True)
        loaded = {}
        for name in self.instances:
            path = folder / f"{name}.txt"
            nrpbench.write_instance_file(build_instance(name), path)
            loaded[name] = (path, nrpbench.read_instance_file(path))
        return loaded

    def run_pass(self, prepared: dict, seed: int, work: Path, between=_nothing) -> PassResult:
        """``between`` runs before and after ``run_bench`` and before each of its cells.

        The per-cell call goes through ``bench._run_cell``, which starts the
        cell's own clock only after it is entered, so ``between`` is never
        inside a cell's time; its own time is left out of every segment.  The
        first segment holds no cell; each later one holds the cell it starts.
        """
        folder = work / "pass"
        shutil.rmtree(folder, ignore_errors=True)
        config = write_config(folder, [p for p, _ in prepared.values()], self.ratios, seed,
                              jobs=1)
        # run_bench keeps loaded instances for the life of the process; a user's
        # run loads each file once, so every pass starts with an empty cache
        getattr(bench, "_instance_cache", {}).clear()
        run_cell = bench._run_cell
        started, pauses = [], []  # each cell's (source, ratio, algorithm, seed); between()'s spans

        def run_cell_after_between(args):
            t0 = time.perf_counter()
            between()
            pauses.extend((t0, time.perf_counter()))
            started.append(tuple(args[:4]))
            return run_cell(args)

        between()
        t_pass = time.perf_counter()
        bench._run_cell = run_cell_after_between
        try:
            records = nrpbench.run_bench(nrpbench.parse_bench_config(config))
        finally:
            bench._run_cell = run_cell
        bounds = [t_pass, *pauses, time.perf_counter()]
        between()
        if len(started) != len(records):
            raise RuntimeError("run_bench no longer runs each cell through bench._run_cell")
        by_key = {(r.instance_name, r.budget_ratio, r.algorithm, r.seed): r for r in records}
        in_order = [by_key[(source.name, ratio, algo, s)] for source, ratio, algo, s in started]
        segments = [(end - begin, 0 if k == 0 else 1)
                    for k, (begin, end) in enumerate(zip(bounds[::2], bounds[1::2]))]
        return PassResult(segments, [_matrix_cell(folder / "dumps", prepared, r) for r in in_order])


def write_config(folder: Path, files, ratios, seed: int, jobs: int) -> Path:
    """The small-matrix config for one solver seed, with outputs under ``folder``."""
    folder.mkdir(parents=True, exist_ok=True)
    text = SMALL_MATRIX_TEMPLATE.read_text(encoding="utf-8").format(
        files=" ".join(str(f) for f in files), ratios=" ".join(ratios), seed=seed, jobs=jobs,
        out=folder / "results", dump=folder / "dumps")
    path = folder / "small_matrix.ini"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _matrix_cell(dump_dir: Path, prepared: dict, rec) -> Cell:
    base = dict(instance=rec.instance_name, ratio=rec.budget_ratio, algo=rec.algorithm,
                time_s=rec.wall_time)
    if rec.error is not None:
        return Cell(**base, error=rec.error)
    dump_path = dump_dir / f"{rec.instance_name}_{rec.budget_ratio}_{rec.algorithm}_{rec.seed}.json"
    dump = json.loads(dump_path.read_text(encoding="utf-8"))
    problems = nrpbench.verify_dump(prepared[rec.instance_name][1], dump)
    if (dump["profit"], dump["cost"]) != (rec.profit, rec.cost):
        problems.append("dump disagrees with the CSV record")
    return Cell(**base, profit=rec.profit, cost=rec.cost, budget=rec.budget,
                selected=tuple(sorted(dump["selected"])),
                error="; ".join(problems) or None)


WORKLOADS = {wl.name: wl for wl in (
    DirectWorkload(
        "haco-sweep",
        "HACO on NRP-2@1 and NRP-3@1 at ratios 0.3, 0.5, 0.7: sweep_improve's dense "
        "O(out*n*sel) matmul is over 90% of its time",
        instances=("NRP-2@1", "NRP-3@1"), ratios=("0.3", "0.5", "0.7"),
        solvers=(("haco", nrpbench.AcoParams(ants=2, iterations=2, use_local_search=True)),)),
    DirectWorkload(
        "restarts-cover",
        "aco, grasp and fhc on the two largest instances, NRP-4@1 and NRP-5@1, at 0.5: no "
        "sweep_improve; time is in CoverTracker.add, constructions and improve",
        instances=("NRP-4@1", "NRP-5@1"), ratios=("0.5",),
        solvers=(("aco", nrpbench.AcoParams(ants=5, iterations=2, use_local_search=False)),
                 ("grasp", nrpbench.GraspParams(restarts=8)),
                 ("fhc", nrpbench.FhcParams(restarts=8)))),
    MatrixWorkload(
        "small-matrix",
        "run_bench over NRP-1 instance files with all five default solvers: per-call cost, "
        "the SA chain, file parsing and the CSV, markdown and dump writers",
        instances=("NRP-1@1", "NRP-1@2"), ratios=("0.3", "0.5", "0.7")),
)}
