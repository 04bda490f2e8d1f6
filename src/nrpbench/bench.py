"""Benchmark harness: a (instance x budget ratio x algorithm x seed) matrix.

Configs are INI files: a ``[bench]`` section lists instance sources,
ratios, seeds, and algorithms; an optional section per algorithm sets
fields of its params class (see the solver registry), and any other
section is an error.  A ``BenchConfig`` checks its own values when it is
built, so every matrix that exists is valid; the INI reader checks only
what needs the text.  Every cell is an independent job, so the matrix can
run across processes; cells are sorted before they run and results come
back in that order, so the output never depends on scheduling.  Wall time
is measured around the solver call only, and a solution that does not
re-evaluate as reported, or costs more than the budget, is an error row.
So is an ``exact`` solution that another verified cell of its
instance-ratio outdoes.

Output: a fixed-schema CSV (instance, ratio, algorithm, seed, profit,
cost, budget, time_s, extra) plus a markdown table with one row per
instance-ratio and, per algorithm, mean profit, best profit, and mean
time over the seeds.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .aco import AcoParams, run
from .baselines import GraspParams, SaParams, exact, grasp, sa
from .fileformat import read_instance_file
from .generate import GenSpec, builtin_spec, generate
from .local_search import FhcParams, fhc
from .model import Instance, Solution, budget as budget_of, evaluate

CSV_COLUMNS = ("instance", "ratio", "algorithm", "seed", "profit", "cost",
               "budget", "time_s", "extra")


@dataclass(frozen=True)
class RunRecord:
    instance_name: str
    budget_ratio: str
    algorithm: str
    seed: int
    profit: int | None
    cost: int | None
    budget: int | None
    wall_time: float
    iterations_or_restarts: int | None
    error: str | None = None


# -- instance sources -------------------------------------------------------


@dataclass(frozen=True)
class FileSource:
    path: str

    @property
    def name(self) -> str:
        return Path(self.path).stem

    def load(self) -> Instance:
        return read_instance_file(self.path)


@dataclass(frozen=True)
class GenSource:
    spec: GenSpec
    seed: int

    @property
    def name(self) -> str:
        return f"{self.spec.name}-s{self.seed}"

    def load(self) -> Instance:
        return generate(self.spec, self.seed)


_instance_cache: dict = {}


def _load_cached(source) -> Instance:
    if source not in _instance_cache:
        _instance_cache[source] = source.load()
    return _instance_cache[source]


class ConfigError(ValueError):
    pass


# -- solver registry --------------------------------------------------------

# algorithm -> (params class, fields it pins, field reported as effort, call).
# Each call looks its solver up by name, so a tracer rebinding ``sa`` here sees it.
_SOLVERS = {
    "haco": (AcoParams, {"use_local_search": True}, "iterations", lambda *a: run(*a).best),
    "aco": (AcoParams, {"use_local_search": False}, "iterations", lambda *a: run(*a).best),
    "fhc": (FhcParams, {}, "restarts", lambda *a: fhc(*a)),
    "grasp": (GraspParams, {}, "restarts", lambda *a: grasp(*a)),
    "sa": (SaParams, {}, None, lambda *a: sa(*a)),
    "exact": (None, {}, None, lambda instance, bud, params, seed: exact(instance, bud)),
}
ALGORITHMS = tuple(_SOLVERS)
# the only public names that differ from their fields: field -> (INI key, flag)
_RENAMED = {"rcl_length": ("rcl", "rcl"), "iterations": ("iterations", "iters")}
# one parameter: params field, INI key, ``solve`` flag (argparse dest), int or float, help
_Param = namedtuple("_Param", "field key flag type help")


def _solver(algo: str) -> tuple:
    if algo not in _SOLVERS:
        raise ConfigError(f"unknown algorithm {algo!r}; valid: {', '.join(ALGORITHMS)}")
    return _SOLVERS[algo]


def _params_of(algo: str) -> list[_Param]:
    """The parameters ``algo`` takes: its params fields, less the pinned ones."""
    cls, pinned, _, _ = _solver(algo)
    # a postponed annotation (``from __future__ import annotations``) is a string
    return [_Param(f.name, *_RENAMED.get(f.name, (f.name, f.name)),
                   int if f.type in (int, "int") else float, f.metadata["help"])
            for f in (fields(cls) if cls else ()) if f.name not in pinned]


def _parse_params(algo: str, given, error: type[Exception]):
    """``algo``'s default parameters with ``given`` (``_Param``, text or number) pairs
    applied; a value that is no finite number of its field's type, or that the
    params class rejects, raises ``error``."""
    params = default_params(algo)
    changes = {}
    for p, raw in given:
        try:
            changes[p.field] = value = p.type(raw)
        except ValueError:  # not a number of the field's type: refused below, like NaN
            value = math.nan
        if not math.isfinite(value):
            kind = "integer" if p.type is int else "number"
            raise error(f"{p.key} must be a finite {kind}, got {raw!r}")
    try:
        return replace(params, **changes) if changes else params
    except ValueError as e:
        raise error(str(e)) from None


def default_params(algo: str):
    cls, pinned, _, _ = _solver(algo)
    return None if cls is None else cls(**pinned)


def solve_one(instance: Instance, budget_value: int, algo: str, seed: int,
              params=None) -> tuple[Solution, int | None]:
    """Run one solver; returns the solution and its effort knob (if any)."""
    _, pinned, effort, call = _solver(algo)
    if params is None:
        params = default_params(algo)
    elif pinned:
        params = replace(params, **pinned)
    sol = call(instance, budget_value, params, seed)
    return sol, None if effort is None else getattr(params, effort)


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class BenchConfig:
    """One bench matrix; building it (``dataclasses.replace`` too) raises
    ConfigError on any value that could not run.  Names and ratios key the
    rows and dump files, and a repeated value would run its cells twice."""

    sources: list
    ratios: list[str]
    seeds: list[int]
    algorithms: list[str]
    params: dict
    out: str | None = None
    dump_dir: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if not self.sources:
            raise ConfigError("config lists no instances (generate/files)")
        if not self.ratios or not self.seeds or not self.algorithms:
            raise ConfigError("config needs at least one ratio, seed, and algorithm")
        for a in self.algorithms:
            _solver(a)  # raises for an unknown name
        for a, p in self.params.items():
            cls = _solver(a)[0]
            # None runs the defaults; exact takes no params object at all
            if p is not None and (cls is None or not isinstance(p, cls)):
                want = f"{cls.__name__} or None" if cls else "None"
                raise ConfigError(f"params for {a} must be {want}, got {type(p).__name__}")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        for r in self.ratios:
            if not isinstance(r, str):  # the ratio's text names its rows and dump files
                raise ConfigError(f"ratio {r!r} must be given as text, such as '0.5'")
            if "/" in r:
                raise ConfigError(f"ratio {r!r} must be a decimal number, such as 0.5")
            try:
                frac = Fraction(r)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"cannot parse ratio {r!r}") from None
            if not 0 < frac <= 1:
                raise ConfigError(f"ratio {r} outside (0, 1]")
        seen = set()
        for src in self.sources:
            if isinstance(src, GenSource) and src.seed < 0:
                raise ConfigError(f"{src.spec.name} has a negative generation seed, {src.seed}")
            if src.name in seen:
                raise ConfigError(f"two instance sources are named {src.name!r}; "
                                  "their rows and dump files would mix")
            seen.add(src.name)
        for what, values, keys in (("ratio", self.ratios, [Fraction(r) for r in self.ratios]),
                                   ("seed", self.seeds, self.seeds),
                                   ("algorithm", self.algorithms, self.algorithms)):
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ConfigError(f"{what} {values[i]!r} is listed twice")


def _section_params(algo: str, section) -> object:
    keys = {p.key: p for p in _params_of(algo)}
    for key in section:
        if key not in keys:
            raise ConfigError(f"[{algo}] has no parameter {key!r}")
    given = [(keys[key], raw) for key, raw in section.items() if raw.strip()]
    return _parse_params(algo, given, ConfigError)


def parse_bench_config(path) -> BenchConfig:
    """Read a UTF-8 bench config file, ``%`` taken literally; paths are
    resolved against its directory."""
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        read = cfg.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {' '.join(str(e).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "bench" not in cfg:
        raise ConfigError("config needs a [bench] section")
    base = Path(path).resolve().parent
    b = cfg["bench"]
    for key in b:
        if key not in ("generate", "files", "ratios", "seeds", "algorithms", "out", "dump", "jobs"):
            raise ConfigError(f"[bench] has no key {key!r}")

    sources: list = []
    for token in b.get("generate", "").split():
        name, sep, s = token.partition("@")
        if not sep:
            raise ConfigError(f"generate entry {token!r} must look like NRP-1@seed")
        try:
            spec = builtin_spec(name)
            seed = int(s)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        sources.append(GenSource(spec, seed))
    # relative to the config's directory; joining keeps an absolute path as it is
    sources += [FileSource(str(base / token)) for token in b.get("files", "").split()]

    ratios = b.get("ratios", "0.3 0.5 0.7").split()
    try:
        seeds = [int(s) for s in b.get("seeds", "1").split()]
    except ValueError:
        raise ConfigError("seeds must be integers") from None
    # by default all but exact, which takes seconds on NRP-4 and may hit its node limit
    algorithms = b.get("algorithms", " ".join(a for a in ALGORITHMS if a != "exact")).split()
    sections = [s for s in cfg.sections() if s != "bench"]
    # every section is parsed: an unknown one, or a bad value in an unlisted one, shows now
    params = {a: _section_params(a, cfg[a] if a in cfg else {}) for a in algorithms + sections}
    params = {a: params[a] for a in algorithms}

    out = b.get("out", "").strip() or None
    if out and not Path(out).is_absolute():
        out = str(base / out)
    dump_dir = b.get("dump", "").strip() or None
    if dump_dir and not Path(dump_dir).is_absolute():
        dump_dir = str(base / dump_dir)
    try:
        jobs = int(b.get("jobs", "1"))
    except ValueError:
        raise ConfigError("jobs must be an integer") from None
    return BenchConfig(sources=sources, ratios=ratios, seeds=seeds,
                       algorithms=algorithms, params=params, out=out,
                       dump_dir=dump_dir, jobs=jobs)


# -- execution --------------------------------------------------------------


def _dump_payload(instance_name: str, ratio: str, algo: str, seed: int, budget: int,
                  sol: Solution) -> dict:
    """One solved cell as JSON-ready data, the same for ``solve --dump`` and bench dumps."""
    return {
        "instance": instance_name, "ratio": ratio, "algorithm": algo,
        "seed": seed, "budget": budget, "profit": sol.profit,
        "cost": sol.cost, "selected": sorted(sol.selected),
        "covered": sorted(sol.covered),
    }


def _run_cell(args) -> tuple[RunRecord, dict | None]:
    source, ratio, algo, seed, params, want_dump = args
    name = source.name
    try:
        inst = _load_cached(source)
        bud = budget_of(inst, ratio)
        t0 = time.perf_counter()
        sol, effort = solve_one(inst, bud, algo, seed, params)
        elapsed = time.perf_counter() - t0
        dump = _dump_payload(name, ratio, algo, seed, bud, sol)
        problems = verify_dump(inst, dump)
        if problems:
            raise AssertionError("; ".join(problems))
        rec = RunRecord(name, ratio, algo, seed, sol.profit, sol.cost, bud,
                        elapsed, effort)
        return rec, dump if want_dump else None
    except Exception as exc:  # noqa: BLE001 - failed cells must not kill the matrix
        rec = RunRecord(name, ratio, algo, seed, None, None, None, 0.0, None,
                        error=f"{type(exc).__name__}: {exc}")
        return rec, None


def run_bench(config: BenchConfig) -> list[RunRecord]:
    """Run the whole matrix and write CSV/markdown/dumps if configured.

    Instances are loaded afresh for each call.
    """
    _instance_cache.clear()  # a file may have changed since an earlier run
    cells = sorted(
        ((src, ratio, algo, seed, config.params.get(algo), config.dump_dir is not None)
         for src in config.sources
         for ratio in config.ratios
         for algo in config.algorithms
         for seed in config.seeds),
        key=lambda c: (c[0].name, Fraction(c[1]), c[2], c[3]))
    # a fork pool starts all its workers at the first submit: no more than there are cells
    workers = min(config.jobs, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(c) for c in cells]

    outcomes = _cross_check(outcomes)
    records = [rec for rec, _ in outcomes]
    if config.dump_dir:
        dump_dir = Path(config.dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for _, d in outcomes:
            if d is None:
                continue
            fname = f"{d['instance']}_{d['ratio']}_{d['algorithm']}_{d['seed']}.json"
            (dump_dir / fname).write_text(json.dumps(d, indent=1) + "\n",
                                          encoding="utf-8")
    if config.out:
        out = Path(config.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(records, out.with_suffix(".csv"))
        write_markdown(records, out.with_suffix(".md"), config.algorithms)
    return records


def _cross_check(outcomes: list[tuple[RunRecord, dict | None]]) -> list:
    """``outcomes`` with each exact cell that another verified cell of its
    instance-ratio outdoes made an error row, as a failed cell is, without
    its dump: that cell fits the budget, so the exact answer is no optimum.

    The rival named is the most profitable one, the first in sorted order
    among ties, so the result depends on the records alone.
    """
    rivals: dict[tuple[str, str], RunRecord] = {}
    for rec, _ in outcomes:
        key = (rec.instance_name, rec.budget_ratio)
        if rec.error is None and rec.algorithm != "exact" and (
                key not in rivals or rec.profit > rivals[key].profit):
            rivals[key] = rec
    checked = []
    for rec, dump in outcomes:
        rival = rivals.get((rec.instance_name, rec.budget_ratio))
        if rec.algorithm == "exact" and rec.error is None and rival and rival.profit > rec.profit:
            error = (f"AssertionError: profit {rec.profit} is not optimal: "
                     f"{rival.algorithm} seed {rival.seed} verified {rival.profit}")
            rec, dump = replace(rec, profit=None, cost=None, budget=None, wall_time=0.0,
                                iterations_or_restarts=None, error=error), None
        checked.append((rec, dump))
    return checked


def _csv_row(rec: RunRecord) -> str:
    extra = f"error:{rec.error}" if rec.error else (
        "" if rec.iterations_or_restarts is None else str(rec.iterations_or_restarts))
    cells = (rec.instance_name, rec.budget_ratio, rec.algorithm, str(rec.seed),
             "" if rec.profit is None else str(rec.profit),
             "" if rec.cost is None else str(rec.cost),
             "" if rec.budget is None else str(rec.budget),
             f"{rec.wall_time:.3f}", extra)
    return ",".join(c.replace(",", ";") for c in cells)


def write_csv(records, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_csv_row(r) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_markdown(records, path, algo_order) -> None:
    """Summary table: one row per instance-ratio, three columns per algorithm."""
    groups: dict[tuple[str, str], dict[str, list[RunRecord]]] = {}
    row_keys: list[tuple[str, str]] = []
    for r in records:
        key = (r.instance_name, r.budget_ratio)
        if key not in groups:
            groups[key] = {}
            row_keys.append(key)
        groups[key].setdefault(r.algorithm, []).append(r)

    header = ["Instance"]
    for a in algo_order:
        header += [f"{a} mean", f"{a} best", f"{a} time(s)"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for name, ratio in row_keys:
        cells = [f"{name}-{ratio}"]
        for a in algo_order:
            runs = [r for r in groups[(name, ratio)].get(a, []) if r.error is None]
            if not runs:
                cells += ["—", "—", "—"]
                continue
            profits = [r.profit for r in runs]
            mean = sum(profits) / len(profits)
            mean_t = sum(r.wall_time for r in runs) / len(runs)
            cells += [f"{mean:.1f}", str(max(profits)), f"{mean_t:.3f}"]
        lines.append("| " + " | ".join(cells) + " |")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_dump_shape(dump) -> None:
    """Raise ValueError unless ``dump`` has the fields and types a dump is written with."""
    if not isinstance(dump, dict):
        raise ValueError(f"malformed dump: expected a JSON object, got {type(dump).__name__}")
    for key in ("selected", "profit", "cost"):
        if key not in dump:
            raise ValueError(f"malformed dump: no {key!r} field")
    for key, value in dump.items():
        if key in ("selected", "covered"):
            ok = (isinstance(value, list) and all(map(_is_int, value))
                  and len({*value}) == len(value))  # each id once, as dumps are written
        else:
            ok = key not in ("profit", "cost", "budget") or _is_int(value)
        if not ok:
            raise ValueError(f"malformed dump: bad {key!r} field {value!r}")


def verify_dump(instance: Instance, dump: dict) -> list[str]:
    """Re-evaluate a dumped selection; returns a list of discrepancies.

    Raises ValueError when the dump is not shaped like one ``solve --dump``
    or a bench run writes.
    """
    _check_dump_shape(dump)
    problems = []
    sol = evaluate(instance, dump["selected"])
    if sol.profit != dump["profit"]:
        problems.append(f"profit {dump['profit']} does not re-evaluate ({sol.profit})")
    if sol.cost != dump["cost"]:
        problems.append(f"cost {dump['cost']} does not re-evaluate ({sol.cost})")
    if sorted(sol.covered) != sorted(dump.get("covered", sol.covered)):
        problems.append("covered requirement set does not match")
    if "budget" in dump and sol.cost > dump["budget"]:
        problems.append(f"cost {sol.cost} exceeds budget {dump['budget']}")
    return problems
