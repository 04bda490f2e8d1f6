import dataclasses
import importlib
import json
import re

import pytest

from nrpbench import (AcoParams, BenchConfig, ConfigError, CoverTracker, FhcParams,
                      FileSource, GenSource, GraspParams, SaParams, budget,
                      builtin_spec, evaluate, generate, make_instance,
                      parse_bench_config, run, run_bench, solve_one, verify_dump,
                      write_instance_file)
from nrpbench import bench, cli
from nrpbench.bench import ALGORITHMS, default_params

TOY_ARGS = ([5, 3, 4, 2], [(1, 2), (3, 4)], [(10, [2]), (8, [3]), (6, [4])])


@pytest.fixture
def toy_file(toy, tmp_path):
    path = tmp_path / "toy.txt"
    write_instance_file(toy, path)
    return path


def test_default_params():
    assert default_params("haco") == AcoParams(use_local_search=True)
    assert default_params("aco") == AcoParams(use_local_search=False)
    assert default_params("fhc") == FhcParams()
    assert default_params("grasp") == GraspParams()
    assert default_params("sa") == SaParams()
    assert default_params("exact") is None
    with pytest.raises(ValueError):
        default_params("tabu")


@pytest.mark.parametrize("cls, name, value", [
    (AcoParams, "alpha", float("nan")), (AcoParams, "gamma", float("nan")),
    (AcoParams, "beta", float("inf")), (AcoParams, "rho", float("-inf")),
    (AcoParams, "ants", 2.5), (AcoParams, "iterations", True), (AcoParams, "alpha", "1"),
    (FhcParams, "restarts", 2.0), (FhcParams, "restarts", False),
    (GraspParams, "restarts", 2.5), (GraspParams, "rcl_length", 2.5),
    (GraspParams, "rcl_length", "3"),
    (SaParams, "final_temp", float("nan")), (SaParams, "initial_temp", float("nan")),
    (SaParams, "initial_temp", float("inf")), (SaParams, "lm_beta", float("nan")),
    (SaParams, "lm_beta", True), (SaParams, "moves_per_temp", 1.0)])
def test_params_classes_refuse_what_readme_refuses(cls, name, value):
    # counts are ints of at least 1 and the other values finite numbers; a
    # bool is neither, as the seed rule has it.  dataclasses.replace checks too
    kind = "an integer" if isinstance(getattr(cls(), name), int) else "a finite number"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be {kind}, got {value!r}")):
        cls(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be {kind}"):
        dataclasses.replace(cls(), **{name: value})


def test_params_classes_take_ints_as_numbers_and_a_calibrated_start():
    assert AcoParams(alpha=1, beta=0, gamma=2).alpha == 1
    assert SaParams(initial_temp=None).initial_temp is None
    assert SaParams(initial_temp=5, final_temp=1).initial_temp == 5


def test_solve_one_refuses_an_unknown_algorithm(toy):
    # the registry's ConfigError is a ValueError, as it was before configs checked themselves
    with pytest.raises(ValueError, match="unknown algorithm 'tabu'"):
        solve_one(toy, 7, "tabu", 1)


@pytest.mark.parametrize("algo, params, words", [
    ("fhc", AcoParams(), "params for fhc must be FhcParams or None, got AcoParams"),
    ("haco", FhcParams(), "params for haco must be AcoParams or None, got FhcParams"),
    ("exact", SaParams(), "params for exact must be None, got SaParams"),
])
def test_solve_one_refuses_another_algorithms_params(toy, algo, params, words):
    # the check BenchConfig makes; the solver once failed on the wrong object instead
    with pytest.raises(ConfigError, match=words):
        solve_one(toy, 7, algo, 1, params)


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("seed, words", [
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ("1", "seed must be an integer, got '1'"),
    (-1, "seed must be non-negative, got -1"),
])
def test_solve_one_refuses_a_bad_seed(toy, algo, seed, words, monkeypatch):
    # BenchConfig's seed rule, for every solver: True once ran as seed 1, 1.5
    # and "1" failed inside numpy, and exact, which draws nothing, took -1
    monkeypatch.setitem(bench._SOLVERS, algo, bench._SOLVERS[algo][:3] + (
        lambda *a: pytest.fail("solved with a bad seed"),))
    with pytest.raises(ConfigError, match=words):
        solve_one(toy, 7, algo, seed)


def test_solve_one_effort_reporting(toy):
    sol, effort = solve_one(toy, 7, "haco", 1, AcoParams(iterations=4, ants=3))
    assert effort == 4 and sol.cost <= 7
    _, effort = solve_one(toy, 7, "fhc", 1, FhcParams(restarts=6))
    assert effort == 6
    _, effort = solve_one(toy, 7, "grasp", 1, GraspParams(restarts=9))
    assert effort == 9
    _, effort = solve_one(toy, 7, "sa", 1, SaParams(lm_beta=0.5))
    assert effort is None
    sol, effort = solve_one(toy, 10, "exact", 1)
    assert (sol.profit, effort) == (14, None)


SMALL_EFFORT = {"haco": AcoParams(iterations=2, ants=3),
                "aco": AcoParams(iterations=2, ants=3, use_local_search=False),
                "fhc": FhcParams(restarts=5), "grasp": GraspParams(restarts=5),
                "sa": SaParams(lm_beta=0.05)}


@pytest.mark.parametrize("algo", list(SMALL_EFFORT))
def test_solve_one_evaluates_at_most_once(algo, monkeypatch):
    # the heuristics read their solutions from the cover tracker; evaluate,
    # which works a selection out from scratch, is not called every round
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    for name in ("model", "aco", "baselines", "local_search"):
        module = importlib.import_module(f"nrpbench.{name}")
        if hasattr(module, "evaluate"):  # wherever a solver module imports it
            monkeypatch.setattr(module, "evaluate", counted)
    inst = generate(builtin_spec("NRP-1"), 1)
    sol, _ = solve_one(inst, budget(inst, "0.5"), algo, 1, SMALL_EFFORT[algo])
    assert len(calls) <= 1
    assert sol == evaluate(inst, sol.selected)


@pytest.mark.parametrize("algo, builds", [("haco", 3 * 2), ("aco", 3 * 2), ("fhc", 5),
                                          ("grasp", 5), ("sa", 2)])
def test_solve_one_builds_one_tracker_per_construction(algo, builds, monkeypatch):
    # each ant or restart builds one tracker and hands it to its climb, and
    # sa builds one for its start and one for its result: a climb that
    # rebuilt its start from a Solution would build twice per restart
    calls = []
    init = CoverTracker.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(CoverTracker, "__init__", counted)
    inst = generate(builtin_spec("NRP-1"), 1)
    sol, _ = solve_one(inst, budget(inst, "0.5"), algo, 1, SMALL_EFFORT[algo])
    assert len(calls) == builds
    assert sol == evaluate(inst, sol.selected)


def test_solve_one_forces_local_search_flag(toy):
    # asking for plain aco with a haco-flavored params object still runs aco
    sol, _ = solve_one(toy, 7, "aco", 2, AcoParams(iterations=3, use_local_search=True))
    assert sol.cost <= 7
    # and the other way round, on an instance where the two differ
    inst = generate(builtin_spec("NRP-1"), 1)
    bud = budget(inst, "0.5")
    for algo, wrong in (("aco", True), ("haco", False)):
        sol, _ = solve_one(inst, bud, algo, 1, AcoParams(iterations=2, ants=3,
                                                           use_local_search=wrong))
        want = run(inst, bud, AcoParams(iterations=2, ants=3, use_local_search=not wrong), 1)
        assert sol == want.best, algo


def test_parse_config_full(tmp_path, toy):
    write_instance_file(toy, tmp_path / "toy.txt")
    (tmp_path / "bench.ini").write_text("""\
[bench]
files = toy.txt
generate = NRP-1@7
ratios = 0.5 0.7
seeds = 1 2 3
algorithms = fhc grasp
out = results/run
dump = dumps
jobs = 2

[fhc]
restarts = 5

[grasp]
restarts = 4
rcl = 3

; an algorithm the matrix does not run may keep its section
[sa]
lm_beta = 0.5
""")
    cfg = parse_bench_config(tmp_path / "bench.ini")
    assert cfg.sources == [GenSource(builtin_spec("NRP-1"), 7),
                           FileSource(str(tmp_path / "toy.txt"))]
    assert cfg.ratios == ["0.5", "0.7"]
    assert cfg.seeds == [1, 2, 3]
    assert cfg.algorithms == ["fhc", "grasp"]
    assert cfg.params["fhc"] == FhcParams(restarts=5)
    assert cfg.params["grasp"] == GraspParams(restarts=4, rcl_length=3)
    assert "sa" not in cfg.params
    assert cfg.out == str(tmp_path / "results/run")
    assert cfg.dump_dir == str(tmp_path / "dumps")
    assert cfg.jobs == 2


def test_parse_config_defaults(tmp_path):
    (tmp_path / "b.ini").write_text("[bench]\ngenerate = NRP-1@1\n")
    cfg = parse_bench_config(tmp_path / "b.ini")
    assert cfg.ratios == ["0.3", "0.5", "0.7"]
    assert cfg.seeds == [1]
    assert cfg.algorithms == ["haco", "aco", "fhc", "grasp", "sa"]
    assert cfg.out is None and cfg.dump_dir is None and cfg.jobs == 1


def test_parse_config_errors(tmp_path):
    cases = {
        "missing.ini": None,
        "nosection.ini": "[fhc]\nrestarts = 2\n",
        "noinstances.ini": "[bench]\nratios = 0.5\n",
        "badratio.ini": "[bench]\ngenerate = NRP-1@1\nratios = 1.5\n",
        "badalgo.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = tabu\n",
        "badgen.ini": "[bench]\ngenerate = NRP-1\n",
        "badfamily.ini": "[bench]\ngenerate = NRP-9@1\n",
        "badparam.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = fhc\n[fhc]\nrho = 0.5\n",
        "exactparam.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = exact\n[exact]\nx = 1\n",
        # values the params class rejects, or that are no finite number of the field's type
        "badrho.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = haco\n[haco]\nrho = 2\n",
        "badants.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = haco\n[haco]\nants = many\n",
        "fracants.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = aco\n[aco]\nants = 2.5\n",
        "nanbeta.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = sa\n[sa]\nlm_beta = nan\n",
        "infgamma.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = aco\n[aco]\ngamma = inf\n",
        "noiters.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = haco\n[haco]\niterations = 0\n",
        # a bad value in the section of an algorithm the matrix does not run
        "unlistedsa.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = fhc\n[sa]\nlm_beta = nan\n",
        # a section that names neither bench nor an algorithm
        "typosection.ini": "[bench]\ngenerate = NRP-1@1\nalgorithms = haco\n[hac]\nants = 3\n",
        # no worker at all, which once ran the matrix serially
        "nojobs.ini": "[bench]\ngenerate = NRP-1@1\njobs = 0\n",
        "negjobs.ini": "[bench]\ngenerate = NRP-1@1\njobs = -3\n",
        # seeds the random streams refuse, which once failed every cell instead
        "negseed.ini": "[bench]\ngenerate = NRP-1@1\nseeds = 1 -1\n",
        "fracseed.ini": "[bench]\ngenerate = NRP-1@1\nseeds = 1 2.5\n",
        "wordjobs.ini": "[bench]\ngenerate = NRP-1@1\njobs = two\n",
        "neggenseed.ini": "[bench]\ngenerate = NRP-1@-2\n",
        # a ratio that would put a "/" in the dump file names
        "fracratio.ini": "[bench]\ngenerate = NRP-1@1\nratios = 1/2\n",
        # sources whose rows and dump files would mix under one name
        "samestem.ini": "[bench]\nfiles = a/x.txt b/x.txt\n",
        "genfile.ini": "[bench]\ngenerate = NRP-1@1\nfiles = NRP-1-s1.txt\n",
        "twice.ini": "[bench]\ngenerate = NRP-1@1 NRP-1@1\n",
        # a misspelt key, which once ran the default seeds
        "typokey.ini": "[bench]\ngenerate = NRP-1@1\nseed = 3\n",
    }
    # the cases whose message is pinned
    words = {"fracseed.ini": "seeds must be integers", "wordjobs.ini": "jobs must be an integer",
             "neggenseed.ini": "negative generation seed"}
    for name, text in cases.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=words.get(name)):
            parse_bench_config(path)


def _toy_config(toy_file, tmp_path, **overrides):
    return BenchConfig(**{
        "sources": [FileSource(str(toy_file))],
        "ratios": ["0.5", "1.0"],
        "seeds": [1, 2],
        "algorithms": ["fhc", "exact", "sa"],
        "params": {"fhc": FhcParams(restarts=5), "exact": None,
                   "sa": SaParams(lm_beta=0.5)},
        "out": str(tmp_path / "out" / "run"),
        "dump_dir": str(tmp_path / "dumps"),
        **overrides,
    })


def test_run_bench_matrix(toy, toy_file, tmp_path):
    before = toy_file.read_bytes()
    records = run_bench(_toy_config(toy_file, tmp_path))
    assert toy_file.read_bytes() == before  # inputs are never mutated
    assert len(records) == 2 * 3 * 2  # ratios x algorithms x seeds
    keys = [(r.instance_name, r.budget_ratio, r.algorithm, r.seed) for r in records]
    assert keys == sorted(keys, key=lambda k: (k[0], float(k[1]), k[2], k[3]))
    for r in records:
        assert r.error is None
        assert r.cost <= r.budget
        assert r.budget == budget(toy, r.budget_ratio)
    # at full budget every algorithm reaches the everything-selected optimum
    assert {r.profit for r in records if r.budget_ratio == "1.0"} == {24}

    csv_text = (tmp_path / "out" / "run.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "instance,ratio,algorithm,seed,profit,cost,budget,time_s,extra"
    assert len(lines) == 13

    md = (tmp_path / "out" / "run.md").read_text()
    assert "| Instance |" in md and "toy-0.5" in md and "toy-1.0" in md
    assert "fhc mean" in md and "exact best" in md

    # every dump re-evaluates cleanly and matches its CSV row
    for r in records:
        dump = json.loads(
            (tmp_path / "dumps" /
             f"toy_{r.budget_ratio}_{r.algorithm}_{r.seed}.json").read_text())
        assert verify_dump(toy, dump) == []
        check = evaluate(toy, dump["selected"])
        assert (check.profit, check.cost) == (r.profit, r.cost)


def test_run_bench_dumps_only_the_cells_that_ran(toy, toy_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n")  # truncated: its cell is an error row
    sources = [FileSource(str(toy_file)), FileSource(str(bad))]
    config = _toy_config(toy_file, tmp_path, sources=sources, ratios=["0.5"], seeds=[1],
                         algorithms=["fhc"], out=None)
    records = run_bench(config)
    assert [(r.instance_name, r.error is None) for r in records] == [("bad", False), ("toy", True)]
    assert [p.name for p in (tmp_path / "dumps").iterdir()] == ["toy_0.5_fhc_1.json"]


def _strip_time(csv_path):
    rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")]
    return [row[:7] + row[8:] for row in rows]


def test_run_bench_deterministic_and_jobs_invariant(toy_file, tmp_path):
    a = _toy_config(toy_file, tmp_path, out=str(tmp_path / "a"),
                    dump_dir=str(tmp_path / "da"))
    b = _toy_config(toy_file, tmp_path, out=str(tmp_path / "b"),
                    dump_dir=str(tmp_path / "db"))
    c = _toy_config(toy_file, tmp_path, out=str(tmp_path / "c"),
                    dump_dir=str(tmp_path / "dc"), jobs=2)
    run_bench(a), run_bench(b), run_bench(c)
    rows = _strip_time(tmp_path / "a.csv")
    assert _strip_time(tmp_path / "b.csv") == rows
    assert _strip_time(tmp_path / "c.csv") == rows
    names = sorted(p.name for p in (tmp_path / "da").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "dc").iterdir())
    for name in names:
        assert (tmp_path / "da" / name).read_bytes() == \
            (tmp_path / "dc" / name).read_bytes()


def test_run_bench_pool_never_outgrows_the_matrix(toy_file, tmp_path, monkeypatch):
    # a fork pool starts every worker at its first submit, so its size is what it costs
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(importlib.import_module("nrpbench.bench").concurrent.futures,
                        "ProcessPoolExecutor", InProcessPool)

    def results(jobs):
        config = _toy_config(toy_file, tmp_path, out=None, dump_dir=None, jobs=jobs)
        return [(r.instance_name, r.budget_ratio, r.algorithm, r.seed, r.profit)
                for r in run_bench(config)]

    serial = results(1)
    assert sizes == [] and len(serial) == 12
    for jobs, want in ((400, 12), (12, 12), (5, 5), (2, 2)):
        assert results(jobs) == serial
        assert sizes.pop() == want and sizes == []
    # one cell needs no pool, however many jobs are asked for
    one = _toy_config(toy_file, tmp_path, ratios=["0.5"], seeds=[1], algorithms=["fhc"],
                      out=None, dump_dir=None, jobs=400)
    assert len(run_bench(one)) == 1 and sizes == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_bench_refuses_fewer_than_one_job(toy_file, tmp_path, jobs):
    # the Python API keeps the front ends' bound instead of running serially
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_bench(_toy_config(toy_file, tmp_path, jobs=jobs))
    assert not (tmp_path / "out").exists() and not (tmp_path / "dumps").exists()


@pytest.mark.parametrize("change, words", [
    ({"jobs": 0}, "jobs must be at least 1, got 0"),
    ({"jobs": -3}, "jobs must be at least 1, got -3"),
    ({"sources": []}, "lists no instances"),
    ({"ratios": []}, "at least one ratio"),
    ({"seeds": []}, "at least one ratio"),
    ({"algorithms": []}, "at least one ratio"),
    ({"algorithms": ["fhc", "tabu"]}, "unknown algorithm 'tabu'"),
    ({"seeds": [1, -1]}, "seeds must be non-negative, got -1"),
    ({"ratios": ["1/2"]}, "must be a decimal number"),
    ({"ratios": ["half"]}, "cannot parse ratio 'half'"),
    ({"ratios": ["0"]}, "outside"),
    ({"ratios": ["1.5"]}, "outside"),
    ({"sources": [FileSource("a/x.txt"), FileSource("b/x.txt")]}, "named 'x'"),
    ({"ratios": ["0.5", "0.50"]}, "ratio '0.50' is listed twice"),
    ({"seeds": [1, 1]}, "seed 1 is listed twice"),
    ({"algorithms": ["fhc", "fhc"]}, "algorithm 'fhc' is listed twice"),
    # a generation seed the random streams refuse, which once failed every cell instead
    ({"sources": [GenSource(builtin_spec("NRP-1"), -1)]}, "negative generation seed, -1"),
    # another algorithm's params object, which once failed every cell instead
    ({"algorithms": ["fhc"], "params": {"fhc": AcoParams()}},
     "params for fhc must be FhcParams or None, got AcoParams"),
    ({"algorithms": ["haco"], "params": {"haco": FhcParams()}},
     "params for haco must be AcoParams or None, got FhcParams"),
    ({"params": {"exact": SaParams()}}, "params for exact must be None, got SaParams"),
    # a ratio that is no text, which once failed in write_csv after the whole matrix ran
    ({"ratios": [0.5]}, "ratio 0.5 must be given as text"),
    ({"ratios": ["0.3", 0.3]}, "ratio 0.3 must be given as text"),
    # seeds and jobs that are no integers: True once wrote a dump named ..._True.json,
    # "1" and "2" raised a bare TypeError, and 1.5 jobs ran
    ({"seeds": [True]}, r"seeds must be integers, got \[True\]"),
    ({"seeds": [1, 1.5]}, r"seeds must be integers, got \[1, 1\.5\]"),
    ({"seeds": ["1"]}, r"seeds must be integers, got \['1'\]"),
    ({"jobs": True}, "jobs must be an integer, got True"),
    ({"jobs": 1.5}, "jobs must be an integer, got 1.5"),
    ({"jobs": "2"}, "jobs must be an integer, got '2'"),
    # generation seeds that are no integers: True once named the source NRP-1-sTrue,
    # 1.5 named it NRP-1-s1.5 and "1" raised a bare TypeError
    ({"sources": [GenSource(builtin_spec("NRP-1"), True)]},
     "NRP-1 has a generation seed that is no integer, True"),
    ({"sources": [GenSource(builtin_spec("NRP-1"), 1.5)]},
     "NRP-1 has a generation seed that is no integer, 1.5"),
    ({"sources": [GenSource(builtin_spec("NRP-1"), "1")]},
     "NRP-1 has a generation seed that is no integer, '1'"),
])
def test_bench_config_checks_itself(toy_file, tmp_path, change, words):
    with pytest.raises(ConfigError, match=words):
        _toy_config(toy_file, tmp_path, **change)
    assert not (tmp_path / "out").exists() and not (tmp_path / "dumps").exists()


def test_bench_config_copies_are_checked_and_fields_are_frozen(toy_file, tmp_path):
    config = _toy_config(toy_file, tmp_path)
    assert dataclasses.replace(config, jobs=3).jobs == 3
    with pytest.raises(ConfigError, match="jobs must be at least 1"):
        dataclasses.replace(config, jobs=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 0
    assert config.jobs == 1


def test_run_bench_refuses_ambiguous_outputs(toy, toy_file, tmp_path):
    # refused before any cell runs, so nothing is written
    other = tmp_path / "b" / "toy.txt"
    other.parent.mkdir()
    write_instance_file(toy, other)
    for change in ({"sources": [FileSource(str(toy_file)), FileSource(str(other))]},
                   {"sources": [FileSource(str(toy_file))] * 2},
                   {"ratios": ["0.5", "1/2"]}):
        with pytest.raises(ValueError):
            run_bench(_toy_config(toy_file, tmp_path, **change))
        assert not (tmp_path / "out").exists() and not (tmp_path / "dumps").exists()


@pytest.mark.parametrize("field, values", [("ratios", ["0.5", "0.50"]), ("seeds", [1, 1]),
                                           ("algorithms", ["fhc", "fhc"])])
def test_repeated_matrix_values_are_refused(toy_file, tmp_path, field, values):
    # a value listed twice would run its cells twice; ratios compare as fractions
    keys = {"files": toy_file, "algorithms": "fhc", field: " ".join(map(str, values))}
    path = tmp_path / "twice.ini"
    path.write_text("[bench]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    with pytest.raises(ConfigError, match="listed twice"):
        parse_bench_config(path)
    with pytest.raises(ValueError, match="listed twice"):
        run_bench(_toy_config(toy_file, tmp_path, **{field: values}))
    assert not (tmp_path / "out").exists() and not (tmp_path / "dumps").exists()


def test_run_bench_reloads_changed_files(toy_file, tmp_path):
    # a second run in the same process reads the file as it is now
    config = _toy_config(toy_file, tmp_path, ratios=["1.0"], seeds=[1],
                         algorithms=["exact"], out=None, dump_dir=None)
    assert [r.profit for r in run_bench(config)] == [24]
    write_instance_file(make_instance(*TOY_ARGS[:2], [(1, [2]), (2, [3]), (3, [4])]), toy_file)
    assert [r.profit for r in run_bench(config)] == [6]


def test_run_bench_generated_source(tmp_path):
    cfg = BenchConfig(sources=[GenSource(builtin_spec("NRP-1"), 3)],
                      ratios=["0.5"], seeds=[1], algorithms=["fhc"],
                      params={"fhc": FhcParams(restarts=2)})
    records = run_bench(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.instance_name == "NRP-1-s3" and rec.error is None
    assert rec.iterations_or_restarts == 2


def test_run_bench_records_failed_cells(toy_file, node_limited_nrp1, tmp_path):
    cfg = BenchConfig(sources=[FileSource(str(toy_file)), FileSource(str(node_limited_nrp1))],
                      ratios=["0.5"], seeds=[1], algorithms=["exact"],
                      params={"exact": None}, out=str(tmp_path / "r"), jobs=1)
    records = run_bench(cfg)
    by_name = {r.instance_name: r for r in records}
    assert by_name["toy"].error is None and by_name["toy"].profit == 14
    bad = by_name["big"]
    assert bad.error is not None and "TooLargeError" in bad.error
    assert bad.profit is None
    csv_text = (tmp_path / "r.csv").read_text()
    row = next(line for line in csv_text.splitlines() if line.startswith("big"))
    assert "error:TooLargeError" in row
    assert row.count(",") == 8  # commas inside the message stay escaped
    md = (tmp_path / "r.md").read_text()
    assert "—" in md  # failed cell renders as a gap, not a number


def test_over_budget_results_are_error_rows(toy, toy_file, tmp_path, monkeypatch, capsys):
    # a solver result that re-evaluates consistently but costs more than the
    # budget is a failed cell, not a good row
    over = evaluate(toy, [1, 2, 3])  # cost 14: over budget 7 at 0.5, within 14 at 1.0
    cls, pinned, effort, _call = bench._SOLVERS["fhc"]
    monkeypatch.setitem(bench._SOLVERS, "fhc", (cls, pinned, effort, lambda *a: over))
    cfg = tmp_path / "bench.ini"
    cfg.write_text(f"[bench]\nfiles = {toy_file}\nratios = 0.5 1.0\nseeds = 1\n"
                   f"algorithms = fhc\nout = {tmp_path / 'r'}\n")
    assert cli.main(["bench", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert "1/2 runs completed" in out and "Traceback" not in err
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("toy,0.5,fhc,1,,,,")
    assert rows[0].endswith(",error:AssertionError: cost 14 exceeds budget 7")
    assert rows[1].startswith("toy,1.0,fhc,1,24,14,14,")


def test_exact_rows_outdone_by_a_verified_cell_are_error_rows(toy, toy_file, tmp_path,
                                                             monkeypatch, capsys):
    # an exact answer that another verified cell of its instance-ratio beats
    # is no optimum; every other row and dump stays as it was
    def bench_once(tag):
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(f"[bench]\nfiles = {toy_file}\nratios = 0.5 1.0\nseeds = 1\n"
                       f"algorithms = exact fhc\nout = {tmp_path / tag}\n"
                       f"dump = {tmp_path / (tag + '-dumps')}\n")
        code = cli.main(["bench", str(cfg)])
        dumps = {p.name: p.read_bytes() for p in (tmp_path / (tag + "-dumps")).iterdir()}
        return code, _strip_time(tmp_path / f"{tag}.csv"), dumps

    code, honest, honest_dumps = bench_once("honest")
    assert code == 0
    # optimal at 0.5 (budget 7), short of the optimum 24 at 1.0
    short = evaluate(toy, [2, 3])
    cls, pinned, effort, _call = bench._SOLVERS["exact"]
    monkeypatch.setitem(bench._SOLVERS, "exact", (cls, pinned, effort, lambda *a: short))
    capsys.readouterr()
    code, rows, dumps = bench_once("short")
    out, err = capsys.readouterr()
    assert code == 2 and "3/4 runs completed" in out and "Traceback" not in err
    wrong = ["toy", "1.0", "exact", "1", "", "", "",
             "error:AssertionError: profit 14 is not optimal: fhc seed 1 verified 24"]
    assert rows == [wrong if r[:3] == ["toy", "1.0", "exact"] else r for r in honest]
    assert rows != honest
    del honest_dumps["toy_1.0_exact_1.json"]
    assert dumps == honest_dumps


def test_verify_dump_reports_discrepancies(toy):
    good = {"selected": [2, 3], "covered": [3, 4], "profit": 14, "cost": 6,
            "budget": 10}
    assert verify_dump(toy, good) == []
    assert any("profit" in p for p in verify_dump(toy, {**good, "profit": 15}))
    assert any("cost" in p for p in verify_dump(toy, {**good, "cost": 5}))
    assert any("covered" in p for p in verify_dump(toy, {**good, "covered": [3]}))
    assert any("budget" in p for p in verify_dump(toy, {**good, "budget": 5}))


@pytest.mark.parametrize("change", [{"budget": "10"}, {"covered": 3}, {"cost": 6.0},
                                    {"selected": [True]}, {"selected": [2, 3, 2]}])
def test_verify_dump_rejects_malformed_fields(toy, change):
    good = {"selected": [2, 3], "covered": [3, 4], "profit": 14, "cost": 6,
            "budget": 10}
    with pytest.raises(ValueError, match="malformed dump"):
        verify_dump(toy, {**good, **change})
