import importlib
import json

import pytest

from nrpbench import (AcoParams, BenchConfig, ConfigError, FhcParams,
                      FileSource, GenSource, GraspParams, SaParams, budget,
                      builtin_spec, default_params, evaluate, generate, make_instance,
                      parse_bench_config, run, run_bench, solve_one, verify_dump,
                      write_instance_file)

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

    for name in ("model", "aco", "baselines"):
        monkeypatch.setattr(importlib.import_module(f"nrpbench.{name}"), "evaluate", counted)
    inst = generate(builtin_spec("NRP-1"), 1)
    sol, _ = solve_one(inst, budget(inst, "0.5"), algo, 1, SMALL_EFFORT[algo])
    assert len(calls) <= 1
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
    }
    for name, text in cases.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError):
            parse_bench_config(path)


def _toy_config(toy_file, tmp_path, **overrides):
    cfg = BenchConfig(
        sources=[FileSource(str(toy_file))],
        ratios=["0.5", "1.0"],
        seeds=[1, 2],
        algorithms=["fhc", "exact", "sa"],
        params={"fhc": FhcParams(restarts=5), "exact": None,
                "sa": SaParams(lm_beta=0.5)},
        out=str(tmp_path / "out" / "run"),
        dump_dir=str(tmp_path / "dumps"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


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


def test_run_bench_generated_source(tmp_path):
    cfg = BenchConfig(sources=[GenSource(builtin_spec("NRP-1"), 3)],
                      ratios=["0.5"], seeds=[1], algorithms=["fhc"],
                      params={"fhc": FhcParams(restarts=2)})
    records = run_bench(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.instance_name == "NRP-1-s3" and rec.error is None
    assert rec.iterations_or_restarts == 2


def test_run_bench_records_failed_cells(toy_file, tmp_path):
    big = tmp_path / "big.txt"
    write_instance_file(make_instance([1], [], [(1, [1])] * 30), big)
    cfg = BenchConfig(sources=[FileSource(str(toy_file)), FileSource(str(big))],
                      ratios=["1.0"], seeds=[1], algorithms=["exact"],
                      params={"exact": None}, out=str(tmp_path / "r"))
    records = run_bench(cfg)
    by_name = {r.instance_name: r for r in records}
    assert by_name["toy"].error is None and by_name["toy"].profit == 24
    bad = by_name["big"]
    assert bad.error is not None and "TooLargeError" in bad.error
    assert bad.profit is None
    csv_text = (tmp_path / "r.csv").read_text()
    row = next(line for line in csv_text.splitlines() if line.startswith("big"))
    assert "error:TooLargeError" in row
    assert row.count(",") == 8  # commas inside the message stay escaped
    md = (tmp_path / "r.md").read_text()
    assert "—" in md  # failed cell renders as a gap, not a number


def test_verify_dump_reports_discrepancies(toy):
    good = {"selected": [2, 3], "covered": [3, 4], "profit": 14, "cost": 6,
            "budget": 10}
    assert verify_dump(toy, good) == []
    assert any("profit" in p for p in verify_dump(toy, {**good, "profit": 15}))
    assert any("cost" in p for p in verify_dump(toy, {**good, "cost": 5}))
    assert any("covered" in p for p in verify_dump(toy, {**good, "covered": [3]}))
    assert any("budget" in p for p in verify_dump(toy, {**good, "budget": 5}))


@pytest.mark.parametrize("change", [{"budget": "10"}, {"covered": 3}, {"cost": 6.0},
                                    {"selected": [True]}])
def test_verify_dump_rejects_malformed_fields(toy, change):
    good = {"selected": [2, 3], "covered": [3, 4], "profit": 14, "cost": 6,
            "budget": 10}
    with pytest.raises(ValueError, match="malformed dump"):
        verify_dump(toy, {**good, **change})
