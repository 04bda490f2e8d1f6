"""Command line tests.  The end-to-end cases run the real entry point in a
subprocess so exit codes and stream separation are the shipped ones; the
parameter surface and the exit-code fuzzing run ``cli`` in process."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bruteforce as bf
from conftest import subprocess_env
from nrpbench import (ConfigError, InvalidInstanceError, bench, budget, cli, evaluate, exact,
                      make_instance, parse_bench_config, read_instance, write_instance_file)
from nrpbench.bench import ALGORITHMS, default_params


# a CLI call that runs longer fails its test with TimeoutExpired instead of
# stalling the suite
CLI_TIMEOUT_S = 300


def run_cli(*argv, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "nrpbench.cli", *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd, env=subprocess_env(),
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def toy_file(toy, tmp_path):
    path = tmp_path / "toy.txt"
    write_instance_file(toy, path)
    return path


# -- gen ---------------------------------------------------------------------


def test_gen_list():
    rc, out, _ = run_cli("gen", "--list")
    assert rc == 0
    assert out.split() == ["NRP-1", "NRP-2", "NRP-3", "NRP-4", "NRP-5"]


def test_gen_to_file_reports_counts(tmp_path):
    path = tmp_path / "i.txt"
    rc, out, _ = run_cli("gen", "NRP-1", "--seed", 1, "--out", path)
    assert rc == 0
    assert out.strip() == f"wrote 140 requirements, 100 customers to {path}"
    inst = read_instance(path.read_text())
    assert (inst.n_requirements, inst.n_customers) == (140, 100)


def test_gen_and_solve_create_missing_output_directories(toy_file, tmp_path, capsys):
    # like bench's out and dump, the parents of gen --out and solve --dump are made
    inst_path = tmp_path / "new" / "deeper" / "i.txt"
    assert cli.main(["gen", "NRP-1", "--seed", "1", "--out", str(inst_path)]) == 0
    assert read_instance(inst_path.read_text()).n_customers == 100
    dump = tmp_path / "dumps" / "x.json"
    assert cli.main(["solve", str(toy_file), "--algo", "fhc", "--seed", "1",
                     "--dump", str(dump)]) == 0
    assert json.loads(dump.read_text())["algorithm"] == "fhc"
    assert capsys.readouterr().err.startswith("time: ")


def test_solve_refuses_an_unmakeable_dump_path_before_solving(toy_file, tmp_path, capsys,
                                                             monkeypatch):
    # a dump directory that cannot be made (its parent is a file) is a data
    # error raised before the solver runs or anything is printed
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "solve_one", lambda *a: pytest.fail("solved before the dump check"))
    rc = cli.main(["solve", str(toy_file), "--algo", "fhc",
                   "--dump", str(tmp_path / "file" / "sub" / "x.json")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_gen_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("gen", "NRP-1", "--seed", "7", "--out", a)
    run_cli("gen", "NRP-1", "--seed", "7", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout_mode():
    rc, out, err = run_cli("gen", "NRP-1", "--seed", "2")
    assert rc == 0
    inst = read_instance(out)
    assert inst.n_requirements == 140
    assert "140 requirements" in err  # counts stay off stdout


def test_gen_custom_spec(tmp_path):
    spec = {"name": "tiny", "levels": [
        {"count": 3, "cost_min": 1, "cost_max": 4, "max_children": 2},
        {"count": 2, "cost_min": 2, "cost_max": 5, "max_children": 0}],
        "customer_count": 4, "request_min": 1, "request_max": 2}
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(json.dumps(spec))
    rc, out, _ = run_cli("gen", "--spec", spec_path, "--seed", "3",
                         "--out", tmp_path / "t.txt")
    assert rc == 0 and "5 requirements, 4 customers" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli("gen", "--spec", bad, "--out", tmp_path / "x.txt")
    assert rc == 2 and err == ("error: bad spec file: Expecting property name enclosed in "
                               "double quotes: line 1 column 2 (char 1)\n")
    # a negative or fractional customer count is a bad spec, not 0 or 2 customers
    for count in (-5, 2.7):
        bad.write_text(json.dumps({**spec, "customer_count": count}))
        rc, _, err = run_cli("gen", "--spec", bad, "--out", tmp_path / "x.txt")
        assert rc == 2 and "error: bad spec file" in err and "customer_count" in err
        assert not (tmp_path / "x.txt").exists()


def test_gen_usage_errors(tmp_path):
    rc, _, err = run_cli("gen", "NRP-99", "--out", tmp_path / "x.txt")
    assert rc == 1 and "NRP-1" in err  # valid names are listed
    rc, _, _ = run_cli("gen")  # neither family nor --spec
    assert rc == 1
    rc, _, err = run_cli("gen", "NRP-1", "--seed", "-3")
    assert rc == 1 and "non-negative" in err


# -- solve -------------------------------------------------------------------


def test_solve_exact_toy(toy_file):
    rc, out, err = run_cli("solve", toy_file, "--algo", "exact",
                           "--budget-ratio", "0.714")
    assert rc == 0
    assert "profit: 14" in out and "cost: 6" in out
    assert "budget: 9" in out  # floor(0.714 * 14)
    assert "selected: 2 3" in out
    assert "time:" in err and "time:" not in out


def test_solve_exact_stdout_is_the_documented_lines(tmp_path):
    # a cell on which HiGHS, with presolve on, also wrote a line of its own to stdout
    inst = bf.random_small_instance(25)
    path = tmp_path / "small.txt"
    write_instance_file(inst, path)
    bud = budget(inst, "0.7")
    sol = exact(inst, bud)
    expected = (f"instance: {path}\nalgorithm: exact (seed 0)\n"
                f"budget: {bud} (ratio 0.7 of total {inst.total_cost})\n"
                f"profit: {sol.profit}\ncost: {sol.cost}\n"
                f"selected: {' '.join(map(str, sorted(sol.selected)))}\n")
    first = run_cli("solve", path, "--algo", "exact", "--budget-ratio", "0.7")
    second = run_cli("solve", path, "--algo", "exact", "--budget-ratio", "0.7")
    assert first[:2] == second[:2] == (0, expected)


def test_solve_repeat_stdout_identical(toy_file):
    first = run_cli("solve", toy_file, "--algo", "haco", "--seed", "5")
    second = run_cli("solve", toy_file, "--algo", "haco", "--seed", "5")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_solve_dump_then_verify(toy_file, tmp_path):
    dump = tmp_path / "sol.json"
    rc, _, _ = run_cli("solve", toy_file, "--algo", "fhc", "--seed", "1",
                       "--budget-ratio", "0.5", "--dump", dump)
    assert rc == 0
    rc, out, _ = run_cli("verify", toy_file, dump, "--budget-ratio", "0.5")
    data = json.loads(dump.read_text())
    assert rc == 0 and out == (f"ok: profit {data['profit']}, cost {data['cost']} "
                               f"within budget {data['budget']}\n")

    data["profit"] += 1
    dump.write_text(json.dumps(data))
    rc, _, err = run_cli("verify", toy_file, dump)
    assert rc == 2 and "mismatch" in err and "profit" in err

    data["profit"] -= 1
    dump.write_text(json.dumps(data))
    rc, _, err = run_cli("verify", toy_file, dump, "--budget-ratio", "1.0")
    assert rc == 2 and "budget" in err


@pytest.mark.parametrize("dump", [
    {"profit": 0, "cost": 0},  # no selection
    [1, 2],  # not an object
    {"selected": ["a"], "profit": 0, "cost": 0},  # ids must be integers
    {"selected": [2, 2], "profit": 8, "cost": 4},  # an id given twice
])
def test_verify_malformed_dump_is_a_data_error(toy_file, tmp_path, dump):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dump))
    rc, _, err = run_cli("verify", toy_file, path)
    assert rc == 2 and err.startswith("error: malformed dump")
    assert "Traceback" not in err


def test_verify_unreadable_dump_is_a_data_error(toy_file, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("verify", toy_file, path)[::2] == (2, (
        "error: bad dump file: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n"))
    missing = tmp_path / "missing.json"
    assert run_cli("verify", toy_file, missing)[::2] == (
        2, f"error: bad dump file: [Errno 2] No such file or directory: '{missing}'\n")


@pytest.mark.parametrize("algo", ["haco", "aco"])
def test_solve_colony_on_degenerate_instances(tmp_path, algo):
    # customer 1 requests nothing: free profit that must be selected
    free = tmp_path / "free.txt"
    write_instance_file(make_instance([4, 3], [], [(5, []), (9, [1, 2])]), free)
    rc, out, err = run_cli("solve", free, "--algo", algo, "--budget-ratio", "0.5",
                           "--iters", "2", "--ants", "2")
    assert rc == 0 and "Traceback" not in err
    assert "profit: 5" in out and "cost: 0" in out and "selected: 1" in out
    empty = tmp_path / "empty.txt"
    write_instance_file(make_instance([2], [], []), empty)
    rc, out, err = run_cli("solve", empty, "--algo", algo)
    assert rc == 0 and "profit: 0" in out and "selected: -" in out


def test_solve_sa_with_default_parameters(toy_file):
    rc, out, _ = run_cli("solve", toy_file, "--algo", "sa", "--seed", "3",
                         "--budget-ratio", "5/7")
    assert rc == 0 and "budget: 10" in out and "profit:" in out


def test_solve_refuses_a_solution_that_fails_its_check(toy, toy_file, tmp_path, monkeypatch):
    # a solver result over budget exits 2 with mismatch lines, before anything is printed
    over = evaluate(toy, [1, 2, 3])  # cost 14 > budget 7
    cls, pinned, effort, _call = bench._SOLVERS["fhc"]
    monkeypatch.setitem(bench._SOLVERS, "fhc", (cls, pinned, effort, lambda *a: over))
    dump = tmp_path / "sol.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["solve", str(toy_file), "--algo", "fhc", "--budget-ratio", "0.5",
                       "--dump", str(dump)])
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue() == "mismatch: cost 14 exceeds budget 7\n"
    assert not dump.exists()


def test_solve_guard_refusal(node_limited_nrp1, capsys):
    rc = cli.main(["solve", str(node_limited_nrp1), "--algo", "exact", "--budget-ratio", "0.5"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    # HiGHS's own status, not scipy's wrapper of it ("...was not recognized")
    assert err.startswith("refused: no optimum proven within the node limit of 1, HiGHS Status ")
    assert "not recognized" not in err


def test_solve_usage_errors(toy_file):
    rc, _, _ = run_cli("solve", toy_file, "--algo", "tabu")
    assert rc == 1
    rc, _, err = run_cli("solve", toy_file, "--algo", "sa", "--restarts", "5")
    assert rc == 1 and "does not apply" in err
    rc, _, err = run_cli("solve", toy_file, "--budget-ratio", "2.0")
    assert rc == 1 and "budget-ratio" in err
    rc, _, _ = run_cli("solve", toy_file, "--seed", "-1")
    assert rc == 1
    # bad parameter values are usage errors, not data errors
    rc, _, err = run_cli("solve", toy_file, "--algo", "haco", "--rho", "2")
    assert rc == 1 and err.startswith("usage error:") and "rho" in err
    rc, _, err = run_cli("solve", toy_file, "--algo", "grasp", "--rcl", "0")
    assert rc == 1 and err.startswith("usage error:") and "rcl" in err
    rc, _, err = run_cli("solve", toy_file, "--algo", "sa", "--lm-beta", "nan")
    assert rc == 1 and "finite" in err
    rc, _, err = run_cli("solve", toy_file, "--algo", "haco", "--iters", "0")
    assert rc == 1 and err.startswith("usage error:") and "iteration" in err


def test_solve_data_errors(tmp_path):
    rc, _, _ = run_cli("solve", tmp_path / "missing.txt")
    assert rc == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n4\n5 3 4\n")  # truncated cost list
    rc, _, err = run_cli("solve", bad)
    assert rc == 2 and "line" in err


# well-formed instance files with malformed content, and the issue kinds they hold
MALFORMED = {
    # a two-requirement dependency cycle
    "cyclic": ("1\n2\n1 1\n2\n1 2\n2 1\n1\n5 1 1\n", ["cyclic-dependency"]),
    # a zero cost, and a request for requirement 9 of 2
    "zero-cost-bad-id": ("1\n2\n0 1\n0\n1\n5 1 9\n", ["non-positive-value", "bad-id"]),
    # a cost past int64, which the solvers once met as an OverflowError traceback
    "huge-cost": ("1\n2\n99999999999999999999 1\n0\n1\n5 1 1\n", ["total-too-large"]),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_read_instance_refuses_malformed_text(name):
    text, kinds = MALFORMED[name]
    with pytest.raises(InvalidInstanceError) as err:
        read_instance(text)
    assert [i.kind for i in err.value.issues] == kinds


@pytest.mark.parametrize("name", MALFORMED)
def test_solve_and_verify_refuse_malformed_files(name, toy_file, tmp_path):
    text, kinds = MALFORMED[name]
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    dump = tmp_path / "sol.json"
    assert run_cli("solve", toy_file, "--algo", "fhc", "--dump", dump)[0] == 0
    for argv in (("solve", bad), ("verify", bad, dump)):
        rc, out, err = run_cli(*argv)
        assert rc == 2 and out == ""
        # one error line naming every issue, no traceback
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert err.startswith("error: instance failed validation: ")
        assert all(f"{kind}: " in err for kind in kinds)


def test_bench_refuses_malformed_files(tmp_path):
    for name, (text, _kinds) in MALFORMED.items():
        (tmp_path / f"{name}.txt").write_text(text)
    cfg = tmp_path / "bench.ini"
    cfg.write_text(f"[bench]\nfiles = {' '.join(f'{n}.txt' for n in MALFORMED)}\n"
                   "ratios = 0.5\nseeds = 1\nalgorithms = fhc exact\nout = r\n")
    rc, out, err = run_cli("bench", cfg)
    cells = 2 * len(MALFORMED)
    assert rc == 2 and f"0/{cells} runs completed" in out
    assert "Traceback" not in err
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert len(rows) == cells
    assert all(row.split(",")[-1].startswith("error:InvalidInstanceError: instance failed "
                                             "validation: ") for row in rows)


def test_solve_param_flags_change_result(toy_file):
    # ratios parse as exact fractions too: 5/7 of 14 gives budget 10
    rc, out, _ = run_cli("solve", toy_file, "--algo", "fhc", "--seed", "2",
                         "--budget-ratio", "5/7", "--restarts", "1")
    assert rc == 0 and "budget: 10" in out
    assert "profit: 10" in out  # single climb stays in the lesser basin
    rc, out, _ = run_cli("solve", toy_file, "--algo", "fhc", "--seed", "2",
                         "--budget-ratio", "5/7", "--restarts", "100")
    assert rc == 0 and "profit: 14" in out


# -- bench -------------------------------------------------------------------


def test_bench_end_to_end(toy_file, tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("""\
[bench]
files = toy.txt
ratios = 0.5 1.0
seeds = 1 2
algorithms = fhc exact
out = results
dump = dumps

[fhc]
restarts = 4
""")
    rc, out, _ = run_cli("bench", cfg)
    assert rc == 0 and "8/8 runs completed" in out
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results.md").exists()
    assert len(list((tmp_path / "dumps").iterdir())) == 8
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "instance,ratio,algorithm,seed,profit,cost,budget,time_s,extra"


def test_bench_failed_cell_exit_code(node_limited_nrp1, tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[bench]\nfiles = big.txt\nratios = 0.5\nseeds = 1\n"
                   "algorithms = exact\nout = r\njobs = 1\n")
    rc = cli.main(["bench", str(cfg)])
    out, err = capsys.readouterr()
    assert rc == 2 and "0/1 runs completed" in out
    assert "TooLargeError" in err
    assert (tmp_path / "r.csv").exists()  # partial results still land on disk


def test_bench_config_errors(tmp_path):
    rc, _, err = run_cli("bench", tmp_path / "nope.ini")
    assert rc == 1 and "config error" in err
    cfg = tmp_path / "b.ini"
    cfg.write_text("[bench]\ngenerate = NRP-1@1\nalgorithms = fhc\n[fhc]\nrho = 1\n")
    rc, _, err = run_cli("bench", cfg)
    assert rc == 1 and "no parameter" in err
    for body, phrase in (("rho = 2", "rho"), ("ants = many", "ants"),
                         ("iterations = 0", "iteration")):
        cfg.write_text(f"[bench]\ngenerate = NRP-1@1\nalgorithms = haco\n[haco]\n{body}\n")
        rc, _, err = run_cli("bench", cfg)
        assert rc == 1 and err.startswith("config error:") and phrase in err
    # a negative seed is refused before any cell runs
    for body in ("generate = NRP-1@1\nseeds = -1", "generate = NRP-1@-2"):
        cfg.write_text(f"[bench]\n{body}\nalgorithms = fhc\nout = r\n")
        rc, _, err = run_cli("bench", cfg)
        assert rc == 1 and err.startswith("config error:") and "negative" in err
        assert not (tmp_path / "r.csv").exists()
    # so are a fractional ratio, two sources with one name and a value listed twice
    for body, phrase in (("generate = NRP-1@1\nratios = 1/2", "decimal"),
                         ("generate = NRP-1@1\nratios = 0.5 0.50", "listed twice"),
                         ("files = a/x.txt b/x.txt", "named 'x'"),
                         ("generate = NRP-1@1\nfiles = NRP-1-s1.txt", "named 'NRP-1-s1'")):
        cfg.write_text(f"[bench]\n{body}\nalgorithms = fhc\nout = r\ndump = d\n")
        rc, _, err = run_cli("bench", cfg)
        assert rc == 1 and err.startswith("config error:") and phrase in err, err
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "d").exists()


@pytest.mark.parametrize("text", [
    b"generate = NRP-1@1\n",  # no section header
    b"[bench]\ngenerate = NRP-1@1\ngenerate = NRP-1@2\n",  # a key given twice
    b"[bench]\ngenerate = NRP-1@1\n[bench]\nseeds = 2\n",  # a section given twice
    b"[bench]\ngenerate = NRP-1@1\nratios\n",  # a line that is no key = value
    b"[bench]\ngenerate = NRP-1@1 # \xff\n",  # not UTF-8
], ids=["no-header", "key-twice", "section-twice", "no-value", "not-utf8"])
def test_bench_malformed_config_file_is_a_config_error(tmp_path, text):
    cfg = tmp_path / "bench.ini"
    cfg.write_bytes(text + b"algorithms = fhc\nout = r\n")
    rc, out, err = run_cli("bench", cfg)
    assert rc == 1 and out == "" and "Traceback" not in err
    assert err.startswith("config error:") and str(cfg) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "r.csv").exists()


def test_bench_config_values_take_percent_literally(toy_file, tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[bench]\nfiles = toy.txt\nratios = 0.5\nalgorithms = fhc\nout = r%1\n")
    rc, out, err = run_cli("bench", cfg)
    assert rc == 0 and "1/1 runs completed" in out and "Traceback" not in err
    assert (tmp_path / "r%1.csv").exists()


def test_bench_jobs_flag_overrides(toy_file, tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[bench]\nfiles = toy.txt\nratios = 0.5\nseeds = 1 2 3\n"
                   "algorithms = fhc\n")
    rc1, _, _ = run_cli("bench", cfg, "--jobs", "2", "--out", tmp_path / "j2")
    rc2, _, _ = run_cli("bench", cfg, "--out", tmp_path / "j1")
    assert rc1 == rc2 == 0
    strip = lambda p: [r.split(",")[:7] for r in p.read_text().splitlines()]
    assert strip(tmp_path / "j2.csv") == strip(tmp_path / "j1.csv")


def test_bench_refuses_fewer_than_one_job(tmp_path):
    # both front ends refuse before any cell runs
    cfg = tmp_path / "bench.ini"
    for jobs_line, flags, words in (("", ["--jobs", "0"], "config error: jobs"),
                                    ("", ["--jobs", "-3"], "config error: jobs"),
                                    ("jobs = 0\n", [], "config error: jobs"),
                                    ("jobs = -3\n", [], "config error: jobs")):
        cfg.write_text("[bench]\ngenerate = NRP-1@1\nalgorithms = fhc\n" + jobs_line)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["bench", str(cfg), *flags])
        assert rc == 1 and err.getvalue().startswith(words), err.getvalue()
        assert out.getvalue() == ""


# -- parameter surface (in process) ---------------------------------------------

# the documented surface, written out by hand:
# algorithm -> {INI key: (solve flag, params field, a valid value)}
_ANTS = {"iterations": ("--iters", "iterations", 3), "ants": ("--ants", "ants", 3),
         "alpha": ("--alpha", "alpha", 0.5), "beta": ("--beta", "beta", 0.5),
         "gamma": ("--gamma", "gamma", 0.5), "rho": ("--rho", "rho", 0.5)}
SURFACE = {
    "haco": _ANTS,
    "aco": _ANTS,
    "fhc": {"restarts": ("--restarts", "restarts", 3)},
    "grasp": {"restarts": ("--restarts", "restarts", 3), "rcl": ("--rcl", "rcl_length", 3)},
    "sa": {"lm_beta": ("--lm-beta", "lm_beta", 0.5),
           "initial_temp": ("--initial-temp", "initial_temp", 0.5),
           "final_temp": ("--final-temp", "final_temp", 0.01),
           "moves_per_temp": ("--moves-per-temp", "moves_per_temp", 3)},
    "exact": {},
}
PARAM_FLAGS = {flag for keys in SURFACE.values() for flag, _, _ in keys.values()}


def _from_flags(algo, *argv):
    args = cli._build_parser().parse_args(["solve", "x.txt", "--algo", algo, *argv])
    return cli._solver_params(args)


def _from_section(tmp_path, algo, body):
    path = tmp_path / "params.ini"
    path.write_text(f"[bench]\ngenerate = NRP-1@1\nalgorithms = {algo}\n[{algo}]\n{body}\n")
    return parse_bench_config(path).params[algo]


def test_solve_has_exactly_the_parameter_flags():
    top = cli._build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for action in sub.choices["solve"]._actions for o in action.option_strings}
    assert options == {"-h", "--help", "--algo", "--budget-ratio", "--seed", "--dump"} | PARAM_FLAGS
    assert tuple(SURFACE) == ALGORITHMS


@pytest.mark.parametrize("algo", SURFACE)
def test_flags_and_ini_keys_set_the_same_fields(algo, tmp_path):
    own = set()
    for key, (flag, field, value) in SURFACE[algo].items():
        own.add(flag)
        from_flag = _from_flags(algo, flag, str(value))
        from_key = _from_section(tmp_path, algo, f"{key} = {value}")
        assert from_flag == from_key == replace(default_params(algo), **{field: value})
        assert type(getattr(from_key, field)) is type(value), key
    for flag in sorted(PARAM_FLAGS - own):
        with pytest.raises(cli.UsageError, match="does not apply"):
            _from_flags(algo, flag, "1")
    # the algorithm pins use_local_search: neither a flag nor a key
    with pytest.raises(cli.UsageError):
        _from_flags(algo, "--use-local-search", "1")
    with pytest.raises(ConfigError, match="no parameter"):
        _from_section(tmp_path, algo, "use_local_search = 1")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_parameters_are_refused(text, tmp_path):
    floats = [(algo, key, flag) for algo, keys in SURFACE.items()
              for key, (flag, _, value) in keys.items() if isinstance(value, float)]
    assert len(floats) == 2 * 4 + 3
    for algo, key, flag in floats:
        with pytest.raises(cli.UsageError, match="finite"):
            _from_flags(algo, f"{flag}={text}")
        with pytest.raises(ConfigError, match="finite"):
            _from_section(tmp_path, algo, f"{key} = {text}")


# -- exit-code fuzzing (in process) ---------------------------------------------

COUNT_FLAGS = ("--iters", "--ants", "--restarts", "--rcl", "--moves-per-temp")
FLOAT_FLAGS = tuple(sorted(PARAM_FLAGS - set(COUNT_FLAGS)))
# positive values stay >= 0.05, so a run anneals at most about 3 * 1e4 / 0.05
# attempts (moves_per_temp 3, final_temp 1e-4 by default, lm_beta 0.05)
FLOAT_VALUES = ("nan", "inf", "-inf", "0", "-1", "0.05", "0.5", "2")
NOT_NUMBERS = ("", "x", "1.5.2")


@st.composite
def solve_argv(draw):
    algo = draw(st.sampled_from(ALGORITHMS))
    own = sorted(flag for flag, _, _ in SURFACE[algo].values())
    flags = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    if draw(st.integers(0, 3)) == 0:  # now and then a flag of another algorithm
        flags.append(draw(st.sampled_from(sorted(PARAM_FLAGS - set(own)))))
    values = {}
    for flag in flags:
        numbers = (st.integers(-2, 3).map(str) if flag in COUNT_FLAGS
                   else st.sampled_from(FLOAT_VALUES))
        values[flag] = draw(st.sampled_from(NOT_NUMBERS) if draw(st.integers(0, 5)) == 0
                            else numbers)
    return algo, values


# the toy file is only read, so one file can serve every example
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(solve_argv())
def test_solve_exit_codes_under_fuzzing(toy_file, case):
    algo, values = case
    argv = ["solve", str(toy_file), "--algo", algo, *(f"{f}={v}" for f, v in values.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert "Traceback" not in err.getvalue()
    own = {flag for flag, _, _ in SURFACE[algo].values()}
    bad = any(flag not in own or value in NOT_NUMBERS or value.lstrip("-") in ("nan", "inf")
              for flag, value in values.items())
    # the toy instance is valid and small, so no data error or guard refusal
    assert rc == 1 if bad else rc in (0, 1), (argv, rc, err.getvalue())
