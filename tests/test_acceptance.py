"""Release acceptance gate: one test per shipping criterion.

Each test performs its measurement and reports a one-line verdict
through the ``criterion`` fixture; pytest prints the collected lines in
a closing "acceptance criteria" section.  Every measurement follows the
same conventions: the solver seed equals the instance seed, and budgets
come from decimal ratio strings, so all numbers are exactly
reproducible on any machine.
"""

import math
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

import bruteforce as bf
from conftest import subprocess_env
from nrpbench import (AcoParams, FhcParams, GraspParams, InvalidInstanceError, SaParams, budget,
                      builtin_spec, generate, rng, run, solve_one)
from nrpbench.aco import _roulette, init_pheromone
from nrpbench.local_search import fhc

RATIOS = ("0.3", "0.5", "0.7")
HEURISTICS = ("haco", "aco", "fhc", "grasp", "sa")

# small-but-not-trivial settings so criterion 1 can afford 1000+ runs
QUICK_PARAMS = {
    "haco": AcoParams(iterations=3, ants=4),
    "aco": AcoParams(iterations=3, ants=4),
    "fhc": FhcParams(restarts=5),
    "grasp": GraspParams(restarts=5),
    "sa": SaParams(lm_beta=0.5),
    "exact": None,
}


@lru_cache(maxsize=None)
def _small_case(seed):
    """Random small instance, its half-cost budget, and the true optimum."""
    inst = bf.random_small_instance(seed)
    bud = budget(inst, "0.5")
    opt, _ = bf.brute_best(inst, bud)
    return inst, bud, opt


def test_criterion_1_every_solver_stays_feasible(criterion):
    invocations = 0
    violations = []
    for seed in range(1, 61):
        inst = bf.random_small_instance(seed)
        for ratio in RATIOS:
            bud = budget(inst, ratio)
            for algo, params in QUICK_PARAMS.items():
                sol, _ = solve_one(inst, bud, algo, seed, params)
                invocations += 1
                violations += [f"{algo} seed {seed} ratio {ratio}: {p}"
                               for p in bf.check_solution(inst, sol, bud)]
    criterion(1, invocations >= 1000 and not violations,
              f"{len(violations)} feasibility/consistency violations across "
              f"{invocations} solver runs (need 0 across >= 1000)")


def test_criterion_2_hybrid_matches_exact_on_small(criterion):
    t0 = time.perf_counter()
    optimal = within95 = 0
    for seed in range(1, 101):
        inst, bud, opt = _small_case(seed)
        sol = run(inst, bud, AcoParams(iterations=50), seed).best
        optimal += sol.profit == opt
        within95 += opt == 0 or sol.profit >= 0.95 * opt
    elapsed = time.perf_counter() - t0
    criterion(2, optimal >= 90 and within95 == 100 and elapsed < 120,
              f"hybrid t=50 on 100 small instances: {optimal}/100 optimal "
              f"(need >= 90), {within95}/100 within 95% (need 100/100), "
              f"{elapsed:.1f}s (need < 120)")


def test_criterion_3_climb_results_admit_no_move(criterion):
    flawed = 0
    for seed in range(1, 101):
        inst, bud, _ = _small_case(seed)
        sol = fhc(inst, bud, FhcParams(), seed)
        flawed += bf.has_improving_move(inst, sol, bud) is not None
    criterion(3, flawed == 0,
              f"{flawed}/100 restart-climb results admit a feasible addition "
              f"or profit-improving swap (need 0)")


def test_criterion_4_selection_probabilities_normalize(criterion):
    # the ants' draw puts candidate i's cut point at the exact normalized
    # cumulative probability u_i, candidates in id order among customers whose
    # weights are 0.0: a draw just below it picks i or an earlier candidate,
    # one just above it a later one
    gen = rng.substream(0, 95)
    misplaced = checks = 0
    for _ in range(10_000):
        m = int(gen.integers(2, 31))
        tau = gen.random(m) + 1e-12
        eta = gen.uniform(0.1, 5.0, size=m)
        k = int(gen.integers(1, m + 1))
        cands = np.sort(gen.choice(m, size=k, replace=False))
        alpha, beta = gen.uniform(0.0, 3.0, size=2)
        free = np.zeros(m, dtype=bool)
        free[cands] = True
        w = np.where(free, tau ** float(alpha) * eta ** float(beta), 0.0)
        ws = w[cands].tolist()
        total = math.fsum(ws)
        pick = _roulette(w)
        for i in range(k - 1):
            u = math.fsum(ws[:i + 1]) / total
            misplaced += pick(u - 1e-9, free, k) > cands[i]
            misplaced += pick(u + 1e-9, free, k) <= cands[i]
            checks += 2
    criterion(4, misplaced == 0,
              f"{misplaced} of {checks} draws 1e-9 from a normalized cumulative "
              f"probability over 10^4 random (tau, eta, candidates) draws fell on "
              f"the wrong side of it (need 0)")


def test_criterion_5_pheromone_stays_bounded(criterion):
    p = AcoParams()
    runs = 0
    ok = True
    for seed in (1, 2, 3):
        inst = generate(builtin_spec("NRP-1"), seed)
        bud = budget(inst, "0.5")
        w = np.array([c.profit for c in inst.customers], dtype=float)
        for use_ls in (True, False):
            res = run(inst, bud, AcoParams(use_local_search=use_ls), seed)
            cap = init_pheromone(inst) + p.ants * p.gamma * w.sum() / p.rho
            ok = ok and bool((res.tau > 0).all())
            ok = ok and bool((res.tau <= cap).all())
            runs += 1
    criterion(5, ok, f"after {runs} full runs every trail is in "
                     f"(0, theta*w + h*gamma*W_total/rho] : {ok}")


def test_criterion_6_comparative_ordering(criterion):
    params = {
        "haco": AcoParams(),
        "aco": AcoParams(),
        "fhc": FhcParams(),
        "grasp": GraspParams(),
        "sa": SaParams(lm_beta=0.05),
    }
    parts = []
    all_ok = True
    for ratio in RATIOS:
        profits: dict[str, list[int]] = {a: [] for a in HEURISTICS}
        chain = 0
        for seed in range(1, 11):
            inst = generate(builtin_spec("NRP-1"), seed)
            bud = budget(inst, ratio)
            got = {a: solve_one(inst, bud, a, seed, params[a])[0].profit
                   for a in HEURISTICS}
            for a in HEURISTICS:
                profits[a].append(got[a])
            chain += got["haco"] >= got["aco"] >= got["fhc"]
        mean = {a: sum(v) / len(v) for a, v in profits.items()}
        ok = (chain >= 8 and mean["haco"] >= mean["grasp"]
              and mean["haco"] >= mean["sa"])
        all_ok = all_ok and ok
        parts.append(f"ratio {ratio}: chain {chain}/10, means haco "
                     f"{mean['haco']:.1f} / grasp {mean['grasp']:.1f} / "
                     f"sa {mean['sa']:.1f}")
    criterion(6, all_ok,
              "hybrid >= plain >= climb chain needs >= 8/10 and hybrid mean "
              "must top grasp and sa -- " + "; ".join(parts))


def test_criterion_7_midsize_instance_within_budget(criterion):
    inst = generate(builtin_spec("NRP-2"), 1)
    bud = budget(inst, "0.5")
    t0 = time.perf_counter()
    solve_one(inst, bud, "aco", 1)
    aco_time = time.perf_counter() - t0
    wins = 0
    for seed in range(1, 11):
        plain = solve_one(inst, bud, "aco", seed)[0].profit
        hybrid = solve_one(inst, bud, "haco", seed)[0].profit
        wins += hybrid >= plain
    criterion(7, aco_time <= 120 and wins >= 7,
              f"620-requirement instance at ratio 0.5: one plain-aco run took "
              f"{aco_time:.1f}s (need <= 120), hybrid >= plain on {wins}/10 "
              f"seeds (need >= 7)")


def _cli(*argv):
    # a hung solver fails this criterion with TimeoutExpired instead of
    # stalling the suite
    return subprocess.run([sys.executable, "-m", "nrpbench.cli", *map(str, argv)],
                          capture_output=True, text=True, env=subprocess_env(), timeout=300)


BENCH_INI = """\
[bench]
generate = NRP-1@1
ratios = 0.3 0.7
seeds = 1 2
algorithms = haco aco fhc grasp sa

[haco]
iterations = 2
ants = 3

[aco]
iterations = 2
ants = 3

[fhc]
restarts = 3

[grasp]
restarts = 3

[sa]
lm_beta = 0.5
"""


def test_criterion_8_outputs_reproducible(criterion, tmp_path):
    _cli("gen", "NRP-1", "--seed", 9, "--out", tmp_path / "g1.txt")
    _cli("gen", "NRP-1", "--seed", 9, "--out", tmp_path / "g2.txt")
    gen_same = (tmp_path / "g1.txt").read_bytes() == (tmp_path / "g2.txt").read_bytes()

    s1 = _cli("solve", tmp_path / "g1.txt", "--algo", "haco", "--seed", 3)
    s2 = _cli("solve", tmp_path / "g1.txt", "--algo", "haco", "--seed", 3)
    solve_same = s1.returncode == 0 and s1.stdout == s2.stdout

    cfg = tmp_path / "bench.ini"
    cfg.write_text(BENCH_INI)
    tables = {}
    for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
        proc = _cli("bench", cfg, "--jobs", jobs, "--out", tmp_path / tag,
                    "--dump", tmp_path / f"dump-{tag}")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in
                (tmp_path / f"{tag}.csv").read_text().splitlines()]
        tables[tag] = [row[:7] + row[8:] for row in rows]  # drop time_s
    csv_same = tables["a"] == tables["b"] == tables["c"]
    names = sorted(p.name for p in (tmp_path / "dump-a").iterdir())
    dumps_same = bool(names) and all(
        (tmp_path / "dump-a" / n).read_bytes() ==
        (tmp_path / "dump-c" / n).read_bytes() for n in names)

    criterion(8, gen_same and solve_same and csv_same and dumps_same,
              f"repeat runs byte-identical: gen {gen_same}, solve stdout "
              f"{solve_same}, bench csv minus time (repeat and --jobs 1 vs 2) "
              f"{csv_same}, solution dumps {dumps_same}")


FAMILY_SHAPES = {
    "NRP-1": ([20, 40, 80], 100),
    "NRP-2": ([20, 40, 80, 160, 320], 500),
    "NRP-3": ([250, 500, 750], 500),
    "NRP-4": ([250, 500, 750, 1000, 750], 750),
    "NRP-5": ([500, 500, 500], 1000),
}


def _matches_recipe(inst, spec):
    offset = 0
    for lv in spec.levels:
        for r in inst.requirements[offset:offset + lv.count]:
            if not lv.cost_min <= r.cost <= lv.cost_max:
                return False
        offset += lv.count
    return all(
        spec.profit_min <= c.profit <= spec.profit_max
        and spec.request_min <= len(c.requests) <= spec.request_max
        for c in inst.customers)


def test_criterion_9_generator_fidelity(criterion):
    bad = total = 0
    for family, (levels, n_customers) in FAMILY_SHAPES.items():
        spec = builtin_spec(family)
        for seed in range(1, 21):
            total += 1
            try:
                inst = generate(spec, seed)
            except InvalidInstanceError:  # a malformed instance is refused as it is built
                bad += 1
                continue
            good = (list(inst.level_sizes) == levels
                    and inst.n_customers == n_customers
                    and _matches_recipe(inst, spec))
            bad += not good
    criterion(9, bad == 0 and total == 100,
              f"{total - bad}/{total} generated instances validate with the "
              f"published level sizes, customer counts, and value ranges "
              f"(need 100/100)")
