import math

import pytest

import bruteforce as bf
from nrpbench import (GraspParams, SaParams, TooLargeError, budget, builtin_spec, exact,
                      expected_sa_attempts, generate, grasp, grasp_construct,
                      lundy_mees, make_instance, random_feasible, rng, sa)
from nrpbench.baselines import _calibrate_temp

FAST_SA = SaParams(lm_beta=0.05)
# stays warm enough to accept drops for all of its ~5000 attempts
WARM_SA = SaParams(lm_beta=2e-4, final_temp=1.0)


# -- GRASP -------------------------------------------------------------------


def test_grasp_construct_greedy_when_rcl_is_one(toy):
    # scores: customer 2 at 8/4, customer 1 at 10/8, customer 3 at 6/6;
    # after taking 2, customer 3 scores 6/2 and customer 1 no longer fits
    sol = grasp_construct(toy, 10, 1, rng.substream(0, 60))
    assert sol.selected == {2, 3} and sol.profit == 14


def test_grasp_construct_empty_budget(toy):
    assert grasp_construct(toy, 0, 5, rng.substream(0, 60)).selected == frozenset()


def test_grasp_construct_wide_rcl_reaches_both_basins(toy):
    outcomes = set()
    for s in range(30):
        sol = grasp_construct(toy, 10, 3, rng.substream(s, 60))
        assert sol.cost <= 10
        outcomes.add(sol.selected)
    assert outcomes == {frozenset({1}), frozenset({2, 3})}


def test_grasp_construct_rcl_one_ignores_the_stream():
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        a = grasp_construct(inst, b, 1, rng.substream(1, 61))
        c = grasp_construct(inst, b, 1, rng.substream(999, 61))
        assert a == c


def test_grasp_finds_toy_optimum(toy):
    for s in (1, 2, 3):
        assert grasp(toy, 10, GraspParams(restarts=100, rcl_length=10), seed=s).profit == 14


def test_grasp_deterministic_and_feasible():
    params = GraspParams(restarts=10, rcl_length=4)
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        a = grasp(inst, b, params, seed=seed)
        assert a == grasp(inst, b, params, seed=seed)
        assert bf.check_solution(inst, a, b) == []


def test_grasp_more_restarts_never_worse(toy):
    for seed in range(1, 8):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        one = grasp(inst, b, GraspParams(restarts=1), seed=seed)
        many = grasp(inst, b, GraspParams(restarts=25), seed=seed)
        assert many.profit >= one.profit


def test_grasp_params_validation():
    with pytest.raises(ValueError):
        GraspParams(restarts=0)
    with pytest.raises(ValueError):
        GraspParams(rcl_length=0)


# -- simulated annealing -----------------------------------------------------


def test_lundy_mees_step():
    assert lundy_mees(1.0, 1e-8) == 1.0 / (1.0 + 1e-8)
    assert lundy_mees(2.0, 0.5) == 1.0
    # repeated application is strictly decreasing
    t = 5.0
    for _ in range(10):
        nxt = lundy_mees(t, 0.1)
        assert 0 < nxt < t
        t = nxt


def test_expected_sa_attempts():
    p = SaParams(lm_beta=0.05, initial_temp=1.0, final_temp=1e-4)
    assert expected_sa_attempts(p) == math.ceil((1e4 - 1.0) / 0.05)
    doubled = SaParams(lm_beta=0.05, initial_temp=1.0, final_temp=1e-4,
                       moves_per_temp=2)
    assert expected_sa_attempts(doubled) == 2 * expected_sa_attempts(p)


def test_sa_defaults_finish():
    # whatever start temperature calibration picks, the default schedule
    # stops after at most 1 / (final_temp * lm_beta) attempts
    for t0 in (1.0, 20.0, 1e9):
        assert expected_sa_attempts(SaParams(), t0) <= 200_000


def test_sa_deterministic(toy):
    a = sa(toy, 10, FAST_SA, seed=7)
    b = sa(toy, 10, FAST_SA, seed=7)
    assert a == b


def test_sa_toy_outcomes(toy):
    # the schedule cools fast, so runs whose random start is the {1}
    # basin may never escape it; both outcomes are valid best-visited
    for s in range(6):
        sol = sa(toy, 10, FAST_SA, seed=s)
        assert sol.profit in (10, 14)
        assert sol.cost <= 10
    assert sa(toy, 10, FAST_SA, seed=0).profit == 14
    assert sa(toy, 10, FAST_SA, seed=4).profit == 10


def test_sa_never_below_its_start():
    for seed in range(1, 16):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        start = random_feasible(inst, b, rng.substream(seed, rng.SA_CHAIN))
        sol = sa(inst, b, FAST_SA, seed=seed)
        assert sol.profit >= start.profit
        assert bf.check_solution(inst, sol, b) == []


def _reference_chain(inst, bud, params, seed):
    """The annealer's chain on plain lists: per-requirement counts, cost and profit.

    Same stream use as ``sa``: the random feasible start, then one
    (customer, uniform) pair per attempt, drawn in blocks of 8192.
    Returns the best selection visited and the number of accepted drops.
    """
    gen = rng.substream(seed, rng.SA_CHAIN)
    start = random_feasible(inst, bud, gen)
    m = inst.n_customers
    profits = [c.profit for c in inst.customers]
    costs = [r.cost for r in inst.requirements]
    closures = [sorted(r - 1 for r in bf.brute_closure(inst, c.requests))
                for c in inst.customers]
    selected = [c + 1 in start.selected for c in range(m)]
    counts = [0] * inst.n_requirements
    for c in start.selected:
        for r in closures[c - 1]:
            counts[r] += 1
    cost = sum(costs[r] for r in range(len(counts)) if counts[r])
    profit = best_profit = start.profit
    best = set(start.selected)
    temp = params.initial_temp
    if temp is None:
        temp = _calibrate_temp(inst, selected, params, seed)
    drops = 0
    draws: list[tuple[int, float]] = []
    while temp > params.final_temp:
        for _ in range(params.moves_per_temp):
            if not draws:
                draws = list(zip(gen.integers(0, m, size=8192).tolist(),
                                 gen.random(8192).tolist()))[::-1]
            j, u = draws.pop()
            if selected[j]:
                if u < math.exp(-profits[j] / temp):
                    selected[j] = False
                    for r in closures[j]:
                        counts[r] -= 1
                        if counts[r] == 0:
                            cost -= costs[r]
                    profit -= profits[j]
                    drops += 1
                continue
            extra = sum(costs[r] for r in closures[j] if counts[r] == 0)
            if cost + extra <= bud:
                selected[j] = True
                for r in closures[j]:
                    counts[r] += 1
                cost += extra
                profit += profits[j]
                if profit > best_profit:
                    best_profit = profit
                    best = {c + 1 for c in range(m) if selected[c]}
        temp = lundy_mees(temp, params.lm_beta)
    return best, drops


def test_sa_matches_reference_chain():
    nrp1 = generate(builtin_spec("NRP-1"), 1)
    cases = [(bf.random_small_instance(seed), params, seed)
             for seed in range(1, 9) for params in (FAST_SA, WARM_SA)]
    cases += [(nrp1, FAST_SA, 1), (nrp1, WARM_SA, 1)]
    drops = 0
    for inst, params, seed in cases:
        bud = budget(inst, "0.5")
        best, n = _reference_chain(inst, bud, params, seed)
        assert sa(inst, bud, params, seed).selected == best
        drops += n
    # the chains walk: drops are accepted, not only adds
    assert drops > 0


def test_sa_fixed_initial_temperature(toy):
    params = SaParams(lm_beta=0.05, initial_temp=50.0)
    assert sa(toy, 10, params, seed=1) == sa(toy, 10, params, seed=1)


def test_sa_params_validation():
    with pytest.raises(ValueError):
        SaParams(lm_beta=0.0)
    with pytest.raises(ValueError):
        SaParams(final_temp=0.0)
    with pytest.raises(ValueError):
        SaParams(initial_temp=1e-5, final_temp=1e-4)
    with pytest.raises(ValueError):
        SaParams(moves_per_temp=0)


# -- exact oracle ------------------------------------------------------------


def test_exact_toy(toy):
    best = exact(toy, 10)
    assert best.selected == {2, 3} and best.profit == 14
    assert exact(toy, 14).selected == {1, 2, 3}
    assert exact(toy, 0).selected == frozenset()
    assert exact(toy, 3).profit == 0  # cheapest closure costs 4
    assert exact(toy, 4).selected == {2}


def test_exact_breaks_ties_lexicographically():
    inst = make_instance([1, 1], [], [(5, [1]), (5, [2])])
    assert exact(inst, 1).selected == {1}


def test_exact_matches_subset_enumeration():
    for seed in range(1, 31):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        best_profit, best_sel = bf.brute_best(inst, b)
        sol = exact(inst, b)
        assert sol.profit == best_profit
        assert tuple(sorted(sol.selected)) == best_sel


def test_exact_guard():
    inst = make_instance([1], [], [(1, [1])] * 26)
    with pytest.raises(TooLargeError):
        exact(inst, 1)
    assert exact(inst, 1, guard=30).profit == 26


def test_heuristics_never_beat_exact():
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.4)
        top = exact(inst, b).profit
        assert grasp(inst, b, GraspParams(restarts=10), seed=seed).profit <= top
        assert sa(inst, b, FAST_SA, seed=seed).profit <= top
