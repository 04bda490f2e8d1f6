import importlib
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from conftest import subprocess_env
from nrpbench import (CoverTracker, GraspParams, SaParams, TooLargeError, budget,
                      builtin_spec, evaluate, exact, generate, make_instance, rng)
from nrpbench import baselines
from nrpbench.baselines import (EXACT_COST_LIMIT, _calibrate_temp, _frozen, grasp,
                                grasp_construct, lundy_mees, sa)
from nrpbench.local_search import random_feasible

FAST_SA = SaParams(lm_beta=0.05)
# stays warm enough to accept drops for all of its ~5000 attempts
WARM_SA = SaParams(lm_beta=2e-4, final_temp=1.0)
# cools every third attempt, so a cooling step spans draw blocks
STEPPED_SA = SaParams(lm_beta=0.5, moves_per_temp=3)
FIXED_SA = SaParams(lm_beta=0.5, initial_temp=20.0)


# -- GRASP -------------------------------------------------------------------


def test_grasp_construct_greedy_when_rcl_is_one(toy):
    # scores: customer 2 at 8/4, customer 1 at 10/8, customer 3 at 6/6;
    # after taking 2, customer 3 scores 6/2 and customer 1 no longer fits
    sol = grasp_construct(toy, 10, 1, rng.substream(0, 60)).solution()
    assert sol.selected == {2, 3} and sol.profit == 14


def test_grasp_construct_empty_budget(toy):
    sol = grasp_construct(toy, 0, 5, rng.substream(0, 60)).solution()
    assert sol.selected == frozenset()


def test_grasp_construct_wide_rcl_reaches_both_basins(toy):
    outcomes = set()
    for s in range(30):
        sol = grasp_construct(toy, 10, 3, rng.substream(s, 60))
        sol = sol.solution()
        assert sol.cost <= 10
        outcomes.add(sol.selected)
    assert outcomes == {frozenset({1}), frozenset({2, 3})}


def test_grasp_construct_rcl_one_ignores_the_stream():
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        a = grasp_construct(inst, b, 1, rng.substream(1, 61)).solution()
        c = grasp_construct(inst, b, 1, rng.substream(999, 61)).solution()
        assert a == c


def _reference_grasp(inst, bud, rcl_length, gen):
    """GRASP's construction with its list cut from a full sort; returns the added ids."""
    profits = inst.profit_vector
    cover = CoverTracker(inst)
    moves = []
    while (cand := cover.affordable(bud)).size:
        score = profits[cand] / np.maximum(1.0, cover.marginal[cand])
        rcl = cand[np.lexsort((cand, -score))[:rcl_length]]
        j = int(rcl[int(gen.integers(0, rcl.size))])
        cover.add(j)
        moves.append(j + 1)
    return moves


@pytest.mark.parametrize("family", ["NRP-1", "NRP-2", "NRP-3", "NRP-4", "NRP-5", "none"])
def test_grasp_construct_matches_full_sort_reference(family, monkeypatch):
    # "none": an instance without customers, whose fill draws nothing
    inst = make_instance([1], [], []) if family == "none" else generate(builtin_spec(family), 1)
    # lengths above m fill no list, so step-by-step draws start at step 1;
    # 10**30 is too large for a block of int64 draws
    lengths = (1, 3, 10)
    if family == "NRP-1":
        lengths += (inst.n_customers + 1, 2**64, 10**30)
    adds = []
    add = CoverTracker.add

    def record_add(self, index):
        adds.append(index + 1)
        add(self, index)

    for ratio in ("0.3", "0.5", "0.7"):
        bud = budget(inst, ratio)
        for rcl in lengths:
            gen, ref_gen = (rng.substream(7, rng.GRASP_RESTART, 1) for _ in range(2))
            want = _reference_grasp(inst, bud, rcl, ref_gen)
            adds.clear()
            with monkeypatch.context() as m:
                m.setattr(CoverTracker, "add", record_add)
                sol = grasp_construct(inst, bud, rcl, gen).solution()
            assert adds == want
            assert sol.selected == set(want)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            if rcl == 1:  # a one-long list draws nothing
                assert gen.bit_generator.state == \
                    rng.substream(7, rng.GRASP_RESTART, 1).bit_generator.state


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


def test_sa_defaults_finish(monkeypatch):
    # whatever start temperature calibration picks, a chain with the default
    # schedule makes at most 1 / (final_temp * lm_beta) = 200 000 attempts
    steps = []

    def counted(temp, lm_beta):
        steps.append(temp)
        return lundy_mees(temp, lm_beta)

    monkeypatch.setattr(importlib.import_module("nrpbench.baselines"), "lundy_mees", counted)
    inst = generate(builtin_spec("NRP-1"), 1)
    for t0 in (None, 1.0, 20.0, 1e9):
        params = SaParams(initial_temp=t0)
        steps.clear()
        sa(inst, budget(inst, "0.5"), params, seed=1)
        assert 0 < len(steps) * params.moves_per_temp <= 200_000


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
    (customer, uniform) pair per attempt, drawn in blocks of 8192.  It
    runs the whole schedule, without ``sa``'s frozen stop.  Returns the
    best selection visited, the number of accepted drops and the number
    of cooling steps.
    """
    gen = rng.substream(seed, rng.SA_CHAIN)
    start = random_feasible(inst, bud, gen).solution()
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
    drops = steps = 0
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
        steps += 1
    return best, drops, steps


def test_sa_matches_reference_chain(monkeypatch):
    steps = []

    def counted(temp, lm_beta):
        steps.append(temp)
        return lundy_mees(temp, lm_beta)

    monkeypatch.setattr(importlib.import_module("nrpbench.baselines"), "lundy_mees", counted)
    nrp1 = generate(builtin_spec("NRP-1"), 1)
    every = (FAST_SA, WARM_SA, STEPPED_SA, FIXED_SA)
    cases = [(bf.random_small_instance(seed), params, seed)
             for seed in range(1, 9) for params in every]
    cases += [(nrp1, params, 1) for params in every]
    drops = 0
    for inst, params, seed in cases:
        bud = budget(inst, "0.5")
        best, n, full = _reference_chain(inst, bud, params, seed)
        steps.clear()
        assert sa(inst, bud, params, seed).selected == best
        drops += n
        # a warm chain is never frozen and runs its whole schedule; a cold one may stop
        assert len(steps) == full if params is WARM_SA else len(steps) <= full
        if params is FAST_SA and inst is nrp1:
            assert len(steps) < full
    # the chains walk: drops are accepted, not only adds
    assert drops > 0


def test_calibrate_temp_matches_scalar_probes():
    # the reference draws the 100 probe targets one call at a time
    nrp1 = generate(builtin_spec("NRP-1"), 1)
    for inst, seed in [(bf.random_small_instance(s), s) for s in range(1, 21)] + [(nrp1, 1)]:
        m = inst.n_customers
        for ratio in ("0.01", "0.5"):
            start = random_feasible(inst, budget(inst, ratio), rng.substream(seed, 62))
            start = start.solution()
            selected = [c + 1 in start.selected for c in range(m)]
            gen = rng.substream(seed, rng.SA_PROBE)
            losses = [float(inst.profit_vector[j])
                      for j in (int(gen.integers(0, m)) for _ in range(100)) if selected[j]]
            want = (max(float(np.quantile(losses, 0.9)) / -math.log(0.9), 10 * FAST_SA.final_temp)
                    if losses else 1.0)
            assert _calibrate_temp(inst, selected, FAST_SA, seed) == want


def test_sa_frozen_only_when_no_flip_can_pass(toy):
    profits = toy.profit_vector
    stuck = CoverTracker(toy, [1])  # cost 8 of 10: neither customer 2 nor 3 fits
    edge = 10 / 750  # the rule's margin for the one selected profit, 10
    assert _frozen(stuck, 10, profits, edge)
    for temp in (edge, edge / 2, 1e-9):  # there and colder, a drop passes with probability 0
        assert math.exp(-10 / temp) == 0.0
    for temp in (0.02, 5.0):  # a drop can still pass
        assert math.exp(-10 / temp) > 0.0
        assert not _frozen(stuck, 10, profits, temp)
    # customer 3 still fits beside customer 2, however cold the chain
    assert not _frozen(CoverTracker(toy, [2]), 10, profits, 1e-9)
    # nothing selected and nothing fits (every closure costs at least 4)
    assert _frozen(CoverTracker(toy), 3, profits, 1e9)


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


def _cost_probe(c):
    """At budget c the optimum is {1}: customer 1 (profit 5) needs requirement 1
    (cost c) and customer 2 (profit 1) requirement 2 (cost 1); total cost c + 1."""
    return make_instance([c, 1], [], [(5, [1]), (1, [2])])


def test_exact_refuses_costs_from_its_limit(monkeypatch):
    c = EXACT_COST_LIMIT - 2  # total cost just under the limit
    assert exact(_cost_probe(c), c).selected == {1}
    # from the limit on, and where HiGHS answers {1, 2} (over budget) or {} (profit 0)
    for c in (EXACT_COST_LIMIT - 1, 1_500_000, 999_999_998):
        with pytest.raises(TooLargeError, match=f"reaches the limit of {EXACT_COST_LIMIT}$"):
            exact(_cost_probe(c), c)
    # with the limit lifted, the over-budget answer is caught by its integer cost
    monkeypatch.setattr(baselines, "EXACT_COST_LIMIT", 2**53)
    with pytest.raises(TooLargeError, match="costs 1500001, over the budget 1500000"):
        exact(_cost_probe(1_500_000), 1_500_000)


def test_exact_toy(toy):
    best = exact(toy, 10)
    assert best.selected == {2, 3} and best.profit == 14
    assert exact(toy, 14).selected == {1, 2, 3}
    assert exact(toy, 0).selected == frozenset()
    assert exact(toy, 3).profit == 0  # cheapest closure costs 4
    assert exact(toy, 4).selected == {2}


def test_exact_picks_one_of_tied_optima():
    # either customer alone is optimal; which one HiGHS returns is fixed, not chosen by id
    inst = make_instance([1, 1], [], [(5, [1]), (5, [2])])
    sol = exact(inst, 1)
    assert sol.selected in ({1}, {2}) and sol.profit == 5
    assert exact(inst, 1) == sol


def test_exact_matches_subset_enumeration():
    # on profit; among tied optima the selection may differ from the enumeration's
    for seed in range(1, 61):
        inst = bf.random_small_instance(seed)
        for ratio in ("0.3", "0.5", "0.7"):
            b = budget(inst, ratio)
            best_profit, _best_sel = bf.brute_best(inst, b)
            sol = exact(inst, b)
            assert sol.profit == best_profit and sol.cost <= b
            assert evaluate(inst, sol.selected) == sol


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**6), st.integers(1, 100))
def test_exact_matches_subset_enumeration_at_scaled_costs(seed, percent):
    # HiGHS decides the budget row to a relative tolerance: every cost scaled
    # by 10**k, for each k that keeps the total below the limit, keeps the
    # optimum, also at one unit below the optimum's cost, where that
    # tolerance would let it through
    inst = bf.random_small_instance(seed)
    customers = [(c.profit, c.requests) for c in inst.customers]
    k = 0
    while inst.total_cost * 10**k < EXACT_COST_LIMIT:
        scaled = make_instance([r.cost * 10**k for r in inst.requirements],
                               inst.graph.edges, customers)
        b = budget(scaled, Fraction(percent, 100))
        short = evaluate(scaled, bf.brute_best(scaled, b)[1]).cost - 1
        for bud in (b, short) if short >= 0 else (b,):
            sol = exact(scaled, bud)
            assert sol.profit == bf.brute_best(scaled, bud)[0] and sol.cost <= bud
            assert evaluate(scaled, sol.selected) == sol
        k += 1
    assert k >= 3  # costs below 10 and at most 20 requirements: a total below 200


def test_exact_has_no_customer_guard():
    # one past the old enumeration's 25-customer limit
    inst = make_instance([1], [], [(1, [1])] * 26)
    assert exact(inst, 1).profit == 26


def test_exact_proves_nrp1():
    inst = generate(builtin_spec("NRP-1"), 1)
    assert exact(inst, budget(inst, "0.5")).profit == 1111
    assert exact(inst, budget(inst, "0.7")).profit == 1458


def test_exact_on_degenerate_instances():
    assert exact(make_instance([], [], []), 5).selected == frozenset()
    # with no customer HiGHS never runs, so the cost limit does not apply
    assert exact(make_instance([EXACT_COST_LIMIT], [], []), 5).selected == frozenset()
    # a customer that requests nothing is free profit, at any budget
    free = make_instance([4, 3], [], [(5, []), (9, [1, 2])])
    assert exact(free, 0).selected == {1}
    assert exact(free, 6).selected == {1}
    assert exact(free, 7).selected == {1, 2}
    assert exact(make_instance([2], [], [(3, [1])]), 0).selected == frozenset()


def test_import_leaves_scipy_unloaded():
    # scipy costs about 0.7 s and 47 MB to import; only exact's first call pays it
    code = "import sys, nrpbench; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), timeout=60, check=True)
    assert proc.stdout == "False\n"


def test_heuristics_never_beat_exact():
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.4)
        top = exact(inst, b).profit
        assert grasp(inst, b, GraspParams(restarts=10), seed=seed).profit <= top
        assert sa(inst, b, FAST_SA, seed=seed).profit <= top
