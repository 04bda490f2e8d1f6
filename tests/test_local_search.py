import pytest

import bruteforce as bf
from nrpbench import (CoverTracker, FhcParams, InfeasibleStartError, Solution, budget,
                      builtin_spec, evaluate, fhc, generate, improve, random_feasible,
                      rng, sweep_improve)


def test_random_feasible_boundaries(toy):
    assert random_feasible(toy, 0, rng.substream(1, 50)).selected == frozenset()
    assert random_feasible(toy, 14, rng.substream(1, 50)).selected == {1, 2, 3}


def test_random_feasible_excludes_unaffordable(toy):
    # at budget 7 customer 1 (closure cost 8) can never enter; 2 and 3
    # always both fit, so the greedy fill lands on {2, 3} every time
    for s in range(20):
        sol = random_feasible(toy, 7, rng.substream(s, 50))
        assert sol.selected == {2, 3}
        assert sol.cost <= 7


def test_random_feasible_is_feasible_on_randoms():
    for seed in range(1, 31):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.4)
        sol = random_feasible(inst, b, rng.substream(seed, 51))
        assert bf.check_solution(inst, sol, b) == []


def test_improve_rejects_infeasible_start(toy):
    # the second start states a cost of 0: the climbs must check the
    # selection's real cost, 14, not trust the stated one
    for start in (evaluate(toy, [1, 2, 3]), Solution(frozenset({1, 2, 3}), frozenset(), 0, 24)):
        for climb in (improve, sweep_improve):
            with pytest.raises(InfeasibleStartError):
                climb(toy, 10, start, rng.substream(1, 52))


def test_improve_two_basins_from_singleton(toy):
    # from {2} at budget 10 there are two climbs: add 3 (reaching the
    # optimum {2,3}) or swap 1 in for 2 (sticking at the local optimum
    # {1}); which one happens depends on the first sampled customer
    start = evaluate(toy, [2])
    up = improve(toy, 10, start, rng.substream(0, 99))
    assert up.selected == {2, 3} and up.profit == 14
    across = improve(toy, 10, start, rng.substream(1, 99))
    assert across.selected == {1} and across.profit == 10


def test_improve_keeps_local_optimum_fixed(toy):
    # {1} admits no feasible add and no improving swap at budget 10
    start = evaluate(toy, [1])
    for s in range(5):
        assert improve(toy, 10, start, rng.substream(s, 99)).selected == {1}
        assert sweep_improve(toy, 10, start, rng.substream(s, 99)).selected == {1}


def test_improve_keeps_global_optimum_fixed(toy):
    start = evaluate(toy, [2, 3])
    for s in range(5):
        assert improve(toy, 10, start, rng.substream(s, 99)).selected == {2, 3}


def test_improve_never_lowers_profit():
    for seed in range(1, 31):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        gen = rng.substream(seed, 53)
        start = random_feasible(inst, b, gen)
        out = improve(inst, b, start, gen)
        assert out.profit >= start.profit
        assert bf.check_solution(inst, out, b) == []


def test_sweep_improve_reaches_certified_local_optimum(toy):
    start = evaluate(toy, [2])
    for s in range(8):
        sol = sweep_improve(toy, 10, start, rng.substream(s, 99))
        assert sol.selected in ({2, 3}, {1})
        assert bf.has_improving_move(toy, sol, 10) is None


def test_sweep_improve_certificate_on_randoms():
    for seed in range(1, 41):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        gen = rng.substream(seed, 54)
        start = random_feasible(inst, b, gen)
        out = sweep_improve(inst, b, start, gen)
        assert out.profit >= start.profit
        assert bf.check_solution(inst, out, b) == []
        assert bf.has_improving_move(inst, out, b) is None


def _reference_sweep(inst, bud, start, gen, draw):
    """The climbs' move rule with every row priced by brute force.

    Each round draws an order of the unselected ids with ``draw(gen, k)``
    (k of them), scans it for the first customer that can be added or
    swapped in at a profit gain, and takes the add, else the swap out of
    the least profitable feasible partner (ties: smaller id); an order
    with no such customer ends the climb.  Returns the moves as events.
    """
    clos = {c.id: bf.brute_closure(inst, c.requests) for c in inst.customers}
    req_cost = {r.id: r.cost for r in inst.requirements}
    profit = {c.id: c.profit for c in inst.customers}

    def cost(sel):
        return sum(req_cost[r] for r in set().union(*(clos[c] for c in sel)))

    selected = set(start.selected)
    events = []
    while True:
        outside = sorted(set(clos) - selected)
        if not outside:
            return events
        for j in (outside[p] for p in draw(gen, len(outside))):
            if cost(selected | {j}) <= bud:
                events.append(("add", j))
                selected.add(j)
                break
            swaps = [l for l in selected
                     if profit[l] < profit[j] and cost(selected - {l} | {j}) <= bud]
            if swaps:
                l = min(swaps, key=lambda c: (profit[c], c))
                events += [("add", j), ("drop", l)]
                selected = selected - {l} | {j}
                break
        else:
            return events


# each climb with its draw rule: one uniform customer, or a permutation
CLIMBS = {"improve": (improve, lambda gen, k: [gen.integers(0, k)]),
          "sweep_improve": (sweep_improve, lambda gen, k: gen.permutation(k))}


@pytest.mark.parametrize("ratio", ["0.3", "0.5", "0.7"])
@pytest.mark.parametrize("name", list(CLIMBS))
def test_climbs_match_brute_force_reference(name, ratio, monkeypatch):
    # NRP-1 has 100 customers, about half of them unselected, so passes run
    # well past sweep_improve's first block of priced rows
    climb, draw = CLIMBS[name]
    inst = generate(builtin_spec("NRP-1"), 1)
    bud = budget(inst, ratio)
    events = []
    add, drop = CoverTracker.add, CoverTracker.drop

    def record_add(self, index):
        events.append(("add", index + 1))
        add(self, index)

    def record_drop(self, index):
        events.append(("drop", index + 1))
        drop(self, index)

    swapped = []
    for seed in (1, 2, 3):
        gen, ref_gen = rng.substream(seed, 56), rng.substream(seed, 56)
        start = random_feasible(inst, bud, gen)
        assert random_feasible(inst, bud, ref_gen) == start
        events.clear()
        with monkeypatch.context() as m:
            m.setattr(CoverTracker, "add", record_add)
            m.setattr(CoverTracker, "drop", record_drop)
            out = climb(inst, bud, start, gen)
        assert events == _reference_sweep(inst, bud, start, ref_gen, draw)
        swapped.append(any(e[0] == "drop" for e in events))
        # same number of draws, the last (moveless) round included
        assert gen.random() == ref_gen.random()
        assert bf.check_solution(inst, out, bud) == []
    # every sweep swaps; improve, which can stop early, swaps in some climbs
    assert all(swapped) if name == "sweep_improve" else any(swapped)


def test_fhc_escapes_local_optimum_with_restarts(toy):
    for s in (3, 7, 21):
        assert fhc(toy, 10, FhcParams(restarts=100), seed=s).profit == 14


def test_fhc_single_restart_can_stick(toy):
    # seed 2's first random start climbs into the {1} basin
    sol = fhc(toy, 10, FhcParams(restarts=1), seed=2)
    assert sol.profit == 10 and sol.selected == {1}


def test_fhc_deterministic(toy):
    a = fhc(toy, 10, FhcParams(restarts=20), seed=5)
    b = fhc(toy, 10, FhcParams(restarts=20), seed=5)
    assert a == b


def test_fhc_more_restarts_never_worse():
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        one = fhc(inst, b, FhcParams(restarts=1), seed=seed)
        many = fhc(inst, b, FhcParams(restarts=30), seed=seed)
        assert many.profit >= one.profit
        assert bf.check_solution(inst, many, b) == []


def test_fhc_params_validation():
    with pytest.raises(ValueError):
        FhcParams(restarts=0)
