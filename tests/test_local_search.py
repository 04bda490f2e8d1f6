import numpy as np
import pytest

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, FhcParams, Solution, budget, builtin_spec,
                      evaluate, generate, make_instance, rng, solve_one)
from nrpbench import local_search
from nrpbench.aco import construct_solution, heuristic_info, init_pheromone
from nrpbench.baselines import grasp_construct
from nrpbench.local_search import (InfeasibleStartError, fhc, improve, random_feasible,
                                   sweep_improve)


def test_random_feasible_boundaries(toy):
    assert random_feasible(toy, 0, rng.substream(1, 50)).solution().selected == frozenset()
    assert random_feasible(toy, 14, rng.substream(1, 50)).solution().selected == {1, 2, 3}


def test_random_feasible_excludes_unaffordable(toy):
    # at budget 7 customer 1 (closure cost 8) can never enter; 2 and 3
    # always both fit, so the greedy fill lands on {2, 3} every time
    for s in range(20):
        sol = random_feasible(toy, 7, rng.substream(s, 50)).solution()
        assert sol.selected == {2, 3}
        assert sol.cost <= 7


def test_random_feasible_decides_on_the_exact_add_cost():
    # requirement 1 costs 5 and requirement 2 costs 1; customer 1 needs 1,
    # customer 2 needs 1 and 2.  Whichever comes first fills 5 or 6 of the
    # budget of 6, and the other's stale marginal (its closure cost, 6 or
    # 5) no longer fits, while its exact add cost (1 or 0) does
    inst = make_instance([5, 1], [], [(3, [1]), (4, [1, 2])])
    firsts = set()
    for s in range(20):
        gen = rng.substream(s, 50)
        firsts.add(int(rng.substream(s, 50).permutation(2)[0]))
        cover = random_feasible(inst, 6, gen)
        assert cover.solution().selected == {1, 2} and cover.cost == 6
        assert cover.marginal.tolist() == [0.0, 0.0]
    assert firsts == {0, 1}


def test_random_feasible_is_feasible_on_randoms():
    for seed in range(1, 31):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.4)
        sol = random_feasible(inst, b, rng.substream(seed, 51)).solution()
        assert bf.check_solution(inst, sol, b) == []


def test_improve_rejects_infeasible_start(toy):
    # the second start states a cost of 0: its tracker, which the climbs
    # check, holds the selection's real cost, 14, not the stated one
    for start in (evaluate(toy, [1, 2, 3]), Solution(frozenset({1, 2, 3}), frozenset(), 0, 24)):
        for climb in (improve, sweep_improve):
            with pytest.raises(InfeasibleStartError):
                climb(toy, 10, CoverTracker(toy, start.selected), rng.substream(1, 52))


def test_improve_two_basins_from_singleton(toy):
    # from {2} at budget 10 there are two climbs: add 3 (reaching the
    # optimum {2,3}) or swap 1 in for 2 (sticking at the local optimum
    # {1}); which one happens depends on the first sampled customer
    start = CoverTracker(toy, [2])
    up = improve(toy, 10, start, rng.substream(0, 99)).solution()
    assert up.selected == {2, 3} and up.profit == 14
    across = improve(toy, 10, start, rng.substream(1, 99)).solution()
    assert across.selected == {1} and across.profit == 10


def test_improve_keeps_local_optimum_fixed(toy):
    # {1} admits no feasible add and no improving swap at budget 10
    start = CoverTracker(toy, [1])
    for s in range(5):
        assert improve(toy, 10, start, rng.substream(s, 99)).solution().selected == {1}
        assert sweep_improve(toy, 10, start, rng.substream(s, 99)).solution().selected == {1}


def test_improve_keeps_global_optimum_fixed(toy):
    start = CoverTracker(toy, [2, 3])
    for s in range(5):
        assert improve(toy, 10, start, rng.substream(s, 99)).solution().selected == {2, 3}


def test_improve_never_lowers_profit():
    for seed in range(1, 31):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        gen = rng.substream(seed, 53)
        start = random_feasible(inst, b, gen)
        out = improve(inst, b, start, gen).solution()
        assert out.profit >= start.profit
        assert bf.check_solution(inst, out, b) == []


def test_sweep_improve_reaches_certified_local_optimum(toy):
    start = CoverTracker(toy, [2])
    for s in range(8):
        sol = sweep_improve(toy, 10, start, rng.substream(s, 99)).solution()
        assert sol.selected in ({2, 3}, {1})
        assert bf.has_improving_move(toy, sol, 10) is None


def test_sweep_improve_certificate_on_randoms():
    for seed in range(1, 41):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        gen = rng.substream(seed, 54)
        start = random_feasible(inst, b, gen)
        out = sweep_improve(inst, b, start, gen).solution()
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
    # NRP-1 has 100 customers, about half of them unselected, so passes try
    # many rows before they find a move
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
        assert random_feasible(inst, bud, ref_gen).solution() == start.solution()
        events.clear()
        with monkeypatch.context() as m:
            m.setattr(CoverTracker, "add", record_add)
            m.setattr(CoverTracker, "drop", record_drop)
            out = climb(inst, bud, start, gen)
        assert events == _reference_sweep(inst, bud, start.solution(), ref_gen, draw)
        swapped.append(any(e[0] == "drop" for e in events))
        # same number of draws, the last (moveless) round included
        assert gen.random() == ref_gen.random()
        assert bf.check_solution(inst, out.solution(), bud) == []
    # every sweep swaps; improve, which can stop early, swaps in some climbs
    assert all(swapped) if name == "sweep_improve" else any(swapped)


def _closure_entries(inst, rows):
    """(position in ``rows``, 0-based requirement) of every closure entry of customers ``rows``."""
    pairs = [(k, r) for k, i in enumerate(rows) for r in inst.closure_indices[i].tolist()]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def _gathered_swap_costs(inst, cover, incoming, outgoing):
    """Swap pricing with owners gathered from the closure entries of ``outgoing``."""
    n_out = len(outgoing)
    col, req = _closure_entries(inst, outgoing)
    owner = np.full(inst.n_requirements, n_out, dtype=np.intp)
    owner[req] = col
    owner[cover.counts != 1] = n_out
    cost_f = inst.cost_vector.astype(np.float64)
    freed = np.bincount(owner, weights=cost_f, minlength=n_out + 1)[:n_out]
    row, req = _closure_entries(inst, incoming)
    n_in = len(incoming)
    kept = np.bincount(row * (n_out + 1) + owner[req], weights=cost_f[req],
                       minlength=n_in * (n_out + 1)).reshape(n_in, n_out + 1)
    return kept[:, :n_out] - freed + (cover.cost + cover.marginal[incoming])[:, None]


def _unfiltered_first_move(inst, cover, bud, order):
    """The pass without the row bound: every row ahead of the first add may be priced."""
    profits = inst.profit_vector
    add_ok = (cover.cost + cover.marginal[order] <= bud).nonzero()[0]
    end = int(add_ok[0]) if add_ok.size else order.size
    if end:
        sel_idx = cover.selected.nonzero()[0]
        lo, size = 0, 8
        while lo < end:
            block = order[lo:min(lo + size, end)]
            ok = ((_gathered_swap_costs(inst, cover, block, sel_idx) <= bud)
                  & (profits[sel_idx] < profits[block][:, None]))
            movable = ok.any(axis=1).nonzero()[0]
            if movable.size:
                row = int(movable[0])
                out = sel_idx[ok[row]]
                return int(block[row]), int(out[np.argmin(profits[out])])
            lo, size = lo + size, 2 * size
    return (int(order[end]), None) if end < order.size else None


def _unfiltered_sweep(inst, bud, start, gen):
    """sweep_improve's passes through :func:`_unfiltered_first_move`; returns each pass's move."""
    cover = CoverTracker(inst, start.selected)
    moves = []
    while True:
        out_idx = (~cover.selected).nonzero()[0]
        if out_idx.size == 0:
            return moves
        moves.append(_unfiltered_first_move(inst, cover, bud,
                                            out_idx[gen.permutation(out_idx.size)]))
        if moves[-1] is None:
            return moves
        j, l = moves[-1]
        cover.add(j)
        if l is not None:
            cover.drop(l)


@pytest.mark.parametrize("ratio", ["0.3", "0.5", "0.7"])
@pytest.mark.parametrize("family", ["NRP-2", "NRP-3"])
def test_sweep_matches_unfiltered_pricing(family, ratio, monkeypatch):
    # the row bound and the owner sums change which rows are priced and how,
    # never a move: from ant starts, as HACO climbs, every pass agrees
    inst = generate(builtin_spec(family), 1)
    bud = budget(inst, ratio)
    state, eta = init_pheromone(inst), heuristic_info(inst)
    first_move = local_search._first_move
    moves = []

    def record(*args):
        moves.append(first_move(*args))
        return moves[-1]

    monkeypatch.setattr(local_search, "_first_move", record)
    swaps = 0
    for k in (1, 2):
        gen, ref_gen = rng.substream(1, rng.ANT, 1, k), rng.substream(1, rng.ANT, 1, k)
        start = construct_solution(inst, bud, state, eta, AcoParams(), gen)
        ref = construct_solution(inst, bud, state, eta, AcoParams(), ref_gen)
        assert ref.solution() == start.solution()
        moves.clear()
        out = sweep_improve(inst, bud, start, gen)
        assert moves == _unfiltered_sweep(inst, bud, start.solution(), ref_gen)
        assert gen.random() == ref_gen.random()
        assert bf.check_solution(inst, out.solution(), bud) == []
        swaps += sum(m is not None and m[1] is not None for m in moves)
    assert swaps


def test_sweep_prices_few_rows(monkeypatch):
    # the haco-sweep benchmark cells at solver seed 1: of the 274144 rows the
    # passes order, exactly 812 have their closures walked.  799 passes end in
    # a swap, so only 13 walked rows have no move; a bound that prunes
    # differently fails here
    kept, first_move = CoverTracker.kept, local_search._first_move
    walked, ordered, swaps = [0], [0], [0]

    def count_walked(self, index):
        walked[0] += 1
        return kept(self, index)

    def count_ordered(instance, cover, bud, order):
        ordered[0] += order.size
        move = first_move(instance, cover, bud, order)
        swaps[0] += move is not None and move[1] is not None
        return move

    monkeypatch.setattr(CoverTracker, "kept", count_walked)
    monkeypatch.setattr(local_search, "_first_move", count_ordered)
    params = AcoParams(ants=2, iterations=2, use_local_search=True)
    for family in ("NRP-2", "NRP-3"):
        inst = generate(builtin_spec(family), 1)
        for ratio in ("0.3", "0.5", "0.7"):
            solve_one(inst, budget(inst, ratio), "haco", 1, params)
    assert (walked[0], swaps[0], ordered[0]) == (812, 799, 274144)


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


@pytest.mark.parametrize("solver", ["fhc", "grasp"])
def test_restarts_keep_the_earliest_of_tied_results(solver):
    # any one customer fills the budget, all at one profit, and no climb moves
    inst = make_instance([1, 1, 1], [], [(5, [1]), (5, [2]), (5, [3])])
    firsts = set()
    for seed in range(1, 11):
        if solver == "fhc":
            first = random_feasible(inst, 1, rng.substream(seed, rng.FHC_RESTART, 1))
        else:
            first = grasp_construct(inst, 1, 10, rng.substream(seed, rng.GRASP_RESTART, 1))
        first = first.solution()
        assert solve_one(inst, 1, solver, seed)[0] == first
        firsts.add(first.selected)
    assert len(firsts) == 3


def test_fhc_params_validation():
    with pytest.raises(ValueError):
        FhcParams(restarts=0)
