"""Property tests over random small instances, degenerate ones included:
no customers, customers with empty requests, zero budget and ratio 1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, FhcParams, GraspParams, SaParams,
                      closure, evaluate, make_instance, read_instance, rng, solve_one,
                      write_instance)
from nrpbench.aco import _roulette_select
from nrpbench.baselines import _top_k
from nrpbench.local_search import _may_swap, random_feasible, sweep_improve

# derandomized: the tier-1 suite gives the same verdict on every run
FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(0, 8))
    costs = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    pairs = [(p, q) for q in range(2, n + 1) for p in range(1, q)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    customers = draw(st.lists(
        st.tuples(st.integers(1, 30),
                  st.lists(st.integers(1, n), unique=True, max_size=3) if n else st.just([])),
        max_size=7))
    return make_instance(costs, edges, customers)


@st.composite
def instance_and_budget(draw):
    inst = draw(instances())
    total = inst.total_cost
    bud = draw(st.one_of(st.just(0), st.just(total), st.integers(0, total)))
    return inst, bud


@FAST
@given(instances(), st.lists(st.integers(0, 6), max_size=12))
def test_cover_tracker_agrees_with_evaluate(inst, toggles):
    # the tracker and evaluate read the same closure lists, so both are also
    # checked against the oracle, which reads only the raw requests and edges
    for cust, idx in zip(inst.customers, inst.closure_indices):
        want = bf.brute_closure(inst, cust.requests)
        assert idx.tolist() == sorted(r - 1 for r in want)
        assert closure(inst, cust.id) == frozenset(want)
    sol = evaluate(inst, ())
    assert (sol.covered, sol.cost, sol.profit) == (frozenset(), 0, 0)
    cover = CoverTracker(inst)
    assert cover.solution() == sol
    for t in toggles:
        if inst.n_customers == 0:
            break
        i = t % inst.n_customers
        (cover.drop if cover.selected[i] else cover.add)(i)
        chosen = {int(c) + 1 for c in cover.selected.nonzero()[0]}
        sol = evaluate(inst, chosen)
        assert (set(sol.covered), sol.cost, sol.profit) == bf.brute_eval(inst, chosen)
        assert cover.cost == sol.cost
        assert cover.solution() == sol
        for c in range(1, inst.n_customers + 1):
            want = 0
            if c not in chosen:
                want = bf.marginal_cost(inst, sol, c)
                assert want == evaluate(inst, chosen | {c}).cost - sol.cost
            assert cover.marginal[c - 1] == want
        fresh = CoverTracker(inst, chosen)
        assert fresh.cost == cover.cost
        assert (fresh.marginal == cover.marginal).all()
        incoming = sorted(set(range(1, inst.n_customers + 1)) - chosen)
        # all rows at once and a strict subset in reverse order, each against
        # every customer: a selected l is swapped out, an unselected one is
        # not in the selection, so its column is the cost of adding j alone
        for rows in (incoming, incoming[1::2][::-1]):
            costs = cover.swap_costs([j - 1 for j in rows])
            assert costs.shape == (len(rows), inst.n_customers)
            for j, row in zip(rows, costs):
                for l, cost in enumerate(row.tolist(), start=1):
                    assert cost == evaluate(inst, chosen - {l} | {j}).cost


@FAST
@given(instances(), st.lists(st.integers(0, 6), max_size=16), st.integers(0, 16))
def test_cover_tracker_flips_match_a_fresh_tracker(inst, toggles, priced_at):
    # adds and drops in any order; freed() is read before flip number
    # ``priced_at``, so every later flip also keeps the owner sums and freed
    cover = CoverTracker(inst)
    counts, marginal = cover.counts, cover.marginal
    for step, t in enumerate(toggles):
        if inst.n_customers == 0:
            break
        if step == priced_at:
            freed = cover.freed()
        i = t % inst.n_customers
        (cover.drop if cover.selected[i] else cover.add)(i)
        fresh = CoverTracker(inst, (cover.selected.nonzero()[0] + 1).tolist())
        # the flips write into the arrays the tracker was built with
        assert cover.counts is counts and cover.marginal is marginal
        assert (cover.selected == fresh.selected).all()
        assert (cover.counts == fresh.counts).all()
        assert (cover.marginal == fresh.marginal).all()
        assert type(cover.cost) is int and cover.cost == fresh.cost
        if step >= priced_at:
            # kept in the arrays pricing started with, equal to a fresh start's
            assert cover.freed() is freed
            assert (freed == fresh.freed()).all() and freed[-1] == 0
            assert (cover._owner_sum == fresh._owner_sum).all()


SOLVERS = (("haco", AcoParams(iterations=2, ants=2)),
           ("aco", AcoParams(iterations=2, ants=2, use_local_search=False)),
           ("fhc", FhcParams(restarts=3)), ("grasp", GraspParams(restarts=3)),
           ("sa", SaParams(lm_beta=5.0)), ("exact", None))


@FAST
@given(instance_and_budget(), st.integers(0, 2**16))
def test_every_solver_is_feasible_and_consistent(case, seed):
    inst, bud = case
    for algo, params in SOLVERS:
        sol, _ = solve_one(inst, bud, algo, seed, params)
        assert bf.check_solution(inst, sol, bud) == [], algo
        check = evaluate(inst, sol.selected)
        assert (check.profit, check.cost) == (sol.profit, sol.cost), algo


@FAST
@given(instance_and_budget(), st.integers(0, 2**16))
def test_sweep_improve_leaves_no_move(case, seed):
    inst, bud = case
    gen = rng.substream(seed, 55)
    start = random_feasible(inst, bud, gen)
    out = sweep_improve(inst, bud, start, gen)
    assert out.profit >= start.profit
    assert bf.check_solution(inst, out, bud) == []
    assert bf.has_improving_move(inst, out, bud) is None


@FAST
@given(instance_and_budget(), st.lists(st.integers(0, 6), max_size=12))
def test_swap_bound_drops_only_unmovable_customers(case, toggles):
    # a random feasible selection: each toggle drops a selected customer or
    # adds one that still fits; freed() is read first, so the owner sums it
    # builds are carried through every flip
    inst, bud = case
    profits = inst.profit_vector
    cover = CoverTracker(inst)
    cover.freed()
    for t in toggles:
        if inst.n_customers == 0:
            break
        i = t % inst.n_customers
        if cover.selected[i]:
            cover.drop(i)
        elif cover.cost + cover.marginal[i] <= bud:
            cover.add(i)
    chosen = {int(c) + 1 for c in cover.selected.nonzero()[0]}
    for l in range(1, inst.n_customers + 1):
        freed = cover.cost - evaluate(inst, chosen - {l}).cost if l in chosen else 0
        assert cover.freed()[l - 1] == freed
    rows = (~cover.selected).nonzero()[0]
    keep = _may_swap(inst, cover, bud, rows)
    for j, kept in zip(rows + 1, keep.tolist()):
        lower = [l for l in chosen if profits[l - 1] < profits[j - 1]]
        if not kept:
            for l in lower:
                assert evaluate(inst, chosen - {l} | {j}).cost > bud, (j, l)
        # a row that does not fit is kept exactly when the bound holds for
        # some less profitable selected l (rows that fit are not bounded)
        excess = evaluate(inst, chosen | {j}).cost - bud
        if excess > 0:
            want = any(cover.cost - evaluate(inst, chosen - {l}).cost >= excess for l in lower)
            assert kept == want, j


@FAST
@given(instances())
def test_write_read_round_trip(inst):
    assert read_instance(write_instance(inst)) == inst


# -- the choice rules against the formulas they replace ----------------------


@st.composite
def candidate_steps(draw):
    """A list length and the GRASP keys of a candidate list over a run of steps:
    between steps entries leave and the keys left fall or rise, with frequent ties."""
    rcl = draw(st.integers(1, 12))
    size = draw(st.integers(1, 3 * rcl + 6))
    ratio = st.tuples(st.sampled_from([1, 2, 3, 6]), st.sampled_from([0, 1, 2, 3, 4]))
    pairs = [draw(ratio)] * size if draw(st.booleans()) else draw(
        st.lists(ratio, min_size=size, max_size=size))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        steps.append(np.array([-(w / max(1.0, m)) for w, m in pairs]))
        leave = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=len(pairs) - 1))
        # a marginal that falls raises the score, so the key falls; one that rises lifts it
        moves = draw(st.lists(st.sampled_from([0, 0, -1, 1, 2]), min_size=len(pairs),
                              max_size=len(pairs)))
        pairs = [(w, max(0, m + d)) for i, ((w, m), d) in enumerate(zip(pairs, moves))
                 if i not in leave]
    return rcl, steps


@FAST
@given(candidate_steps())
def test_top_k_is_the_head_of_a_full_sort(case):
    # the threshold each call returns is passed to the next, as a GRASP fill does
    rcl, steps = case
    thr = -np.inf
    for key in steps:
        top, thr = _top_k(key, rcl, thr)
        assert top.tolist() == np.lexsort((np.arange(key.size), key))[:rcl].tolist()


def _positive_roulette(p, r):
    """The roulette as first written: a running sum over the positive entries only."""
    positive = (p > 0).nonzero()[0]
    if positive.size == 0:
        raise ValueError("no positive-probability candidate")
    cum = p[positive].cumsum()
    k = int(cum.searchsorted(r, side="left"))
    if k >= positive.size:
        k = positive.size - 1
    return int(positive[k]) + 1


@st.composite
def weight_vectors(draw):
    """Weights with leading, interior and trailing zeros; normalised or raw."""
    zeros = st.integers(0, 3).map(lambda n: [0.0] * n)
    body = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), max_size=20))
    w = np.array(draw(zeros) + body + draw(zeros), dtype=np.float64)
    if w.size == 0:
        w = np.zeros(1)
    if draw(st.booleans()) and w.sum() > 0:
        w = w / w.sum()
    return w


@FAST
@given(weight_vectors(), st.lists(st.floats(0.0, 1.0), max_size=5))
def test_roulette_matches_the_positive_filter(p, uniforms):
    if not (p > 0).any():
        for r in (0.0, 0.5):
            with pytest.raises(ValueError):
                _roulette_select(p, r)
        return
    cums = p.cumsum().tolist()
    total = cums[-1]
    rs = [0.0, total * (1 + 1e-12), *cums, *(u * total for u in uniforms),
          *(np.nextafter(c, 0.0) for c in cums), *(np.nextafter(c, 2.0 * total) for c in cums)]
    for r in rs:
        assert _roulette_select(p, r) == _positive_roulette(p, r), (p.tolist(), r)
