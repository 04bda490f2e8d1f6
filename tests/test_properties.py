"""Property tests over random small instances, degenerate ones included:
no customers, customers with empty requests, zero budget and ratio 1."""

import numpy as np
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, FhcParams, GraspParams, SaParams,
                      closure, evaluate, make_instance, read_instance, rng, solve_one,
                      write_instance)
from nrpbench.aco import _roulette
from nrpbench.baselines import _top_k
from nrpbench.local_search import _first_move, improve, random_feasible, sweep_improve

# derandomized: the tier-1 suite gives the same verdict on every run
FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(0, 8))
    costs = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    # acyclic over a random relabelling of 1..n, so an edge may run from a
    # higher id to a lower one; a customer may request an id twice
    label = draw(st.permutations(range(1, n + 1)))
    pairs = [(label[a], label[b]) for b in range(1, n) for a in range(b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    customers = draw(st.lists(
        st.tuples(st.integers(1, 30),
                  st.lists(st.integers(1, n), max_size=3) if n else st.just([])),
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
    for r, needers in enumerate(inst._needed_by):
        assert needers == [i for i, idx in enumerate(inst.closure_indices) if r in idx]
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
        # kept prices every swap: dropping a selected l (0 for any other, whose
        # drop changes nothing) and adding an unselected j
        for j in sorted(set(range(1, inst.n_customers + 1)) - chosen):
            kept = cover.kept(j - 1)
            assert set(kept) <= {c - 1 for c in chosen}
            add = cover.cost + cover.marginal[j - 1]
            for l in range(1, inst.n_customers + 1):
                cost = add - cover.freed()[l - 1] + kept.get(l - 1, 0)
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


def _state(cover):
    """A tracker's arrays, each with a copy of its contents, and its cost."""
    arrays = (cover.selected, cover.counts, cover.marginal, cover._freed, cover._owner_sum)
    return [(a, None if a is None else a.copy()) for a in arrays], cover.cost


def _assert_state(cover, state):
    """``cover`` holds the arrays of ``state``, with the same contents, and its cost."""
    arrays, cost = state
    held = (cover.selected, cover.counts, cover.marginal, cover._freed, cover._owner_sum)
    for now, (array, contents) in zip(held, arrays):
        assert now is array
        assert contents is None or np.array_equal(now, contents)
    assert cover.cost == cost


def _toggle(cover, t):
    i = t % cover.selected.size
    (cover.drop if cover.selected[i] else cover.add)(i)


@FAST
@given(instances(), st.lists(st.integers(0, 6), max_size=12),
       st.lists(st.integers(0, 6), max_size=12), st.booleans(), st.integers(0, 12))
def test_cover_tracker_copy_flips_alone(inst, toggles, twin_toggles, priced, twin_priced_at):
    # copied at any point, priced or not; the copy flips, and prices before
    # flip number ``twin_priced_at``: the original keeps every array as it
    # was, and the copy equals a fresh tracker of its own selection
    if inst.n_customers == 0:
        return
    cover = CoverTracker(inst)
    for t in toggles:
        _toggle(cover, t)
    if priced:
        cover.freed()
    before = _state(cover)
    twin = cover.copy()
    assert twin._freed is None and twin._owner_sum is None
    for step, t in enumerate(twin_toggles):
        if step == twin_priced_at:
            twin.freed()
        _toggle(twin, t)
    _assert_state(cover, before)
    fresh = CoverTracker(inst, (twin.selected.nonzero()[0] + 1).tolist())
    for got, want in ((twin.selected, fresh.selected), (twin.counts, fresh.counts),
                      (twin.marginal, fresh.marginal)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (twin.cost, twin.profit) == (fresh.cost, fresh.profit)
    assert (twin.freed() == fresh.freed()).all()
    assert (twin._owner_sum == fresh._owner_sum).all()


@FAST
@given(instance_and_budget(), st.integers(0, 2**16), st.booleans())
def test_climbs_leave_their_start_as_it_was(case, seed, priced):
    # each climb flips a copy of its start and returns it
    inst, bud = case
    start = random_feasible(inst, bud, rng.substream(seed, 57))
    if priced:
        start.freed()
    before = _state(start)
    for climb in (improve, sweep_improve):
        out = climb(inst, bud, start, rng.substream(seed, 58))
        assert out is not start
        _assert_state(start, before)
        assert out.profit >= start.profit


SOLVERS =(("haco", AcoParams(iterations=2, ants=2)),
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
    out = sweep_improve(inst, bud, start, gen).solution()
    assert out.profit >= start.profit
    assert bf.check_solution(inst, out, bud) == []
    assert bf.has_improving_move(inst, out, bud) is None


class _WalkCounter(CoverTracker):
    """A tracker that records whose closure :meth:`CoverTracker.kept` walks."""

    def __init__(self, instance, start=()):
        super().__init__(instance, start)
        self.walked = []

    def kept(self, index):
        self.walked.append(index)
        return super().kept(index)


def _feasible_cover(inst, bud, toggles):
    """A random feasible selection: each toggle drops a selected customer or
    adds one that still fits; freed() is read first, so the owner sums it
    builds are carried through every flip."""
    cover = _WalkCounter(inst)
    cover.freed()
    for t in toggles:
        if inst.n_customers == 0:
            break
        i = t % inst.n_customers
        if cover.selected[i]:
            cover.drop(i)
        elif cover.cost + cover.marginal[i] <= bud:
            cover.add(i)
    return cover


@st.composite
def swap_states(draw):
    """A feasible selection on a budget it nearly fills, over customers of
    distinct or pairwise tied profits: a state where swaps are common."""
    n = draw(st.integers(3, 8))
    costs = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    pairs = [(a, b) for b in range(2, n + 1) for a in range(1, b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    requests = draw(st.lists(st.lists(st.integers(1, n), min_size=1, max_size=3),
                             min_size=3, max_size=8))
    ranks = draw(st.permutations(range(2, len(requests) + 2)))
    tie = draw(st.sampled_from([1, 2]))
    inst = make_instance(costs, edges, [(r // tie, q) for r, q in zip(ranks, requests)])
    flags = draw(st.lists(st.booleans(), min_size=len(requests), max_size=len(requests)))
    cover = _WalkCounter(inst, [i + 1 for i, f in enumerate(flags) if f])
    return inst, cover.cost + draw(st.integers(0, 2)), cover


def _check_swap_bound(inst, bud, cover):
    # a one-row order walks its row's closure exactly when the bound keeps it
    profits = inst.profit_vector
    chosen = {int(c) + 1 for c in cover.selected.nonzero()[0]}
    for l in range(1, inst.n_customers + 1):
        freed = cover.cost - evaluate(inst, chosen - {l}).cost if l in chosen else 0
        assert cover.freed()[l - 1] == freed
    for j in (~cover.selected).nonzero()[0] + 1:
        excess = evaluate(inst, chosen | {j}).cost - bud
        if excess <= 0:  # an add: rows that fit are not bounded
            continue
        cover.walked.clear()
        _first_move(inst, cover, bud, np.array([j - 1]))
        kept = cover.walked == [j - 1]
        assert kept or cover.walked == []
        lower = [l for l in chosen if profits[l - 1] < profits[j - 1]]
        if not kept:
            for l in lower:
                assert evaluate(inst, chosen - {l} | {j}).cost > bud, (j, l)
        # kept exactly when the bound holds for some less profitable selected l
        want = any(cover.cost - evaluate(inst, chosen - {l}).cost >= excess for l in lower)
        assert kept == want, j


@FAST
@given(instance_and_budget(), st.lists(st.integers(0, 6), max_size=12))
def test_swap_bound_drops_only_unmovable_customers(case, toggles):
    inst, bud = case
    _check_swap_bound(inst, bud, _feasible_cover(inst, bud, toggles))


@settings(FAST, max_examples=400)
@given(swap_states())
def test_swap_bound_on_swap_states(case):
    # instance_and_budget() seldom gives a row a move; on these nearly full
    # budgets a row's excess often equals a partner's freed cost exactly
    _check_swap_bound(*case)


@settings(FAST, max_examples=400)
@given(swap_states())
def test_first_move_finds_the_best_swap(case):
    # for a row that does not fit, the lookup's partner is the least profitable
    # (then smallest-id) selected customer of lower profit whose swap fits
    inst, bud, cover = case
    profits = inst.profit_vector
    chosen = {int(c) + 1 for c in cover.selected.nonzero()[0]}
    for j in (~cover.selected).nonzero()[0] + 1:
        if evaluate(inst, chosen | {j}).cost <= bud:
            continue
        fits = [l for l in sorted(chosen) if profits[l - 1] < profits[j - 1]
                and evaluate(inst, chosen - {l} | {j}).cost <= bud]
        want = (j - 1, min(fits, key=lambda l: profits[l - 1]) - 1) if fits else None
        assert _first_move(inst, cover, bud, np.array([j - 1])) == want, j


def test_first_move_scans_past_a_partner_the_incomer_re_covers():
    # customers 1-3 (profits 1, 2, 3) each alone cover one requirement of
    # cost 5; 4 and 5 need the first two of them and one uncovered one.  At
    # budget 15 each incomer exceeds it by 5, which customer 1 frees first,
    # but 4 and 5 re-cover what 1 and 2 free: 4 (profit 10) swaps out 3, and
    # 5 (profit 3) has no partner of lower profit left
    inst = make_instance([5] * 5, [], [(1, [1]), (2, [2]), (3, [3]), (10, [1, 2, 4]),
                                       (3, [1, 2, 5])])
    cover = CoverTracker(inst, [1, 2, 3])
    bud = 15
    assert cover.cost + cover.marginal[3] - bud == cover.freed()[0] == 5
    assert evaluate(inst, [2, 3, 4]).cost > bud and evaluate(inst, [1, 3, 4]).cost > bud
    assert _first_move(inst, cover, bud, np.array([3])) == (3, 2)
    assert _first_move(inst, cover, bud, np.array([4])) is None
    assert _first_move(inst, cover, bud, np.array([4, 3])) == (3, 2)


@FAST
@given(instances())
def test_write_read_round_trip(inst):
    assert read_instance(write_instance(inst)) == inst


# -- the choice rules against the formulas they replace ----------------------


@st.composite
def candidate_steps(draw):
    """A list length and the GRASP keys of all customers over a run of steps:
    between steps candidates leave, keying +inf from then on as the fill has
    them, and the keys left fall or rise, with frequent ties."""
    rcl = draw(st.integers(1, 12))
    size = draw(st.integers(1, 3 * rcl + 6))
    ratio = st.tuples(st.sampled_from([1, 2, 3, 6]), st.sampled_from([0, 1, 2, 3, 4]))
    pairs = [draw(ratio)] * size if draw(st.booleans()) else draw(
        st.lists(ratio, min_size=size, max_size=size))
    live = list(range(size))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        key = np.full(size, np.inf)
        key[live] = [-(w / max(1.0, m)) for w, m in (pairs[i] for i in live)]
        steps.append(key)
        leave = draw(st.sets(st.sampled_from(live), max_size=len(live) - 1))
        # a marginal that falls raises the score, so the key falls; one that rises lifts it
        moves = draw(st.lists(st.sampled_from([0, 0, -1, 1, 2]), min_size=size, max_size=size))
        pairs = [(w, max(0, m + d)) for (w, m), d in zip(pairs, moves)]
        live = [i for i in live if i not in leave]
    return rcl, steps


@FAST
@given(candidate_steps())
def test_top_k_is_the_head_of_a_full_sort(case):
    # the threshold each call returns is passed to the next, as a GRASP fill does
    rcl, steps = case
    thr = -np.inf
    for key in steps:
        n = int(np.isfinite(key).sum())
        top, thr = _top_k(key, rcl, thr, n)
        assert top.tolist() == np.lexsort((np.arange(key.size), key))[:min(rcl, n)].tolist()


def _positive_roulette(p, r):
    """The roulette as first written: a running sum over the positive entries
    only, searched for r scaled by the same total."""
    positive = (p > 0).nonzero()[0]
    cum = p[positive].cumsum()
    k = int(cum.searchsorted(r * p.cumsum()[-1], side="left"))
    if k >= positive.size:
        k = positive.size - 1
    return int(positive[k])


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


def _spread(p, gaps):
    """``p`` as the candidates' weights among all customers: ``gaps[i]`` (cycled)
    dead 0.0 entries before candidate i, and ``gaps[0]`` after the last;
    returns the weights, the candidate mask and the candidates' ids."""
    free = []
    for i in range(p.size):
        free += [False] * (gaps[i % len(gaps)] if gaps else 0) + [True]
    free = np.array(free + [False] * (gaps[0] if gaps else 0))
    weights = np.zeros(free.size)
    weights[free] = p
    return weights, free, free.nonzero()[0]


@FAST
@given(weight_vectors(), st.lists(st.floats(0.0, 1.0), max_size=5),
       st.lists(st.integers(0, 2), max_size=4))
def test_roulette_matches_the_positive_filter(p, uniforms, gaps):
    # the draw over all customers picks the candidate the running sum over
    # the candidates alone picks
    weights, free, cand = _spread(p, gaps)
    pick = _roulette(weights)
    if not (p > 0).any():  # no weight at all: every candidate weighs the same
        for u in (0.0, 0.5, 0.999, 1.0):
            assert pick(u, free) == cand[min(int(u * p.size), p.size - 1)]
        return
    cums = p.cumsum()
    cuts = (cums / cums[-1]).tolist()
    us = [0.0, 1.0, 1.0 + 1e-12, *cuts, *uniforms,
          *(np.nextafter(c, 0.0) for c in cuts), *(np.nextafter(c, 2.0) for c in cuts)]
    for u in us:
        assert pick(u, free) == cand[_positive_roulette(p, u)], \
            (p.tolist(), gaps, u)
