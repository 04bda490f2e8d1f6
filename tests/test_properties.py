"""Property tests over random small instances, degenerate ones included:
no customers, customers with empty requests, zero budget and ratio 1."""

from hypothesis import given, settings, strategies as st

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, FhcParams, GraspParams, SaParams,
                      evaluate, make_instance, marginal_cost, random_feasible,
                      read_instance, rng, solve_one, sweep_improve, write_instance)

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
        assert idx.tolist() == sorted(r - 1 for r in bf.brute_closure(inst, cust.requests))
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
            want = 0 if c in chosen else marginal_cost(inst, sol, c)
            assert cover.marginal_of(c - 1) == want
        fresh = CoverTracker(inst, chosen)
        assert fresh.cost == cover.cost
        assert (fresh.marginal == cover.marginal).all()
        incoming = sorted(set(range(1, inst.n_customers + 1)) - chosen)
        outgoing = sorted(chosen)
        # all rows at once, against the whole selection and against a strict
        # subset in reverse order (owners outside it must be dropped)
        for cols in (outgoing, outgoing[1::2][::-1]):
            costs = cover.swap_costs([j - 1 for j in incoming], [l - 1 for l in cols])
            assert costs.shape == (len(incoming), len(cols))
            for j, row in zip(incoming, costs):
                for l, cost in zip(cols, row):
                    assert cost == evaluate(inst, chosen - {l} | {j}).cost


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
@given(instances())
def test_write_read_round_trip(inst):
    assert read_instance(write_instance(inst)) == inst
