import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, InvalidInstanceError, aco, baselines, budget,
                      builtin_spec, closure, evaluate, generate, make_instance, model, rng)
from nrpbench.aco import construct_solution, heuristic_info, init_pheromone
from nrpbench.baselines import grasp_construct
from nrpbench.fileformat import write_instance
from nrpbench.model import Customer, Requirement


def _refusal(*parts):
    """The error ``make_instance(*parts)`` raises."""
    with pytest.raises(InvalidInstanceError) as err:
        make_instance(*parts)
    return err.value


def test_validate_ok(toy):
    # building is validating: a well-formed instance is built with its closures
    assert toy.total_cost == 14
    assert [c.tolist() for c in toy.closure_indices] == [[0, 1], [2], [2, 3]]


def test_validate_cycle():
    issues = _refusal([1, 1], [(1, 2), (2, 1)], [(5, [1])]).issues
    assert [i.kind for i in issues] == ["cyclic-dependency"]
    # the reported cycle names both nodes
    assert "1" in str(issues[0]) and "2" in str(issues[0])


def test_validate_bad_ids():
    assert [i.kind for i in _refusal([1, 1, 1, 1], [], [(5, [99])]).issues] == ["bad-id"]
    assert [i.kind for i in _refusal([1, 1], [(1, 7)], [(5, [1])]).issues] == ["bad-id"]


def test_validate_non_positive_values():
    assert [i.kind for i in _refusal([0, 1], [], [(5, [1])]).issues] == ["non-positive-value"]
    assert [i.kind for i in _refusal([1, 1], [], [(0, [1])]).issues] == ["non-positive-value"]


def test_invalid_instance_lists_every_issue():
    err = _refusal([0, 1], [(1, 2), (2, 1)], [(-3, [2]), (4, [5])])
    assert [str(i) for i in err.issues] == [
        "non-positive-value: requirement 1 has cost 0",
        "non-positive-value: customer 1 has profit -3",
        "bad-id: customer 2 requests requirement 5",
        "cyclic-dependency: dependency cycle 1 -> 2 -> 1",
    ]
    assert str(err) == "instance failed validation: " + "; ".join(map(str, err.issues))


def test_validate_self_loop_and_ids_without_requirements():
    issues = _refusal([1, 1, 1], [(2, 2)], [(5, [1])]).issues
    assert [str(i) for i in issues] == ["cyclic-dependency: dependency cycle 2 -> 2"]
    assert [str(i) for i in _refusal([], [], [(5, [1])]).issues] == [
        "bad-id: customer 1 requests requirement 1"]


def test_totals_of_2_pow_53_or_more_are_refused():
    # at budget 2**53 this instance made haco and sa return infeasible selections,
    # fhc and grasp raise InfeasibleStartError and exact report a HiGHS model
    # error: float64 marginals no longer hold its costs exactly
    err = _refusal([2**53 + 1, 1], [], [(5, [1]), (1, [2])])
    assert [str(i) for i in err.issues] == [
        "total-too-large: total cost 9007199254740994 is 2**53 or more"]
    err = _refusal([1, 0], [], [(2**52, [1]), (2**52, [])])
    assert [str(i) for i in err.issues] == [
        "non-positive-value: requirement 2 has cost 0",
        "total-too-large: total profit 9007199254740992 is 2**53 or more"]
    # one below the bound is an instance, its sums exact
    inst = make_instance([2**53 - 2, 1], [], [(2**53 - 2, [1]), (1, [1, 2])])
    assert inst.total_cost == 2**53 - 1
    assert inst.closure_cost_vector.tolist() == [2**53 - 2, 2**53 - 1]


def test_kahn_runs_once_per_build(monkeypatch):
    calls = []
    kahn = model._kahn
    monkeypatch.setattr(model, "_kahn", lambda *a: calls.append(a) or kahn(*a))
    make_instance([1, 1], [(1, 2)], [(5, [2])])
    _refusal([1, 1], [(1, 2), (2, 1)], [(5, [2])])  # the same sort finds and words the cycle
    assert len(calls) == 2
    # a bad edge end leaves the graph unread: no cycle is sought
    assert [i.kind for i in _refusal([1], [(1, 1), (1, 2)], []).issues] == ["bad-id"]
    assert len(calls) == 2


@st.composite
def raw_parts(draw):
    """Raw parts of an instance: self-loops and cycles of any length among
    the edges and, in half the cases, ids out of range, values below 1 and
    totals of 2**53 or more."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        value = st.integers(1, 9) | st.integers(-2, 0) | st.just(2**52)
        ident = st.integers(1, max(n, 1)) | st.integers(-1, n + 2)
    else:
        value, ident = st.integers(1, 9), st.integers(1, max(n, 1))
    costs = draw(st.lists(value, min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(ident, ident), max_size=8))
    customers = draw(st.lists(st.tuples(value, st.lists(ident, max_size=3)), max_size=4))
    return costs, edges, customers


def _issue_kinds(costs, edges, customers):
    """The kinds of issue in the raw parts, in the order the check reports them."""
    n = len(costs)
    kinds = []
    for value in costs + [w for w, _reqs in customers]:
        if value < 1:
            kinds.append("non-positive-value")
    for total in (sum(costs), sum(w for w, _reqs in customers)):
        if total >= 2**53:
            kinds.append("total-too-large")
    edge_ids_ok = True
    for edge in edges:
        for e in edge:
            if not 1 <= e <= n:
                kinds.append("bad-id")
                edge_ids_ok = False
    for _w, reqs in customers:
        for r in reqs:
            if not 1 <= r <= n:
                kinds.append("bad-id")
    if edge_ids_ok:
        graph = nx.DiGraph(edges)
        graph.add_nodes_from(range(1, n + 1))
        if not nx.is_directed_acyclic_graph(graph):
            kinds.append("cyclic-dependency")
    return kinds


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw_parts())
def test_check_agrees_with_an_oracle(parts):
    costs, edges, customers = parts
    want = _issue_kinds(costs, edges, customers)
    if not want:
        make_instance(costs, edges, customers)
        return
    issues = _refusal(costs, edges, customers).issues
    assert [i.kind for i in issues] == want
    if want[-1] == "cyclic-dependency":
        # the cycle reported runs along edges back to where it starts
        path = [int(v) for v in issues[-1].message.removeprefix("dependency cycle ").split(" -> ")]
        assert path[0] == path[-1] and set(zip(path, path[1:])) <= set(edges)


def test_closure_of_a_long_chain():
    # 5000 levels: an ancestor walk that recursed would pass Python's recursion
    # limit, and one that kept every requested id's ancestor set would hold
    # about n**2 / 14 ids for the third customer's requests alone
    n = 5000
    customers = [(3, [n]), (4, [n - 1]), (2, range(1, n, 7))]
    tracemalloc.start()
    try:
        inst = make_instance([1] * n, [(i, i + 1) for i in range(1, n)], customers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert [idx.tolist() for idx in inst.closure_indices] == [
        list(range(n)), list(range(n - 1)), list(range(n - 1))]
    assert inst._needed_by == tuple([0, 1, 2] for _ in range(n - 1)) + ([0],)


def test_closure_basics(toy):
    assert closure(toy, 1) == {1, 2}
    assert closure(toy, 2) == {3}
    assert closure(toy, 3) == {3, 4}


def test_closure_transitive_chain():
    inst = make_instance([1, 1, 1], [(1, 2), (2, 3)], [(5, [3])])
    assert closure(inst, 1) == {1, 2, 3}


def test_closure_idempotent(toy):
    # requesting an already-closed set adds nothing
    inst = make_instance([5, 3, 4, 2], [(1, 2), (3, 4)], [(10, [1, 2])])
    assert closure(inst, 1) == {1, 2}


def test_evaluate_empty(toy):
    sol = evaluate(toy, [])
    assert (sol.cost, sol.profit) == (0, 0)
    assert sol.selected == frozenset() and sol.covered == frozenset()


def test_evaluate_union(toy):
    sol = evaluate(toy, [2, 3])
    assert sol.covered == {3, 4}
    assert sol.cost == 6  # requirement 3 shared, counted once
    assert sol.profit == 14
    full = evaluate(toy, [1, 2, 3])
    assert full.covered == {1, 2, 3, 4}
    assert (full.cost, full.profit) == (14, 24)


def test_evaluate_duplicates_and_order(toy):
    a = evaluate(toy, [3, 2, 2])
    b = evaluate(toy, [2, 3])
    assert a == b


def test_evaluate_bad_id(toy):
    with pytest.raises(ValueError):
        evaluate(toy, [4])


def test_budget_floor(toy):
    assert budget(toy, 0.5) == 7
    assert budget(toy, 1.0) == 14
    assert budget(toy, 0.3) == 4  # floor(4.2)
    assert budget(toy, "0.714") == 9
    assert budget(toy, Fraction(1, 3)) == 4


def test_budget_float_means_decimal():
    inst = make_instance([10, 10], [], [(1, [1])])
    # 0.7 is read as 7/10 exactly, not as the nearest binary double
    assert budget(inst, 0.7) == 14


def test_budget_range(toy):
    for bad in (0, -0.1, 1.2, "2"):
        with pytest.raises(ValueError):
            budget(toy, bad)


def test_marginal_cost(toy):
    assert bf.marginal_cost(toy, evaluate(toy, [2]), 3) == 2
    assert bf.marginal_cost(toy, evaluate(toy, []), 1) == 8
    assert bf.marginal_cost(toy, evaluate(toy, [3]), 2) == 0
    with pytest.raises(ValueError):
        bf.marginal_cost(toy, evaluate(toy, [2]), 2)


def test_evaluate_matches_bruteforce():
    for seed in range(1, 51):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 91)
        picks = [int(c) + 1 for c in gen.choice(inst.n_customers,
                                                size=inst.n_customers // 2,
                                                replace=False)]
        sol = evaluate(inst, picks)
        covered, cost, profit = bf.brute_eval(inst, picks)
        assert set(sol.covered) == covered
        assert sol.cost == cost
        assert sol.profit == profit


def test_cost_monotone_and_subadditive():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 92)
        m = inst.n_customers
        sub = set(int(c) + 1 for c in gen.choice(m, size=m // 3 + 1, replace=False))
        sup = sub | {int(gen.integers(1, m + 1))}
        a, b = evaluate(inst, sub), evaluate(inst, sup)
        assert a.cost <= b.cost and a.profit <= b.profit
        other = set(int(c) + 1 for c in gen.choice(m, size=m // 3 + 1, replace=False))
        u = evaluate(inst, sub | other)
        assert u.cost <= evaluate(inst, sub).cost + evaluate(inst, other).cost


def test_marginal_cost_sums_to_evaluate():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 93)
        order = [int(c) + 1 for c in gen.permutation(inst.n_customers)]
        sol = evaluate(inst, [])
        total = 0
        taken = []
        for c in order:
            total += bf.marginal_cost(inst, sol, c)
            taken.append(c)
            sol = evaluate(inst, taken)
        assert total == sol.cost


def test_cover_tracker_matches_marginal():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 94)
        tracker = CoverTracker(inst)
        sol = evaluate(inst, [])
        taken = []
        for c in (int(x) + 1 for x in gen.permutation(inst.n_customers)):
            assert tracker.marginal[c - 1] == bf.marginal_cost(inst, sol, c)
            tracker.add(c - 1)
            taken.append(c)
            sol = evaluate(inst, taken)
            assert tracker.cost == sol.cost


def test_cover_tracker_rejects_bad_ids(toy):
    # the tracker checks ids as evaluate does: 0 and -1 must not wrap around
    # to the last customers
    for bad in ([0], [-1], [4], [2, 0]):
        for build in (CoverTracker, evaluate):
            with pytest.raises(ValueError, match=f"customer id {bad[-1]} out of range 1..3"):
                build(toy, bad)
    assert CoverTracker(toy, [3, 1]).selected.tolist() == [True, False, True]


@pytest.mark.parametrize("bad, words", [
    (1.7, "customer id 1.7 is not an integer"),  # once truncated to 1 by the tracker
    (True, "customer id True is not an integer"),  # once read as customer 1 by evaluate
    (2.0, "customer id 2.0 is not an integer"),
    ("1", "customer id '1' is not an integer"),
    (0, "customer id 0 out of range 1..3"),
    (4, "customer id 4 out of range 1..3"),
])
def test_one_customer_id_rule(toy, bad, words):
    # evaluate, CoverTracker and closure refuse the same ids with the same message,
    # alone, after a good id, or held in a numpy array
    for ids in ([bad], [2, bad], np.array([bad])):
        for build in (CoverTracker, evaluate):
            with pytest.raises(ValueError, match=words):
                build(toy, ids)
    with pytest.raises(ValueError, match=words):
        closure(toy, bad)
    assert evaluate(toy, np.array([3, 1])).selected == {1, 3}


@pytest.mark.parametrize("solver", ["aco", "grasp"])
def test_construct_filtered_candidates_are_the_affordable_ones(solver, monkeypatch):
    # _construct shrinks its candidate list after each add instead of asking
    # the tracker again, which is exact only because no add lowers cost + marginal.
    # A step only removes the chosen entry, keeping the list's memory, while the
    # largest marginal at the last filter fits the slack; otherwise it filters
    # into a new array.
    steps = []
    branches = {"remove": 0, "filter": 0}

    def checked(instance, bud, choose):
        last = {}

        def spy(cover, cand):
            assert np.array_equal(cand, cover.affordable(bud))
            filtered = True
            if last:
                filtered = not np.shares_memory(cand, last["cand"])
                assert filtered == (last["most"] > bud - cover.cost)
                branches["filter" if filtered else "remove"] += 1
            if filtered:
                last["most"] = cover.marginal[cand].max()
            last["cand"] = cand
            steps.append(cand.size)
            return choose(cover, cand)

        sol = model._construct(instance, bud, spy)
        assert CoverTracker(instance, sol.selected).affordable(bud).size == 0
        return sol

    monkeypatch.setattr(aco if solver == "aco" else baselines, "_construct", checked)
    for family in ("NRP-1", "NRP-2", "NRP-3"):
        inst = generate(builtin_spec(family), 1)
        state, eta = init_pheromone(inst), heuristic_info(inst)
        for ratio in ("0.3", "0.5", "0.7"):
            bud = budget(inst, ratio)
            for s in (1, 2):
                if solver == "aco":
                    construct_solution(inst, bud, state, eta, AcoParams(),
                                       rng.substream(s, rng.ANT, 1, 1))
                else:
                    grasp_construct(inst, bud, 10, rng.substream(s, rng.GRASP_RESTART, 1))
    assert len(steps) > 100
    assert branches["remove"] > 0 and branches["filter"] > 0


def test_evaluate_is_pure(toy):
    assert evaluate(toy, [1, 3]) == evaluate(toy, [1, 3])


def test_level_sizes_must_sum():
    # a sum of 4 for 3 requirements; the right sum, with a negative level
    for costs, level_sizes in (([1, 1, 1], [2, 2]), ([1, 1], [3, -1])):
        with pytest.raises(ValueError):
            make_instance(costs, [], [(5, [2])], level_sizes=level_sizes)


def test_instance_repr(toy):
    text = repr(toy)
    assert "4 requirements" in text and "3 customers" in text


def test_instance_keeps_no_dense_closure():
    # NRP-4@1's closure as a dense float64 customer x requirement matrix
    # would take about 19.5 MB; its index lists take well under 10 MB
    tracemalloc.start()
    try:
        inst = generate(builtin_spec("NRP-4"), 1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n_customers * inst.n_requirements * 8 > 19e6
    assert retained < 10e6


def _parse_by_hand(text):
    """Costs, edges and (profit, requests) rows of an instance file, read line by line."""
    lines = iter(text.splitlines())
    costs = []
    for _ in range(int(next(lines))):
        next(lines)  # the level's requirement count
        costs += map(int, next(lines).split())
    edges = tuple(tuple(map(int, next(lines).split())) for _ in range(int(next(lines))))
    rows = [[int(t) for t in next(lines).split()] for _ in range(int(next(lines)))]
    return costs, edges, [(row[0], tuple(row[2:])) for row in rows]


def test_views_match_the_written_file():
    inst = generate(builtin_spec("NRP-1"), 1)
    costs, edges, customers = _parse_by_hand(write_instance(inst))
    assert inst.requirements == tuple(Requirement(i + 1, c) for i, c in enumerate(costs))
    assert inst.graph.edges == edges
    assert inst.customers == tuple(Customer(i + 1, w, reqs)
                                   for i, (w, reqs) in enumerate(customers))
    assert inst.customers is inst.customers  # built once, on first use


def test_counts_without_customers_or_requests():
    alone = make_instance([3, 4], [(1, 2)], [])
    assert (alone.n_requirements, alone.n_customers) == (2, 0)
    idle = make_instance([3], [], [(5, []), (6, [])])
    assert (idle.n_requirements, idle.n_customers) == (1, 2)
    assert [c.size for c in idle.closure_indices] == [0, 0]


def test_equality_tells_every_part_apart():
    costs, edges, customers = [5, 3, 4, 2], [(1, 2), (3, 4)], [(10, [2, 1]), (8, [3])]
    base = make_instance(costs, edges, customers)
    assert base == make_instance(costs, edges, customers)
    assert base != make_instance([5, 3, 4, 1], edges, customers)
    assert base != make_instance(costs, edges[::-1], customers)
    assert base != make_instance(costs, edges, [(10, [1, 2]), (8, [3])])
    assert base != make_instance(costs, edges, [(10, [2, 1]), (9, [3])])
    assert base != make_instance(costs, edges, customers, level_sizes=[2, 2])
    # against anything else Python falls back to identity, so it is unequal
    assert base.__eq__(costs) is NotImplemented
    assert base != costs and base != None  # noqa: E711


def test_substream_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        rng.substream(-1, rng.SA_CHAIN)
    assert rng.substream(0, rng.SA_CHAIN).random() == rng.substream(0, rng.SA_CHAIN).random()
