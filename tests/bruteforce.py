"""Independent brute-force oracles used to cross-check the package.

Everything here recomputes results from the raw instance data (costs,
edges, requested ids) with plain Python sets and exhaustive loops,
deliberately sharing no code with the package internals.
"""

from itertools import combinations

from nrpbench import make_instance, rng


def parent_map(instance):
    parents: dict[int, set[int]] = {}
    for p, q in instance.graph.edges:
        parents.setdefault(q, set()).add(p)
    return parents


def brute_closure(instance, request_ids):
    """Fixpoint expansion of the prerequisite relation."""
    parents = parent_map(instance)
    out = set(request_ids)
    while True:
        grown = set(out)
        for r in out:
            grown |= parents.get(r, set())
        if grown == out:
            return out
        out = grown


def brute_eval(instance, selected):
    """(covered, cost, profit) of a selection, from raw data."""
    covered: set[int] = set()
    profit = 0
    for c in selected:
        cust = instance.customers[c - 1]
        covered |= brute_closure(instance, cust.requests)
        profit += cust.profit
    cost = sum(instance.requirements[r - 1].cost for r in covered)
    return covered, cost, profit


def marginal_cost(instance, solution, customer_id):
    """Cost increase from adding one unselected customer to an evaluated solution."""
    if customer_id in solution.selected:
        raise ValueError(f"customer {customer_id} is already selected")
    new = brute_closure(instance, instance.customers[customer_id - 1].requests) - solution.covered
    return sum(instance.requirements[r - 1].cost for r in new)


def brute_best(instance, budget):
    """(profit, selection) of an optimal feasible subset.

    Ties go to the lexicographically smallest sorted id tuple.
    """
    m = len(instance.customers)
    clos = [brute_closure(instance, c.requests) for c in instance.customers]
    profits = [c.profit for c in instance.customers]
    costs = {r.id: r.cost for r in instance.requirements}
    best_profit, best_sel = 0, ()
    for size in range(m + 1):
        for combo in combinations(range(1, m + 1), size):
            covered = set()
            for c in combo:
                covered |= clos[c - 1]
            cost = sum(costs[r] for r in covered)
            if cost > budget:
                continue
            profit = sum(profits[c - 1] for c in combo)
            if profit > best_profit or (profit == best_profit and combo < best_sel):
                best_profit, best_sel = profit, combo
    return best_profit, best_sel


def check_solution(instance, sol, budget):
    """All the ways a reported solution could be wrong; empty list = fine."""
    problems = []
    for c in sol.selected:
        if not 1 <= c <= len(instance.customers):
            problems.append(f"selected id {c} out of range")
            return problems
    covered, cost, profit = brute_eval(instance, sol.selected)
    if set(sol.covered) != covered:
        problems.append(f"covered set mismatch: {sorted(sol.covered)} vs {sorted(covered)}")
    if sol.cost != cost:
        problems.append(f"cost {sol.cost} should be {cost}")
    if sol.profit != profit:
        problems.append(f"profit {sol.profit} should be {profit}")
    if cost > budget:
        problems.append(f"cost {cost} exceeds budget {budget}")
    return problems


def has_improving_move(instance, sol, budget):
    """A feasible addition or profit-improving 1-swap, or None.

    This is the local-optimality certificate: exhaustively tries every
    unselected j as an addition and every (j in, l out) exchange.
    """
    selected = set(sol.selected)
    outside = [c.id for c in instance.customers if c.id not in selected]
    for j in outside:
        _, cost, _ = brute_eval(instance, selected | {j})
        if cost <= budget:
            return f"can add {j}"
    for j in outside:
        wj = instance.customers[j - 1].profit
        for l in selected:
            if instance.customers[l - 1].profit >= wj:
                continue
            _, cost, _ = brute_eval(instance, (selected | {j}) - {l})
            if cost <= budget:
                return f"can swap {j} in for {l}"
    return None


def random_small_instance(seed, n_max=20, m_max=12):
    """A small random instance from a stream disjoint from the package's."""
    gen = rng.substream(seed, 90)
    n = int(gen.integers(4, n_max + 1))
    m = int(gen.integers(2, m_max + 1))
    costs = gen.integers(1, 10, size=n).tolist()
    edges = []
    for q in range(2, n + 1):
        for p in range(1, q):
            if gen.random() < 0.15:
                edges.append((p, q))
    customers = []
    for _ in range(m):
        k = int(gen.integers(1, 4))
        reqs = sorted(int(r) + 1 for r in gen.choice(n, size=min(k, n), replace=False))
        w = int(gen.integers(1, 31))
        customers.append((w, reqs))
    return make_instance(costs, edges, customers)
