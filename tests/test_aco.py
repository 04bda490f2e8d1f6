import numpy as np
import pytest

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, budget, builtin_spec, generate, make_instance,
                      rng, solve_one)
from nrpbench.aco import (_roulette_select, _selection_probabilities, construct_solution,
                          deposit, evaporate, heuristic_info, init_pheromone, run)


def test_init_pheromone(toy):
    tau = init_pheromone(toy)
    assert tau.dtype == np.float64 and np.allclose(tau, [1.0, 0.8, 0.6])


def test_init_pheromone_equal_profits():
    inst = make_instance([1, 1], [], [(7, [1]), (7, [2]), (7, [1])])
    assert np.allclose(init_pheromone(inst), [1.0, 1.0, 1.0])


def test_init_pheromone_single_customer():
    inst = make_instance([2], [], [(30, [1])])
    assert np.allclose(init_pheromone(inst), [1.0])


def test_init_pheromone_no_customers():
    tau = init_pheromone(make_instance([1], [], []))
    assert tau.dtype == np.float64 and tau.size == 0


def test_heuristic_info(toy):
    assert np.allclose(heuristic_info(toy), [10 / 8, 8 / 4, 6 / 6])


def test_heuristic_info_scales_with_profit(toy):
    doubled = make_instance([5, 3, 4, 2], [(1, 2), (3, 4)],
                            [(20, [2]), (16, [3]), (12, [4])])
    assert np.allclose(heuristic_info(doubled), 2 * heuristic_info(toy))


@pytest.mark.parametrize("algo", ["haco", "aco"])
def test_colony_solves_degenerate_instances(algo):
    # a customer with no requests costs nothing: eta uses max(1, closure cost)
    free = make_instance([4, 3], [], [(5, []), (9, [1, 2])])
    assert np.allclose(heuristic_info(free), [5.0, 9 / 7])
    sol, _ = solve_one(free, 3, algo, 1, AcoParams(iterations=2, ants=2))
    assert sol.selected == {1} and sol.profit == 5 and sol.cost == 0
    assert bf.check_solution(free, sol, 3) == []
    none, _ = solve_one(make_instance([2], [], []), 1, algo, 1)
    assert none.selected == frozenset() and none.profit == 0


def test_selection_probabilities_symmetric():
    probs = _selection_probabilities(np.array([0.5, 0.5]), np.array([0, 1]))
    assert np.allclose(probs, [0.5, 0.5])


def test_selection_probabilities_ratio():
    tau, eta = np.array([0.5, 0.5]), np.array([2.0, 1.0])
    probs = _selection_probabilities(tau ** 1.0 * eta ** 1.0, np.array([0, 1]))
    assert np.allclose(probs, [2 / 3, 1 / 3])


def test_selection_probabilities_restrict_to_candidates():
    weights = np.array([0.9, 0.5, 0.2, 0.4])
    # one entry per candidate, in the candidates' order
    assert _selection_probabilities(weights, np.array([2])).tolist() == [1.0]
    assert np.allclose(_selection_probabilities(weights, np.array([3, 1])), [4 / 9, 5 / 9])


def test_selection_probabilities_uniform_when_exponents_zero():
    tau, eta = np.array([0.9, 0.5, 0.2]), np.array([1.0, 2.0, 3.0])
    probs = _selection_probabilities(tau ** 0.0 * eta ** 0.0, np.array([0, 1, 2]))
    assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_selection_probabilities_uniform_when_the_total_is_zero_or_not_finite(bad):
    # zero: a trail evaporated to nothing; inf and NaN: weights that overflowed
    weights = np.array([bad, 0.0, 0.0, 1.0, 3.0])
    assert _selection_probabilities(weights, np.array([0, 1, 2])).tolist() == [1 / 3] * 3
    # only the candidates' own total decides
    assert _selection_probabilities(weights, np.array([4, 3])).tolist() == [0.75, 0.25]


def test_roulette_select():
    probs = np.array([0.2, 0.3, 0.5])
    assert _roulette_select(probs, 0.6) == 3
    assert _roulette_select(probs, 0.0) == 1
    assert _roulette_select(probs, 0.2) == 1  # cumulative 0.2 >= 0.2
    assert _roulette_select(probs, 0.21) == 2
    assert _roulette_select(np.array([1.0]), 0.99) == 1
    # rounding overshoot falls back to the last positive candidate
    assert _roulette_select(probs, 1.0 + 1e-12) == 3
    assert _roulette_select(np.array([0.0, 0.5, 0.0, 0.5]), 0.7) == 4


def test_evaporate():
    tau = np.array([1.0, 0.5])
    assert evaporate(tau, 0.13) is None  # in place
    assert np.allclose(tau, [0.87, 0.435])
    evaporate(tau, 1.0)
    assert np.allclose(tau, [0.0, 0.0])
    with pytest.raises(ValueError):
        evaporate(tau, 0.0)
    with pytest.raises(ValueError):
        evaporate(tau, 1.3)


def test_evaporate_continuity_near_zero():
    tau = np.array([1.0, 0.5])
    before = tau.copy()
    evaporate(tau, 1e-9)
    assert np.all(np.abs(before - tau) < 1e-9 * before + 1e-18)


def test_deposit(toy):
    tau = np.zeros(3)
    from nrpbench import evaluate
    sol = evaluate(toy, [2, 3])
    assert deposit(tau, [sol], 0.02) is None  # in place
    assert np.allclose(tau, [0.0, 0.28, 0.28])
    deposit(tau, [evaluate(toy, [])], 0.02)  # empty solution: no change
    assert np.allclose(tau, [0.0, 0.28, 0.28])
    deposit(tau, [sol, sol], 0.02)  # two identical ants stack
    assert np.allclose(tau, [0.0, 0.84, 0.84])


def test_construct_selects_everything_under_loose_budget(toy):
    state = init_pheromone(toy)
    eta = heuristic_info(toy)
    gen = rng.substream(1, 99)
    sol = construct_solution(toy, 14, state, eta, AcoParams(), gen)
    assert sol.selected == {1, 2, 3}


def test_construct_empty_when_nothing_affordable(toy):
    state = init_pheromone(toy)
    eta = heuristic_info(toy)
    sol = construct_solution(toy, 3, state, eta, AcoParams(), rng.substream(1, 99))
    assert sol.profit == 0 and not sol.selected


def test_construct_toy_midrange_budget(toy):
    # at budget 7 customer 1 is never affordable and 2, 3 always are
    state = init_pheromone(toy)
    eta = heuristic_info(toy)
    for s in range(20):
        sol = construct_solution(toy, 7, state, eta, AcoParams(), rng.substream(s, 99))
        assert sol.selected == {2, 3}
        assert sol.cost <= 7


def test_construct_feasible_on_random_instances():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.4)
        state = init_pheromone(inst)
        eta = heuristic_info(inst)
        sol = construct_solution(inst, b, state, eta, AcoParams(), rng.substream(seed, 99))
        assert bf.check_solution(inst, sol, b) == []


def _reference_ant(inst, bud, weights, gen):
    """An ant's walk with the roulette summed over the positive probabilities only.

    Returns the added ids in order.
    """
    cover = CoverTracker(inst)
    moves = []
    while (cand := cover.affordable(bud)).size:
        w = weights[cand]
        total = w.sum()
        p = w / total if 0 < total < np.inf else np.full(cand.size, 1.0 / cand.size)
        positive = (p > 0).nonzero()[0]
        k = int(p[positive].cumsum().searchsorted(gen.random(), side="left"))
        j = int(cand[positive[min(k, positive.size - 1)]])
        cover.add(j)
        moves.append(j + 1)
    return moves


@pytest.mark.parametrize("family", ["NRP-2", "NRP-4"])
def test_construct_matches_positive_roulette_reference(family, monkeypatch):
    inst = generate(builtin_spec(family), 1)
    params = AcoParams()
    eta = heuristic_info(inst)
    # a fresh trail, and one evaporated to zero on every seventh customer
    fresh, patchy = init_pheromone(inst), init_pheromone(inst)
    patchy[::7] = 0.0
    adds = []
    add = CoverTracker.add

    def record_add(self, index):
        adds.append(index + 1)
        add(self, index)

    for ratio in ("0.3", "0.5", "0.7"):
        bud = budget(inst, ratio)
        for tau in (fresh, patchy):
            gen, ref_gen = (rng.substream(7, rng.ANT, 1, 1) for _ in range(2))
            weights = tau ** params.alpha * eta ** params.beta
            want = _reference_ant(inst, bud, weights, ref_gen)
            adds.clear()
            with monkeypatch.context() as m:
                m.setattr(CoverTracker, "add", record_add)
                sol = construct_solution(inst, bud, tau, eta, params, gen)
            assert adds == want
            assert sol.selected == set(want)
            assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_run_zero_iterations(toy):
    # a colony without iterations builds no ant, so it is refused
    with pytest.raises(ValueError, match="iteration"):
        run(toy, 7, AcoParams(iterations=0), seed=1)


def test_run_deterministic(toy):
    params = AcoParams(iterations=5, ants=4)
    a = run(toy, 7, params, seed=42)
    b = run(toy, 7, params, seed=42)
    assert a.best == b.best
    assert a.trace == b.trace
    assert np.array_equal(a.tau, b.tau)


def test_run_finds_toy_optimum(toy):
    result = run(toy, 7, AcoParams(iterations=10, ants=10), seed=3)
    assert result.best.profit == 14
    assert result.best.selected == {2, 3}


def test_trace_monotone_and_feasible():
    for seed in (1, 2, 3):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        result = run(inst, b, AcoParams(iterations=8, ants=5), seed=seed)
        profits = [p for _, p in result.trace]
        assert profits == sorted(profits)
        assert [i for i, _ in result.trace] == list(range(1, 9))
        assert result.best.profit == profits[-1]
        assert bf.check_solution(inst, result.best, b) == []


def test_pheromone_positive_and_bounded_after_run():
    for seed in (1, 2):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        params = AcoParams(iterations=12, ants=6)
        result = run(inst, b, params, seed=seed)
        tau = result.tau
        w_total = int(inst.profit_vector.sum())
        bound = init_pheromone(inst) + params.ants * params.gamma * w_total / params.rho
        assert np.all(tau > 0)
        assert np.all(tau <= bound + 1e-12)


def test_hybrid_output_is_local_optimum():
    # with local search on, the incumbent survives the brute certificate
    for seed in range(1, 11):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.5)
        result = run(inst, b, AcoParams(iterations=3, ants=3), seed=seed)
        assert bf.has_improving_move(inst, result.best, b) is None


def test_params_validation():
    with pytest.raises(ValueError):
        AcoParams(rho=0.0)
    with pytest.raises(ValueError):
        AcoParams(rho=1.5)
    with pytest.raises(ValueError):
        AcoParams(alpha=-1)
    with pytest.raises(ValueError):
        AcoParams(gamma=0)
    with pytest.raises(ValueError):
        AcoParams(ants=0)
    with pytest.raises(ValueError):
        AcoParams(iterations=0)
    with pytest.raises(ValueError):
        AcoParams(iterations=-1)
