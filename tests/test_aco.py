import numpy as np
import pytest

import bruteforce as bf
from nrpbench import (AcoParams, EmptyCandidateSetError, PheromoneState,
                      budget, construct_solution, deposit, evaporate,
                      heuristic_info, init_pheromone, make_instance, rng,
                      roulette_select, selection_probabilities, solve_one)
from nrpbench.aco import run


def test_init_pheromone(toy):
    state = init_pheromone(toy)
    assert state.theta == pytest.approx(0.1)
    assert np.allclose(state.tau, [1.0, 0.8, 0.6])


def test_init_pheromone_equal_profits():
    inst = make_instance([1, 1], [], [(7, [1]), (7, [2]), (7, [1])])
    assert np.allclose(init_pheromone(inst).tau, [1.0, 1.0, 1.0])


def test_init_pheromone_single_customer():
    inst = make_instance([2], [], [(30, [1])])
    assert np.allclose(init_pheromone(inst).tau, [1.0])


def test_init_pheromone_no_customers():
    state = init_pheromone(make_instance([1], [], []))
    assert state.theta == 1.0 and state.tau.size == 0


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
    state = PheromoneState(tau=np.array([0.5, 0.5]), theta=0.1)
    probs = selection_probabilities(state, np.array([1.0, 1.0]), [1, 2], 1.3, 0.7)
    assert np.allclose(probs, [0.5, 0.5])


def test_selection_probabilities_ratio():
    state = PheromoneState(tau=np.array([0.5, 0.5]), theta=0.1)
    probs = selection_probabilities(state, np.array([2.0, 1.0]), [1, 2], 1.0, 1.0)
    assert np.allclose(probs, [2 / 3, 1 / 3])


def test_selection_probabilities_restrict_to_candidates():
    state = PheromoneState(tau=np.array([0.9, 0.5, 0.2]), theta=0.1)
    eta = np.array([1.0, 2.0, 3.0])
    probs = selection_probabilities(state, eta, [3], 1.1, 1.5)
    assert probs[2] == pytest.approx(1.0)
    assert probs[0] == probs[1] == 0.0
    with pytest.raises(EmptyCandidateSetError):
        selection_probabilities(state, eta, [], 1.1, 1.5)


def test_selection_probabilities_uniform_when_exponents_zero():
    state = PheromoneState(tau=np.array([0.9, 0.5, 0.2]), theta=0.1)
    eta = np.array([1.0, 2.0, 3.0])
    probs = selection_probabilities(state, eta, [1, 2, 3], 0.0, 0.0)
    assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])


def test_roulette_select():
    probs = np.array([0.2, 0.3, 0.5])
    assert roulette_select(probs, 0.6) == 3
    assert roulette_select(probs, 0.0) == 1
    assert roulette_select(probs, 0.2) == 1  # cumulative 0.2 >= 0.2
    assert roulette_select(probs, 0.21) == 2
    assert roulette_select(np.array([1.0]), 0.99) == 1
    # rounding overshoot falls back to the last positive candidate
    assert roulette_select(probs, 1.0 + 1e-12) == 3
    assert roulette_select(np.array([0.0, 0.5, 0.0, 0.5]), 0.7) == 4


def test_evaporate():
    state = PheromoneState(tau=np.array([1.0, 0.5]), theta=0.1)
    evaporate(state, 0.13)
    assert np.allclose(state.tau, [0.87, 0.435])
    evaporate(state, 1.0)
    assert np.allclose(state.tau, [0.0, 0.0])
    with pytest.raises(ValueError):
        evaporate(state, 0.0)
    with pytest.raises(ValueError):
        evaporate(state, 1.3)


def test_evaporate_continuity_near_zero():
    state = PheromoneState(tau=np.array([1.0, 0.5]), theta=0.1)
    before = state.tau.copy()
    evaporate(state, 1e-9)
    assert np.all(np.abs(before - state.tau) < 1e-9 * before + 1e-18)


def test_deposit(toy):
    state = PheromoneState(tau=np.zeros(3), theta=0.1)
    from nrpbench import evaluate
    sol = evaluate(toy, [2, 3])
    deposit(state, [sol], 0.02)
    assert np.allclose(state.tau, [0.0, 0.28, 0.28])
    deposit(state, [evaluate(toy, [])], 0.02)  # empty solution: no change
    assert np.allclose(state.tau, [0.0, 0.28, 0.28])
    deposit(state, [sol, sol], 0.02)  # two identical ants stack
    assert np.allclose(state.tau, [0.0, 0.84, 0.84])


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
    assert np.array_equal(a.pheromone.tau, b.pheromone.tau)


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
        tau = result.pheromone.tau
        theta = result.pheromone.theta
        w_total = int(inst.profit_vector.sum())
        bound = theta * inst.profit_vector + params.ants * params.gamma * w_total / params.rho
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
