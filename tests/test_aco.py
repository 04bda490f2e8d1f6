import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import bruteforce as bf
from nrpbench import (AcoParams, CoverTracker, budget, builtin_spec, generate, make_instance,
                      rng, solve_one)
from nrpbench import aco
from nrpbench.aco import (_roulette, construct_solution, deposit, evaporate,
                          heuristic_info, init_pheromone, run)
from nrpbench.local_search import improve, random_feasible, sweep_improve


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


def _picks(weights, rs, free=None):
    """The customers drawn by ``rs`` among ``free`` (every entry by default),
    the others' weights set to 0.0 as the fill sets them."""
    weights = np.asarray(weights, dtype=np.float64)
    free = np.ones(weights.size, dtype=bool) if free is None else np.asarray(free)
    pick = _roulette(np.where(free, weights, 0.0))
    n = int(np.count_nonzero(free))  # the weights never change: the count stays
    return [pick(r, free, n) for r in rs]


def test_selection_probabilities_symmetric():
    # raw weights: only their ratio matters
    for w in ([0.5, 0.5], [3.0, 3.0]):
        assert _picks(w, [0.0, 0.25, 0.4999, 0.5001, 0.99]) == [0, 0, 0, 1, 1]


def test_selection_probabilities_ratio():
    tau, eta = np.array([0.5, 0.5]), np.array([2.0, 1.0])
    # weights 1.0 and 0.5: the cut point sits at 2/3
    assert _picks(tau ** 1.0 * eta ** 1.0, [0.66, 0.67]) == [0, 1]


def test_selection_probabilities_restrict_to_candidates():
    weights = np.array([0.9, 0.5, 0.2, 0.4])
    # the other customers weigh 0.0; the draw returns a customer, candidates in id order
    assert _picks(weights, [0.0, 0.5, 0.999], [False, False, True, False]) == [2, 2, 2]
    assert _picks(weights, [0.55, 0.56], [False, True, False, True]) == [1, 3]  # cut at 5/9


def test_selection_probabilities_uniform_when_exponents_zero():
    tau, eta = np.array([0.9, 0.5, 0.2]), np.array([1.0, 2.0, 3.0])
    rs = [0.0, 0.32, 0.34, 0.65, 0.67, 0.99]
    assert _picks(tau ** 0.0 * eta ** 0.0, rs) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_selection_probabilities_uniform_when_the_total_is_zero_or_not_finite(bad):
    # zero: a trail evaporated to nothing; inf and NaN: weights that overflowed
    weights = np.array([bad, 0.0, 0.0, 1.0, 3.0])
    first = [True, True, True, False, False]
    assert _picks(weights, [0.0, 0.32, 0.34, 0.65, 0.67, 0.99, 1.0], first) == \
        [0, 0, 1, 1, 2, 2, 2]
    # only the candidates' own total decides
    assert _picks(weights, [0.24, 0.26], [False, False, False, True, True]) == [3, 4]
    # every candidate weighs the same, in id order, whatever lies between them
    assert _picks([7.0, bad, 0.0, 0.0, 5.0], [0.0, 0.49, 0.51, 0.99],
                  [False, True, False, True, False]) == [1, 1, 3, 3]


def test_roulette_select():
    w = np.array([0.2, 0.3, 0.5])
    assert _picks(w, [0.6, 0.0, 0.2, 0.21]) == [2, 0, 0, 1]  # 0.2 reaches 0.2 * 1.0
    assert _picks(10 * w, [0.6, 0.21]) == [2, 1]
    assert _picks([1.0], [0.0, 0.99]) == [0, 0]
    # an r of 1 or more gives the last positive entry, r = 0 the first
    assert _picks(w, [1.0, 1.0 + 1e-12]) == [2, 2]
    assert _picks([0.0, 0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.7, 1.0, 1.5]) == [1, 1, 3, 3, 3]
    # zero entries are never chosen
    assert set(_picks([0.0, 2.0, 0.0, 0.0], np.linspace(0.0, 1.0, 11))) == {1}


class _CountingNumpy:
    """numpy as ``aco`` sees it, with the input length of each
    ``add.accumulate`` call recorded: one shorter than the weights is a
    suffix refill."""

    def __init__(self, lengths):
        def accumulate(a, out):
            lengths.append(a.size)
            return np.add.accumulate(a, out=out)

        self.add = SimpleNamespace(accumulate=accumulate)

    def __getattr__(self, name):
        return getattr(np, name)


def _fresh_pick(w, free, r):
    """The pick a fresh running sum over ``w`` gives, or the uniform draw
    over the candidates ``free`` marks."""
    run = np.add.accumulate(w)
    if not 0 < run[-1] < np.inf:
        cand = free.nonzero()[0]
        return int(cand[min(int(r * cand.size), cand.size - 1)])
    k = int(run.searchsorted(r * run[-1]))
    if k < w.size and w[k] > 0:
        return k
    positive = w.nonzero()[0]
    return int(positive[0] if k < w.size else positive[-1])


def _r_onto(target, total):
    """An r whose ``r * total`` is exactly ``target``, where one lies within
    an ulp of ``target / total``."""
    x = target / total
    for r in (x, np.nextafter(x, 0.0), np.nextafter(x, 2.0)):
        if r * total == target:
            return float(r)
    return float(x)


def test_roulette_reuses_one_buffer_as_the_fill_zeroes_picks(monkeypatch):
    # one pick function per construction.  Its running-sum buffer is refilled
    # from the weights as they change in place: whole, or from the last pick
    # on where the count fell by one and that pick is at aco._SUFFIX_FROM or
    # later.  The count is the one the fill passes: one less after a pick,
    # and less still where a filter zeroed other weights too, as at the step
    # where the total turns 0, inf or NaN.  Most r take r * total exactly
    # onto a running sum or one ulp past it, where a sum one ulp off picks
    # another customer.  Every pick is the one a fresh running sum gives, or
    # the uniform draw over the candidates left
    lengths = []
    monkeypatch.setattr(aco, "np", _CountingNumpy(lengths))
    gen = rng.substream(0, 26)
    edge = aco._SUFFIX_FROM
    # sizes below the guard, at it (the last index is edge - 1 or edge) and well above it
    for low, high, trials in ((1, 12, 50), (edge, edge + 2, 6), (4 * edge, 4 * edge + 1, 3)):
        suffixes = 0
        for bad in (0.0, np.inf, np.nan):
            for _ in range(trials):
                m = int(gen.integers(low, high))
                w = gen.random(m) * (gen.random(m) < 0.8)
                free = np.ones(m, dtype=bool)
                pick = _roulette(w)
                turn = int(gen.integers(0, m))
                lengths.clear()
                for step in range(m):
                    if step and gen.random() < 0.1 or step == turn:
                        # a filter drops candidates, below the last pick as well
                        cand = free.nonzero()[0]
                        drop = gen.choice(cand, size=min(int(gen.integers(1, 4)), cand.size),
                                          replace=False)
                        free[drop], w[drop] = False, 0.0
                    if not free.any():
                        break
                    if step == turn:  # the total turns bad here
                        if bad == 0.0:
                            w[:] = 0.0
                        w[free.argmax()] = bad
                    run = np.add.accumulate(w)
                    r = float(gen.random())
                    if 0 < run[-1] < np.inf and r < 0.7:  # onto a running sum or just past it
                        j = int(gen.choice(w.nonzero()[0]))
                        r = _r_onto(run[j] if r < 0.35 else np.nextafter(run[j], np.inf),
                                    run[-1])
                    want = _fresh_pick(w, free, r)
                    got = pick(r, free, int(np.count_nonzero(free)))
                    assert got == want, (m, bad, step, r)
                    free[got] = False
                    w[got] = 0.0
                suffixes += sum(size < m for size in lengths)
        # the guard is on the pick's index, of which high - 2 is the largest
        assert (suffixes > 0) == (high - 2 >= edge), (low, suffixes)


SEQUENTIAL = ("numpy's add.accumulate no longer adds strictly in order: a suffix seeded "
              "with the sum before it differs from the full running sum")


@pytest.mark.parametrize("m", [2, 7, 8, 9, 255, 256, 257, 1000, 4099])
def test_a_seeded_suffix_accumulate_is_the_full_accumulate(m):
    # the ant roulette refills a running sum from its last pick on, with the
    # zeroed weight there overwritten by the sum just before it; that gives
    # bit for bit the full refill only while numpy adds one entry at a time,
    # left to right, also into an output slice
    gen = rng.substream(29, m)
    w = gen.random(m) * 10.0 ** gen.integers(-12, 13, size=m) * (gen.random(m) < 0.8)
    full = np.add.accumulate(w)
    run = np.full(m, np.nan)
    for k in range(1, m):
        seeded = w.copy()
        seeded[k] = full[k - 1] + seeded[k]
        run[:k] = full[:k]
        np.add.accumulate(seeded[k:], out=run[k:])
        assert run.tobytes() == full.tobytes(), SEQUENTIAL


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
    sol = CoverTracker(toy, [2, 3])
    assert deposit(tau, [sol], 0.02) is None  # in place
    assert np.allclose(tau, [0.0, 0.28, 0.28])
    deposit(tau, [CoverTracker(toy)], 0.02)  # empty solution: no change
    assert np.allclose(tau, [0.0, 0.28, 0.28])
    deposit(tau, [sol, sol], 0.02)  # two identical ants stack
    assert np.allclose(tau, [0.0, 0.84, 0.84])


def test_construct_selects_everything_under_loose_budget(toy):
    state = init_pheromone(toy)
    eta = heuristic_info(toy)
    gen = rng.substream(1, 99)
    sol = construct_solution(toy, 14, state, eta, AcoParams(), gen).solution()
    assert sol.selected == {1, 2, 3}


def test_construct_empty_when_nothing_affordable(toy):
    state = init_pheromone(toy)
    eta = heuristic_info(toy)
    sol = construct_solution(toy, 3, state, eta, AcoParams(), rng.substream(1, 99))
    sol = sol.solution()
    assert sol.profit == 0 and not sol.selected


def test_construct_toy_midrange_budget(toy):
    # at budget 7 customer 1 is never affordable and 2, 3 always are
    state = init_pheromone(toy)
    eta = heuristic_info(toy)
    for s in range(20):
        sol = construct_solution(toy, 7, state, eta, AcoParams(), rng.substream(s, 99))
        sol = sol.solution()
        assert sol.selected == {2, 3}
        assert sol.cost <= 7


def test_construct_feasible_on_random_instances():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        b = budget(inst, 0.4)
        state = init_pheromone(inst)
        eta = heuristic_info(inst)
        sol = construct_solution(inst, b, state, eta, AcoParams(),
                                 rng.substream(seed, 99)).solution()
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


@pytest.mark.parametrize("family", ["NRP-1", "NRP-2", "NRP-3", "NRP-4", "NRP-5", "none"])
def test_construct_matches_positive_roulette_reference(family, monkeypatch):
    # "none": an instance without customers, whose ant draws nothing
    inst = make_instance([1], [], []) if family == "none" else generate(builtin_spec(family), 1)
    params = AcoParams()
    eta = heuristic_info(inst)
    # a fresh trail, one evaporated to zero on every seventh customer, and two
    # whose weights are all 0.0, evaporated to nothing or underflowed, which
    # draw uniformly among the candidates
    fresh, patchy = init_pheromone(inst), init_pheromone(inst)
    patchy[::7] = 0.0
    zero, tiny = np.zeros_like(fresh), init_pheromone(inst) * 1e-300
    assert not (tiny ** params.alpha * eta ** params.beta).any() and tiny.all()
    # the ant fill adds through CoverTracker._cover, which leaves the
    # marginals as upper bounds until the fill settles them
    adds, lengths = [], []
    lazy_add = CoverTracker._cover

    def record_add(self, index):
        adds.append(index + 1)
        lazy_add(self, index)

    for ratio in ("0.3", "0.5", "0.7"):
        bud = budget(inst, ratio)
        for tau in (fresh, patchy, zero, tiny):
            gen, ref_gen = (rng.substream(7, rng.ANT, 1, 1) for _ in range(2))
            weights = tau ** params.alpha * eta ** params.beta
            want = _reference_ant(inst, bud, weights, ref_gen)
            adds.clear()
            with monkeypatch.context() as m:
                m.setattr(CoverTracker, "_cover", record_add)
                m.setattr(aco, "np", _CountingNumpy(lengths))
                sol = construct_solution(inst, bud, tau, eta, params, gen)
            sol = sol.solution()
            assert adds == want
            assert sol.selected == set(want)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
    # both refills run on the two largest families; no NRP-1 pick reaches the guard
    suffixes = sum(size < inst.n_customers for size in lengths)
    if family in ("NRP-4", "NRP-5"):
        assert 0 < suffixes < len(lengths), (suffixes, len(lengths))
    elif family == "NRP-1":
        assert suffixes == 0 < len(lengths)


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


def test_the_calls_a_span_tracer_wraps(monkeypatch):
    # perfbench/spans.py reads each climb's argument named ``start`` and the int
    # ``.profit`` of it and of the result, and counts every ant's construction
    # and climb by rebinding them in aco's module namespace
    inst = generate(builtin_spec("NRP-1"), 1)
    bud = budget(inst, "0.5")
    for climb in (improve, sweep_improve):
        assert "start" in inspect.signature(climb).parameters
        start = random_feasible(inst, bud, rng.substream(1, 59))
        out = climb(inst, bud, start, rng.substream(1, 59))
        assert type(start.profit) is int and type(out.profit) is int
    calls = {"construct_solution": 0, "sweep_improve": 0}

    def counting(name):
        call = getattr(aco, name)

        def counted(*args):
            calls[name] += 1
            return call(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(aco, name, counting(name))
    run(inst, bud, AcoParams(ants=3, iterations=2), 1)
    assert calls == {"construct_solution": 6, "sweep_improve": 6}
    run(inst, bud, AcoParams(ants=3, iterations=2, use_local_search=False), 1)
    assert calls == {"construct_solution": 12, "sweep_improve": 6}
