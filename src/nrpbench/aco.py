"""Ant colony solvers with a per-customer pheromone trail.

Each customer carries a pheromone value, initialized proportional to
profit and scaled into (0, 1]; the trail is one float64 array that the
update steps change in place, and :func:`run` returns the final one as
``RunResult.tau``.  Ants build solutions one customer at a time with the
random proportional rule: each step reads one uniform r and picks the
first still affordable, unchosen customer whose running sum of weights
tau_i^alpha * eta_i^beta reaches r times their total, where eta_i is the
static profit-to-closure-cost ratio.  The sum runs over every customer's
weight, with 0.0 for each one that is chosen or does not fit, so it is
the candidates' own running sum and no step gathers their weights.  A
construction keeps one buffer for that sum, refills it in place every
step, and finds r times the total in it with ``bisect`` on a memoryview,
so a step makes no new array and one numpy call for the sum.  The fill
(:func:`~nrpbench.model._construct`) passes its candidate count: where
it fell by exactly one, the fill zeroed only the customer picked last,
and a pick at index ``_SUFFIX_FROM`` = 256 or later has only the suffix
from it refilled, seeded with the unchanged sum before it; every other
step refills the whole buffer.  ``np.add.accumulate`` adds in order, so
both give the same sums bit for bit.  Below the guard the two slices
cost about what they save: one ant took 0.80-0.83x the time of full
refills on NRP-5 and 1.00-1.03x on NRP-1, whose 100 customers never
reach it.  The uniforms are drawn ahead, one per customer in one call,
and the ant's stream is put back where one draw per step leaves it
(:func:`~nrpbench.rng.draw_ahead`), so its climb reads the same stream.
After all ants of an iteration finish (optionally each polished to a
1-swap local optimum by the sweeping climb), the trail evaporates once
by factor (1 - rho) and every ant deposits gamma * profit(solution) on
the customers it selected.  Each ant's cover tracker goes from its
construction through its climb to the deposit; only an ant that beats
the incumbent is made a :class:`~nrpbench.model.Solution`.

With local search enabled the solver is the hybrid variant (HACO);
without it, plain ACO.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import inf

import numpy as np

from . import rng
from .local_search import _check_kinds, sweep_improve
from .model import CoverTracker, Instance, Solution, _construct, evaluate


@dataclass
class AcoParams:
    alpha: float = field(default=1.1, metadata={"help": "pheromone exponent"})
    beta: float = field(default=1.5, metadata={"help": "heuristic exponent"})
    gamma: float = field(default=0.020, metadata={"help": "deposit scale"})
    rho: float = field(default=0.13, metadata={"help": "evaporation rate"})
    ants: int = field(default=10, metadata={"help": "ants per iteration"})
    iterations: int = field(default=10, metadata={"help": "pheromone iterations"})
    use_local_search: bool = True

    def __post_init__(self):
        _check_kinds(self)
        if not 0 < self.rho <= 1:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ants < 1:
            raise ValueError("need at least one ant")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class RunResult:
    best: Solution
    trace: list[tuple[int, int]]  # (iteration, best profit so far)
    tau: np.ndarray  # the final trail, 1-based id i at tau[i-1]


def init_pheromone(instance: Instance) -> np.ndarray:
    """The starting trail: each profit times 1 / max profit (empty without customers)."""
    top = float(instance.profit_vector.max(initial=1))
    return 1.0 / top * instance.profit_vector.astype(np.float64)


def heuristic_info(instance: Instance) -> np.ndarray:
    """Static desirability eta_i = profit_i / max(1, closure_cost_i).

    A customer with an empty closure is free profit; the guard keeps its
    ratio finite, as GRASP's score does.
    """
    return instance.profit_vector / np.maximum(1.0, instance.closure_cost_vector)


# the lowest pick index from which a step refills only the running sum's
# suffix; below it the two slices cost about what the shorter sum saves.
# One ant at ratios 0.3/0.5/0.7 against full refills, best of 7 x 10
# streams on a shared 2-core x86 host: from 256 it took 0.80-0.83x the
# time on NRP-5, 0.85-0.94x on NRP-4 and 1.00-1.03x on NRP-1 (100
# customers, no pick past the guard); from 512, 0.82-0.90x on NRP-5; from
# 128, no better than 256; from 1, 1.05-1.08x on NRP-1.
_SUFFIX_FROM = 256


def _roulette(weights: np.ndarray):
    """The random proportional rule over ``weights``: returns ``pick(r, free, n)``,
    the candidate drawn by ``r`` in [0, 1), a 0-based id.

    The candidates are the ``n`` entries ``free`` marks, and every other
    entry of ``weights`` is 0.0.  Candidate k is picked with probability
    ``weights[k] / sum(weights)``: the first entry whose running sum
    reaches ``r`` times the total.  A 0.0 leaves the running sum as it was,
    so the sum at each candidate is the one over the candidates alone.
    Zero entries are never chosen: r = 0 gives the first positive entry,
    and an r of 1 or more the last.  A total that is zero or not finite (a
    trail evaporated to nothing, weights that overflowed) makes every
    candidate weigh the same: r picks candidate min(int(r * n), n - 1) of
    the n, in id order.

    ``weights`` may change in place between picks; each pick refills one
    running-sum buffer from it.  The caller's count is the contract with
    :func:`~nrpbench.model._construct`: a count one below the last one
    means that only the entry returned last was set to 0.0 since, and a
    count that fell by more means that other entries were zeroed too.  In
    the first case, with that entry at ``_SUFFIX_FROM`` or later, only the
    suffix from it is refilled, seeded with the unchanged sum just before
    it; otherwise the whole buffer is.  ``np.add.accumulate`` adds strictly
    in order, so the suffix holds bit for bit the sums a full refill gives.
    The guard keeps the two slices' cost off instances too small to repay
    it (one ant: 0.80-0.83x the time of full refills on NRP-5, 1.00-1.03x
    on NRP-1; see ``_SUFFIX_FROM``).  The weights are never negative, so
    the sums never decrease, and ``bisect_left`` on them is
    ``searchsorted(side="left")``; it and the scalar reads go through
    memoryviews, which skips a numpy call per read.
    """
    run = np.empty_like(weights)
    sums, w, size = memoryview(run), memoryview(weights), weights.size
    start, last, count = _SUFFIX_FROM, -1, -1  # no pick yet: the first refill is whole

    def pick(r: float, free: np.ndarray, n: int) -> int:
        nonlocal last, count
        if last >= start and n == count - 1:
            w[last] = sums[last - 1]
            np.add.accumulate(weights[last:], out=run[last:])
            w[last] = 0.0
        else:
            np.add.accumulate(weights, out=run)
        count = n
        total = sums[-1]
        if not 0 < total < inf:
            cand = free.nonzero()[0]
            last = int(cand[min(int(r * cand.size), cand.size - 1)])
            return last
        k = bisect_left(sums, r * total)
        # a zero entry leaves the sum as it was, so it comes first only at k = 0
        if k < size and w[k] > 0:
            last = k
            return k
        positive = (weights > 0).nonzero()[0]
        last = int(positive[0] if k < size else positive[-1])
        return last

    return pick


def construct_solution(
    instance: Instance,
    budget: int,
    tau: np.ndarray,
    eta: np.ndarray,
    params: AcoParams,
    gen: np.random.Generator,
) -> CoverTracker:
    """One ant's probabilistic greedy fill, always feasible; returns its tracker.

    Candidates at each step are the unchosen customers whose marginal
    cost keeps the running cost within budget; the walk stops when no
    candidate remains.  tau is constant during a single construction,
    so the rule's weights are computed once up front, over all customers;
    the fill sets the weight of every customer that is chosen or stops
    fitting to 0.0, and each step refills the construction's one
    running-sum buffer, over all of them or from the customer picked last
    on; ``choose`` passes on the fill's candidate count, which tells the
    roulette whether only that customer was zeroed (:func:`_roulette`).
    The rule never reads a marginal, so the fill keeps them up to date
    only where it filters the candidates and once before returning
    (``reads_marginals=False`` in :func:`~nrpbench.model._construct`).

    Step k reads the k-th of m uniforms that ``gen.random(m)`` draws
    before the fill, m being the number of customers and so the most
    steps a fill takes.  Each step adds one customer, so the fill used as
    many as it selected, and ``gen`` is put back where that many scalar
    ``gen.random()`` calls leave it (:func:`~nrpbench.rng.draw_ahead`).
    """
    weights = tau ** params.alpha * eta ** params.beta
    pick = _roulette(weights)
    block, put_back = rng.draw_ahead(gen, gen.random, instance.n_customers)
    uniform = iter(memoryview(block)).__next__

    def choose(cover, free, n):
        return pick(uniform(), free, n)

    cover = _construct(instance, budget, choose, weights, 0.0, reads_marginals=False)
    put_back(int(np.count_nonzero(cover.selected)))
    return cover


def evaporate(tau: np.ndarray, rho: float) -> None:
    """Decay every trail by (1 - rho), in place."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    tau *= 1.0 - rho


def deposit(tau: np.ndarray, covers, gamma: float) -> None:
    """Each ant adds gamma * its profit onto the customers its tracker selects, in place."""
    for cover in covers:
        tau[cover.selected] += gamma * cover.profit


def run(
    instance: Instance,
    budget: int,
    params: AcoParams,
    seed: int,
) -> RunResult:
    """Full colony run; returns the incumbent, its trace, and the final trail.

    Ant k of iteration i draws from the stream (seed, ANT, i, k), so the
    result is the same no matter how the ants are scheduled.
    """
    tau = init_pheromone(instance)
    eta = heuristic_info(instance)
    best = evaluate(instance, ())
    trace: list[tuple[int, int]] = []
    for it in range(1, params.iterations + 1):
        covers = []
        for k in range(1, params.ants + 1):
            gen = rng.substream(seed, rng.ANT, it, k)
            cover = construct_solution(instance, budget, tau, eta, params, gen)
            if params.use_local_search:
                cover = sweep_improve(instance, budget, cover, gen)
            covers.append(cover)
        evaporate(tau, params.rho)
        deposit(tau, covers, params.gamma)
        for cover in covers:
            if cover.profit > best.profit:
                best = cover.solution()
        trace.append((it, best.profit))
    return RunResult(best=best, trace=trace, tau=tau)
