"""Ant colony solvers with a per-customer pheromone trail.

Each customer carries a pheromone value, initialized proportional to
profit and scaled into (0, 1]; the trail is one float64 array that the
update steps change in place, and :func:`run` returns the final one as
``RunResult.tau``.  Ants build solutions one customer at a time with the
random proportional rule: each step draws one uniform r and picks the
first still affordable, unchosen customer whose running sum of weights
tau_i^alpha * eta_i^beta reaches r times their total, where eta_i is the
static profit-to-closure-cost ratio.  The sum runs over every customer's
weight, with 0.0 for each one that is chosen or does not fit, so it is
the candidates' own running sum and no step gathers their weights.  A
construction keeps one buffer for that sum, refills it in place every
step, and finds r times the total in it with ``bisect`` on a memoryview,
so a step makes no new array and one numpy call for the sum.
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
from .local_search import sweep_improve
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


def _roulette(weights: np.ndarray):
    """The random proportional rule over ``weights``: returns ``pick(r, free)``,
    the candidate drawn by ``r`` in [0, 1), a 0-based id.

    The candidates are the entries ``free`` marks, and every other entry of
    ``weights`` is 0.0.  Candidate k is picked with probability
    ``weights[k] / sum(weights)``: the first entry whose running sum
    reaches ``r`` times the total.  A 0.0 leaves the running sum as it was,
    so the sum at each candidate is the one over the candidates alone.
    Zero entries are never chosen: r = 0 gives the first positive entry,
    and an r of 1 or more the last.  A total that is zero or not finite (a
    trail evaporated to nothing, weights that overflowed) makes every
    candidate weigh the same: r picks candidate min(int(r * n), n - 1) of
    the n, in id order.

    ``weights`` may change in place between picks; each pick refills one
    running-sum buffer from it.  The weights are never negative, so the
    sums never decrease, and ``bisect_left`` on them is
    ``searchsorted(side="left")``; it and the scalar reads go through
    memoryviews, which skips a numpy call per read.
    """
    run = np.empty_like(weights)
    sums, w, size = memoryview(run), memoryview(weights), weights.size

    def pick(r: float, free: np.ndarray) -> int:
        np.add.accumulate(weights, out=run)
        total = sums[-1]
        if not 0 < total < inf:
            cand = free.nonzero()[0]
            return int(cand[min(int(r * cand.size), cand.size - 1)])
        k = bisect_left(sums, r * total)
        # a zero entry leaves the sum as it was, so it comes first only at k = 0
        if k < size and w[k] > 0:
            return k
        positive = (weights > 0).nonzero()[0]
        return int(positive[0] if k < size else positive[-1])

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
    running-sum buffer over all of them (:func:`_roulette`).
    """
    weights = tau ** params.alpha * eta ** params.beta
    pick = _roulette(weights)

    def choose(cover, free, n):
        return pick(gen.random(), free)

    return _construct(instance, budget, choose, weights, 0.0)


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
