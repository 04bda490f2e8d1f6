"""Ant colony solvers with a per-customer pheromone trail.

Each customer carries a pheromone value, initialized proportional to
profit and scaled into (0, 1].  Ants build solutions one customer at a
time with the random proportional rule: candidate i is picked with
probability tau_i^alpha * eta_i^beta, normalized over the still
affordable, unchosen customers, where eta_i is the static
profit-to-closure-cost ratio.  After all ants of an iteration finish
(optionally each polished to a 1-swap local optimum by the sweeping
climb), the trail evaporates once by factor (1 - rho) and every ant
deposits gamma * profit(solution) on the customers it selected.

With local search enabled the solver is the hybrid variant (HACO);
without it, plain ACO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .local_search import sweep_improve
from .model import Instance, Solution, _construct, evaluate


class EmptyCandidateSetError(Exception):
    """Selection probabilities were requested for an empty candidate set."""


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
class PheromoneState:
    tau: np.ndarray  # one value per customer, 1-based id i at tau[i-1]
    theta: float


@dataclass
class RunResult:
    best: Solution
    trace: list[tuple[int, int]]  # (iteration, best profit so far)
    pheromone: PheromoneState


def init_pheromone(instance: Instance) -> PheromoneState:
    """Start every trail at theta * profit with theta = 1 / max profit (1 without customers)."""
    instance.require_valid()
    theta = 1.0 / float(instance.profit_vector.max(initial=1))
    return PheromoneState(tau=theta * instance.profit_vector.astype(np.float64), theta=theta)


def heuristic_info(instance: Instance) -> np.ndarray:
    """Static desirability eta_i = profit_i / max(1, closure_cost_i).

    A customer with an empty closure is free profit; the guard keeps its
    ratio finite, as GRASP's score does.
    """
    instance.require_valid()
    return instance.profit_vector / np.maximum(1.0, instance.closure_cost_vector)


def _normalise(weights: np.ndarray) -> np.ndarray:
    """Weights scaled to sum to 1; uniform when their total is zero or not finite."""
    total = weights.sum()
    if 0 < total < np.inf:
        return weights / total
    # degenerate trail (e.g. fully evaporated): fall back to uniform
    return np.full(weights.size, 1.0 / weights.size)


def selection_probabilities(
    state: PheromoneState,
    eta: np.ndarray,
    candidates,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Random-proportional-rule probabilities, zero outside the candidate set.

    ``candidates`` holds 1-based customer ids; the returned array has one
    entry per customer.
    """
    cand = np.asarray(sorted(int(c) for c in candidates), dtype=np.intp)
    if cand.size == 0:
        raise EmptyCandidateSetError("no candidates to choose from")
    probs = np.zeros(len(eta), dtype=np.float64)
    probs[cand - 1] = _normalise(state.tau[cand - 1] ** alpha * eta[cand - 1] ** beta)
    return probs


def roulette_select(probabilities: np.ndarray, r: float) -> int:
    """First customer (in id order) whose cumulative probability reaches r.

    Works on any probability vector: the result is the 1-based position
    of the chosen entry.  Rounding can leave r above the final cumulative
    value; the last entry with positive probability is returned then.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    positive = (p > 0).nonzero()[0]
    if positive.size == 0:
        raise ValueError("no positive-probability candidate")
    cum = p[positive].cumsum()
    k = int(cum.searchsorted(r, side="left"))
    if k >= positive.size:
        k = positive.size - 1
    return int(positive[k]) + 1


def construct_solution(
    instance: Instance,
    budget: int,
    state: PheromoneState,
    eta: np.ndarray,
    params: AcoParams,
    gen: np.random.Generator,
) -> Solution:
    """One ant's probabilistic greedy fill, always feasible.

    Candidates at each step are the unchosen customers whose marginal
    cost keeps the running cost within budget; the walk stops when no
    candidate remains.  tau is constant during a single construction,
    so the rule's weights are computed once up front.
    """
    weights = state.tau ** params.alpha * eta ** params.beta
    if not (np.isfinite(weights).all() and weights.sum() > 0):
        weights = np.ones(instance.n_customers, dtype=np.float64)

    def choose(cover, cand):
        return int(cand[roulette_select(_normalise(weights[cand]), gen.random()) - 1])

    return _construct(instance, budget, choose)


def evaporate(state: PheromoneState, rho: float) -> PheromoneState:
    """Decay every trail by (1 - rho), in place."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    state.tau *= 1.0 - rho
    return state


def deposit(state: PheromoneState, solutions, gamma: float) -> PheromoneState:
    """Each ant adds gamma * its solution profit onto its selected customers."""
    for sol in solutions:
        if not sol.selected:
            continue
        idx = [c - 1 for c in sol.selected]
        state.tau[idx] += gamma * sol.profit
    return state


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
    instance.require_valid()
    state = init_pheromone(instance)
    eta = heuristic_info(instance)
    best = evaluate(instance, ())
    trace: list[tuple[int, int]] = []
    for it in range(1, params.iterations + 1):
        sols = []
        for k in range(1, params.ants + 1):
            gen = rng.substream(seed, rng.ANT, it, k)
            sol = construct_solution(instance, budget, state, eta, params, gen)
            if params.use_local_search:
                sol = sweep_improve(instance, budget, sol, gen)
            sols.append(sol)
        evaporate(state, params.rho)
        deposit(state, sols, params.gamma)
        for sol in sols:
            if sol.profit > best.profit:
                best = sol
        trace.append((it, best.profit))
    return RunResult(best=best, trace=trace, pheromone=state)
