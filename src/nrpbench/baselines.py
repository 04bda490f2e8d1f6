"""Comparison solvers: GRASP, simulated annealing, and an exact oracle.

GRASP alternates a greedy-randomized construction (rank affordable
customers by profit per marginal cost, pick uniformly from the top of
the list) with the same first-found hill climb the restart solver uses.

The annealer flips one customer's membership per step through a
:class:`~nrpbench.model.CoverTracker` started from a random feasible
selection, rejects infeasible proposals outright, and cools with the
Lundy-Mees update temp <- temp / (1 + lm_beta * temp) applied after
each attempt.  The schedule's initial temperature, final temperature,
and step granularity are documented defaults, not literature values;
all are configurable.

The exact solver enumerates customer subsets depth-first in id order
with a remaining-profit bound and is guarded to small customer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .local_search import improve, random_feasible
from .model import CoverTracker, Instance, Solution, _construct, evaluate


class TooLargeError(Exception):
    """Instance exceeds the exact solver's enumeration guard."""


@dataclass
class GraspParams:
    restarts: int = field(default=100, metadata={"help": "restarts"})
    rcl_length: int = field(default=10, metadata={"help": "candidate list length"})

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.rcl_length < 1:
            raise ValueError("rcl_length must be positive")


@dataclass
class SaParams:
    lm_beta: float = field(default=0.05, metadata={"help": "cooling parameter"})
    # None: calibrate from probe moves
    initial_temp: float | None = field(default=None, metadata={"help": "fixed start temperature"})
    final_temp: float = field(default=1e-4, metadata={"help": "stop temperature"})
    moves_per_temp: int = field(default=1, metadata={"help": "moves per cooling step"})

    def __post_init__(self):
        if self.lm_beta <= 0:
            raise ValueError("lm_beta must be positive")
        if self.final_temp <= 0:
            raise ValueError("final_temp must be positive")
        if self.initial_temp is not None and self.initial_temp <= self.final_temp:
            raise ValueError("initial_temp must exceed final_temp")
        if self.moves_per_temp < 1:
            raise ValueError("moves_per_temp must be positive")


def grasp_construct(
    instance: Instance, budget: int, rcl_length: int, gen: np.random.Generator
) -> Solution:
    """Greedy-randomized fill restricted to the top-`rcl_length` candidates.

    Candidates are scored by profit / max(1, marginal cost) and ranked
    score-descending with ties to the smaller id, so rcl_length = 1 is
    the deterministic greedy.
    """
    profits = instance.profit_vector

    def choose(cover, cand):
        score = profits[cand] / np.maximum(1.0, cover.marginal[cand])
        rcl = cand[np.lexsort((cand, -score))[:rcl_length]]
        return int(rcl[int(gen.integers(0, rcl.size))])

    return _construct(instance, budget, choose)


def grasp(instance: Instance, budget: int, params: GraspParams, seed: int) -> Solution:
    """Best of `restarts` construct-then-improve rounds."""
    instance.require_valid()
    best: Solution | None = None
    for i in range(1, params.restarts + 1):
        gen = rng.substream(seed, rng.GRASP_RESTART, i)
        sol = grasp_construct(instance, budget, params.rcl_length, gen)
        sol = improve(instance, budget, sol, gen)
        if best is None or sol.profit > best.profit:
            best = sol
    return best


def lundy_mees(temp: float, lm_beta: float) -> float:
    """One cooling step: temp / (1 + lm_beta * temp)."""
    return temp / (1.0 + lm_beta * temp)


def _calibrate_temp(instance, selected, params, seed) -> float:
    """Initial temperature accepting ~90% of probed worsening moves.

    From a feasible start the worsening proposals are the removals
    (adds either improve or are infeasible), so the probe samples flip
    targets and collects the profit losses of the selected ones.
    """
    gen = rng.substream(seed, rng.SA_PROBE)
    profits = instance.profit_vector
    losses = []
    for _ in range(100):
        j = int(gen.integers(0, instance.n_customers))
        if selected[j]:
            losses.append(float(profits[j]))
    if not losses:
        return max(1.0, 10.0 * params.final_temp)
    q90 = float(np.quantile(np.asarray(losses), 0.9))
    return max(q90 / -math.log(0.9), 10.0 * params.final_temp)


def sa(instance: Instance, budget: int, params: SaParams, seed: int) -> Solution:
    """Single-flip annealing from a random feasible start; returns best visited.

    Flip targets and acceptance draws are consumed in fixed-size blocks,
    one pair per attempt whatever the outcome, so the walk is a pure
    function of the seed.
    """
    instance.require_valid()
    gen = rng.substream(seed, rng.SA_CHAIN)
    m = instance.n_customers
    start = random_feasible(instance, budget, gen)
    if m == 0:
        return start
    profits = instance.profit_vector.tolist()
    cover = CoverTracker(instance, start.selected)
    profit = start.profit

    temp = params.initial_temp
    if temp is None:
        temp = _calibrate_temp(instance, cover.selected, params, seed)

    best_sel = cover.selected.copy()
    best_profit = profit
    chunk = 8192
    pos = chunk
    buf_j: list[int] = []
    buf_u: list[float] = []
    while temp > params.final_temp:
        for _ in range(params.moves_per_temp):
            if pos == chunk:
                buf_j = gen.integers(0, m, size=chunk).tolist()
                buf_u = gen.random(chunk).tolist()
                pos = 0
            j = buf_j[pos]
            u = buf_u[pos]
            pos += 1
            if cover.selected[j]:
                if u < math.exp(-profits[j] / temp):
                    cover.drop(j)
                    profit -= profits[j]
            elif cover.cost + cover.marginal[j] <= budget:
                # adds always raise profit (it is positive): accept outright
                cover.add(j)
                profit += profits[j]
                if profit > best_profit:
                    best_profit = profit
                    best_sel = cover.selected.copy()
        temp = lundy_mees(temp, params.lm_beta)

    return CoverTracker(instance, best_sel.nonzero()[0] + 1).solution()


def expected_sa_attempts(params: SaParams, initial_temp: float | None = None) -> int:
    """Rough move-attempt count implied by the cooling parameters."""
    t0 = initial_temp if initial_temp is not None else params.initial_temp
    if t0 is None:
        t0 = 1.0
    steps = max(0.0, (1.0 / params.final_temp - 1.0 / t0) / params.lm_beta)
    return int(math.ceil(steps)) * params.moves_per_temp


def exact(instance: Instance, budget: int, guard: int = 25) -> Solution:
    """Optimal solution by pruned depth-first subset enumeration.

    Ties prefer the lexicographically smallest id set.  Refuses
    instances with more than `guard` customers.
    """
    instance.require_valid()
    m = instance.n_customers
    if m > guard:
        raise TooLargeError(f"exact solver limited to {guard} customers, instance has {m}")

    costs = [r.cost for r in instance.requirements]
    masks = []
    for cust in instance.customers:
        bits = 0
        for r in cust.closure:
            bits |= 1 << (r - 1)
        masks.append(bits)
    profits = [c.profit for c in instance.customers]
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + profits[i]

    best_profit = 0
    best_sel: tuple[int, ...] = ()

    def added_cost(covered: int, mask: int) -> int:
        new = mask & ~covered
        total = 0
        while new:
            low = new & -new
            total += costs[low.bit_length() - 1]
            new ^= low
        return total

    def dfs(i: int, covered: int, cost: int, profit: int, chosen: list[int]) -> None:
        nonlocal best_profit, best_sel
        if profit > best_profit:
            best_profit = profit
            best_sel = tuple(chosen)
        if i == m or profit + suffix[i] <= best_profit:
            return
        extra = added_cost(covered, masks[i])
        if cost + extra <= budget:
            chosen.append(i + 1)
            dfs(i + 1, covered | masks[i], cost + extra, profit + profits[i], chosen)
            chosen.pop()
        dfs(i + 1, covered, cost, profit, chosen)

    dfs(0, 0, 0, 0, [])
    return evaluate(instance, best_sel)
