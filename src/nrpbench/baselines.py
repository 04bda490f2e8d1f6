"""Comparison solvers: GRASP, simulated annealing, and an exact oracle.

GRASP alternates a greedy-randomized construction (rank affordable
customers by profit per marginal cost, pick uniformly from the top of
the list) with the same first-found hill climb the restart solver uses.
Each step keys every customer, the ones chosen or not fitting at +inf,
and ranks only the head of the list.  A partition sets a score
threshold deeper than the list, and later steps keep reusing it: the
candidates scoring at least that much are sorted, and as long as there
are enough of them for a full list, their head is the head of a full
sort.  Only a step left with too few partitions again.

The annealer flips one customer's membership per step through a
:class:`~nrpbench.model.CoverTracker`, the one
:func:`~nrpbench.local_search.random_feasible` fills, rejects infeasible
proposals outright, and cools with the Lundy-Mees update
temp <- temp / (1 + lm_beta * temp) applied after every
``moves_per_temp`` attempts.  The schedule's initial temperature,
final temperature, and step granularity are documented defaults, not
literature values; all are configurable.  The chain stops at the final
temperature, or earlier once it is frozen: no unselected customer fits
and the temperature is too low for any drop to pass, so every later
attempt would be refused and the result is the same.  Frozenness is
looked at once per block of draws, before the block is drawn.

The exact solver solves the integer program of Bagnall, Rayward-Smith &
Whittley (IST 43(14), 2001) with HiGHS, through ``scipy.optimize.milp``,
on one thread and with no time limit: one binary x_i per customer, one
y_r in [0, 1] per requirement, x_i <= y_r over each customer's closure,
and sum(c_r * y_r) <= budget.  scipy is imported on the first call only.
HiGHS's tolerances admit answers over budget, or short of the optimum,
once costs reach about 10**6, so costs of ``EXACT_COST_LIMIT`` and up are refused.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .local_search import _best_of_restarts, _check_kinds, random_feasible
from .model import CoverTracker, Instance, Solution, _construct


# the most branch-and-bound nodes :func:`exact` lets HiGHS explore
EXACT_NODE_LIMIT = 10_000
# the total cost from which :func:`exact` refuses an instance
EXACT_COST_LIMIT = 10**5
# GRASP's threshold: the key this many candidate-list lengths deep
_RCL_DEPTH = 2


class TooLargeError(Exception):
    """The exact solver refused: a total cost of ``EXACT_COST_LIMIT`` (10**5) or more,
    no optimum proven within the node limit, or HiGHS's answer over the budget."""


@dataclass
class GraspParams:
    restarts: int = field(default=100, metadata={"help": "restarts"})
    rcl_length: int = field(default=10, metadata={"help": "candidate list length"})

    def __post_init__(self):
        _check_kinds(self)
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
        _check_kinds(self)
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
) -> CoverTracker:
    """Greedy-randomized fill restricted to the top-`rcl_length` candidates;
    returns its tracker.

    Candidates are scored by profit / max(1, marginal cost) and ranked
    score-descending with ties to the smaller id, so rcl_length = 1 is
    the deterministic greedy.  Each step keys every customer with two
    in-place ufuncs, (-profit) / max(1, marginal), which is exactly minus
    the score; the fill sets the negated profit of every customer that is
    chosen or stops fitting to +inf, so such a customer keys +inf and
    ranks after every candidate.  Only the head of the ranking is sorted
    (:func:`_top_k`), from a threshold carried from step to step; the
    list is the one a full sort gives.

    A step picks list position ``gen.integers(0, rcl.size)``.  While the
    list is full (n >= rcl_length candidates), the positions come from one
    ``gen.integers(0, rcl_length, size=m)`` drawn before the fill, m being
    the number of customers; the candidates only shrink, so those steps
    come first.  At the first short list, or at the end if none comes,
    ``gen`` is put back where one scalar call per full-list step leaves it
    (:func:`~nrpbench.rng.draw_ahead`), and each short list draws its own.
    With rcl_length > m no list is full and nothing is drawn ahead.
    """
    negp = np.negative(instance.profit_vector, dtype=np.float64)
    key = np.empty_like(negp)
    thr = -np.inf
    put_back = None
    if rcl_length <= instance.n_customers:
        block, put_back = rng.draw_ahead(
            gen, lambda k: gen.integers(0, rcl_length, size=k), instance.n_customers)
        position = iter(memoryview(block)).__next__

    def choose(cover, free, n):
        nonlocal thr, put_back
        np.maximum(cover.marginal, 1.0, out=key)
        np.divide(negp, key, out=key)
        rcl, thr = _top_k(key, rcl_length, thr, n)
        if n >= rcl_length:
            return int(rcl[position()])
        if put_back:  # every step so far was a full list and added one customer
            put_back(int(np.count_nonzero(cover.selected)))
            put_back = None
        return int(rcl[int(gen.integers(0, rcl.size))])

    cover = _construct(instance, budget, choose, negp, np.inf, reads_marginals=True)
    if put_back:
        put_back(int(np.count_nonzero(cover.selected)))
    return cover


def _top_k(key: np.ndarray, k: int, thr: float, n: int) -> tuple[np.ndarray, float]:
    """Positions of the ``k`` smallest keys, ascending, ties to the smaller
    position, and the threshold to pass to the next call.

    ``n`` keys are finite, the candidates'; the others are +inf and are
    never returned.  Equal to ``np.lexsort((positions, key))[:min(k, n)]``
    whatever ``thr`` is, as long as it is finite or -inf: when at least
    ``min(k, n)`` keys are at or below ``thr``, so is the k-th smallest, so
    every key of the head is kept, ties included, and a stable sort of the
    kept ones gives the head.  Otherwise a partition sets ``thr`` to the
    (``_RCL_DEPTH * k``)-th smallest key, or the largest finite one when
    fewer are finite, and keeps again.
    """
    kept = (key <= thr).nonzero()[0]
    if kept.size < min(k, n):
        depth = min(_RCL_DEPTH * k, n)
        thr = np.partition(key, depth - 1)[depth - 1]
        kept = (key <= thr).nonzero()[0]
    return kept[key[kept].argsort(kind="stable")[:k]], thr


def grasp(instance: Instance, budget: int, params: GraspParams, seed: int) -> Solution:
    """Best of `restarts` construct-then-improve rounds."""
    return _best_of_restarts(instance, budget, params.restarts, seed, rng.GRASP_RESTART,
                             lambda gen: grasp_construct(instance, budget, params.rcl_length, gen))


def lundy_mees(temp: float, lm_beta: float) -> float:
    """One cooling step: temp / (1 + lm_beta * temp)."""
    return temp / (1.0 + lm_beta * temp)


def _calibrate_temp(instance, selected, params, seed) -> float:
    """Initial temperature accepting ~90% of probed worsening moves.

    From a feasible start the worsening proposals are the removals
    (adds either improve or are infeasible), so the probe samples flip
    targets and collects the profit losses of the selected ones.
    """
    js = rng.substream(seed, rng.SA_PROBE).integers(0, instance.n_customers, size=100)
    losses = instance.profit_vector[js[np.asarray(selected)[js]]].astype(np.float64)
    if not losses.size:
        return max(1.0, 10.0 * params.final_temp)
    q90 = float(np.quantile(losses, 0.9))
    return max(q90 / -math.log(0.9), 10.0 * params.final_temp)


def sa(instance: Instance, budget: int, params: SaParams, seed: int) -> Solution:
    """Single-flip annealing from a random feasible start; returns best visited.

    Flip targets and acceptance draws are consumed in fixed-size blocks,
    one pair per attempt whatever the outcome, so the walk is a pure
    function of the seed.  Before each block is drawn the chain stops if
    it is frozen (:func:`_frozen`): from there on every attempt is
    refused, so the full schedule would return the same selection.
    ``lundy_mees`` cools after every ``moves_per_temp`` attempts, counted
    across blocks.
    """
    gen = rng.substream(seed, rng.SA_CHAIN)
    m = instance.n_customers
    cover = random_feasible(instance, budget, gen)
    if m == 0:
        return cover.solution()
    profits = instance.profit_vector.tolist()
    profit = cover.profit

    temp = params.initial_temp
    if temp is None:
        temp = _calibrate_temp(instance, cover.selected, params, seed)

    best_sel = cover.selected.copy()
    best_profit = profit
    tried = 0  # attempts at the current temperature
    # stop once frozen, as every later attempt would be refused; looked at per block of draws
    while temp > params.final_temp and not _frozen(cover, budget, instance.profit_vector, temp):
        for j, u in zip(gen.integers(0, m, size=8192).tolist(), gen.random(8192).tolist()):
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
            tried = (tried + 1) % params.moves_per_temp
            if not tried:
                temp = lundy_mees(temp, params.lm_beta)
                if temp <= params.final_temp:
                    break

    return CoverTracker(instance, best_sel.nonzero()[0] + 1).solution()


def _frozen(cover: CoverTracker, budget: int, profits: np.ndarray, temp: float) -> bool:
    """True when no flip can be accepted at ``temp`` or any colder temperature.

    No unselected customer fits, and a drop of the smallest selected
    profit p has p / temp >= 750, past exp's underflow to 0 at about 745,
    so its acceptance test ``u < exp(-p / temp)`` with u >= 0 fails.
    """
    if cover.affordable(budget).size:
        return False
    return not cover.selected.any() or profits[cover.selected].min() >= 750.0 * temp


def exact(instance: Instance, budget: int) -> Solution:
    """An optimal solution, proven by HiGHS; among tied optima one of them,
    the same one on every run.  Raises :class:`TooLargeError` in the cases
    it lists; the answer is re-costed in integers to catch the last.
    """
    m, n = instance.n_customers, instance.n_requirements
    if m == 0:  # milp refuses a program with no variables
        return CoverTracker(instance).solution()
    if instance.total_cost >= EXACT_COST_LIMIT:
        raise TooLargeError(f"total cost {instance.total_cost} reaches the limit of "
                            f"{EXACT_COST_LIMIT}")
    from scipy.optimize import milp
    from scipy.sparse import coo_array

    # closure entry e (customer row[e], requirement req[e]) gives x_row - y_req <= 0
    row, req = instance._csr_row, instance._csr_req
    links = coo_array((np.repeat([1.0, -1.0], row.size),
                       (np.tile(np.arange(row.size), 2), np.concatenate([row, m + req]))),
                      shape=(row.size, m + n))
    spend = np.concatenate([np.zeros(m), instance._cost_f64])
    with warnings.catch_warnings():
        # milp passes options it does not know ("threads") on to HiGHS verbatim
        warnings.filterwarnings("ignore", message="Unrecognized options", category=RuntimeWarning)
        res = milp(-np.concatenate([instance.profit_vector, np.zeros(n)]),
                   integrality=np.concatenate([np.ones(m), np.zeros(n)]), bounds=(0, 1),
                   constraints=[(links, -np.inf, 0), (spend, -np.inf, budget)],
                   options={"mip_rel_gap": 0, "threads": 1, "presolve": False,
                            "mip_heuristic_run_feasibility_jump": False,
                            "node_limit": EXACT_NODE_LIMIT})
    if res.status != 0:
        # scipy wraps statuses it does not map (the node limit's among them)
        # in "...not recognized. (HiGHS Status 16: ...)": quote HiGHS's part
        status = re.search(r"\((HiGHS Status [^)]*)\)", res.message)
        raise TooLargeError(f"no optimum proven within the node limit of {EXACT_NODE_LIMIT}, "
                            f"{status[1] if status else 'HiGHS says: ' + res.message}")
    sol = CoverTracker(instance, np.flatnonzero(res.x[:m] > 0.5) + 1).solution()
    if sol.cost > budget:
        raise TooLargeError(f"HiGHS's answer costs {sol.cost}, over the budget {budget}")
    return sol
