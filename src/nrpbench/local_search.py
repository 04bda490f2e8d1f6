"""Hill climbing over customer selections: feasible adds and 1-swaps.

Two climbs of different strength are two draw rules over one loop.  Each
round the loop draws an order of the unselected customers and takes the
first move in it: an add of the first customer that fits within budget,
else, for the first customer that can be swapped in at a profit gain, the
best such swap (maximum gain, ties to the smaller outgoing id).  The climb
ends at the first order with no move.  The cover state is one
:class:`~nrpbench.model.CoverTracker` started from the given selection,
whose computed cost must fit the budget.

`improve` is the cheap first-found variant: its order is one unselected
customer drawn uniformly, so it stops the first time the sampled
customer can neither be added nor swapped in.  The result is feasible
and at least as profitable as the start, but it may still admit moves
through other customers.

`sweep_improve` draws a random permutation of all unselected customers
each pass, so its output is a certified 1-swap local optimum: no
feasible addition and no profit-improving feasible swap exists at all.
The ant-colony hybrid uses this stronger operator on each constructed
solution.  Swapping j in for l costs at least cost + marginal(j) - freed(l),
so j needs a selected l of lower profit that frees at least that excess
over budget.  The tracker keeps freed flip by flip, and the profits are
ranked once when the instance is built, so one running maximum of freed
along the profit order and one binary search into it give, for every
customer of the order at once, the least profitable l that frees enough.
That l is j's best partner unless j itself needs some of what only l
covers, which is rare; only then are the other partners of lower profit
checked, in one vectorised pass.  The pass walks the closures of the
customers it tries, in order, and stops at the first with a move.  So a
pass costs a few numpy calls over the customers plus, most often, one
closure walk, and nothing over every requirement.

The standalone restart solver climbs with `improve` from independent
random feasible selections and keeps the best result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .model import CoverTracker, Instance, Solution


class InfeasibleStartError(Exception):
    """The starting selection already exceeds the budget."""


@dataclass
class FhcParams:
    restarts: int = field(default=100, metadata={"help": "restarts"})

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


def random_feasible(instance: Instance, budget: int, gen: np.random.Generator) -> Solution:
    """Greedy fill along a uniformly random customer order."""
    cover = CoverTracker(instance)
    for idx in gen.permutation(instance.n_customers).tolist():
        if cover.cost + cover.marginal[idx] <= budget:
            cover.add(idx)
    return cover.solution()


def improve(instance: Instance, budget: int, start: Solution, gen: np.random.Generator) -> Solution:
    """First-found climb: stops when one sampled customer cannot move.

    Each round draws j uniformly from the unselected customers, with one
    ``gen.integers`` call.  A feasible add of j is taken outright;
    otherwise the best feasible profit-improving swap for j (maximum
    gain, ties to the smaller outgoing id) is taken; if neither exists
    the climb ends.
    """
    return _climb(instance, budget, start, lambda out: out[[gen.integers(0, out.size)]])


def sweep_improve(instance: Instance, budget: int, start: Solution,
                  gen: np.random.Generator) -> Solution:
    """Climb from a feasible selection to a 1-swap local optimum.

    Passes repeat until no move exists.  A pass visits the unselected
    customers in random order; the first one that can either be added
    within budget or swapped in at a strict profit gain triggers the
    move and the pass restarts.  Among the swaps for a given incomer
    the most profitable feasible one wins (ties: smaller outgoing id).
    The returned selection admits no feasible addition and no
    profit-improving 1-swap at all.

    Every pass draws one ``gen.permutation`` of the unselected customers,
    the last pass (which finds no move) included; :func:`_first_move`
    walks only the closures of the customers it tries.
    """
    return _climb(instance, budget, start, gen.permutation)


def _climb(instance: Instance, budget: int, start: Solution, draw) -> Solution:
    """Take the first move in ``draw(unselected ids)`` until an order has none."""
    cover = CoverTracker(instance, start.selected)
    if cover.cost > budget:
        raise InfeasibleStartError(f"start cost {cover.cost} exceeds budget {budget}")
    while True:
        out_idx = (~cover.selected).nonzero()[0]
        if out_idx.size == 0:
            break
        move = _first_move(instance, cover, budget, draw(out_idx))
        if move is None:
            break
        j, l = move
        cover.add(j)
        if l is not None:
            cover.drop(l)
    return cover.solution()


def _first_move(instance: Instance, cover: CoverTracker, budget: int,
                order: np.ndarray) -> tuple[int, int | None] | None:
    """(incoming, outgoing or None for an add) of the first movable customer in ``order``.

    Row j's excess need(j) = cost + marginal(j) - budget is worked out once
    for the whole order: j fits when it is at most 0.  Swapping j in for l
    fits when freed(l) - kept(j, l) >= need(j) and raises profit when
    p(l) < p(j); the best swap drops the least profitable such l, ties to
    the smaller id, which is the first one along the instance's profit
    order.  kept >= 0, so no l ahead of position ``first``, where the
    running maximum of freed along that order first reaches need(j), can
    fit, and a row whose ``first`` lies beyond its ``_lower_profits`` has
    no move.  The customer at ``first`` frees at least need(j), so unless
    j re-covers some of it, it is the move; otherwise the later positions
    of lower profit are checked at once with j's kept costs patched in.
    Unselected customers free 0 and the empty prefix reads the 0 of
    freed's slot n, so neither is ever a partner: a row before the first
    add exceeds the budget by at least 1.
    """
    need = cover.cost + cover.marginal[order] - budget
    add_ok = (need <= 0).nonzero()[0]
    end = int(add_ok[0]) if add_ok.size else order.size
    if end:
        by_profit, freed = instance._by_profit, cover.freed()
        first = np.maximum.accumulate(freed[by_profit]).searchsorted(need[:end])
        lower = instance._lower_profits[order[:end]]
        for row in (first <= lower).nonzero()[0].tolist():
            j, at = int(order[row]), int(first[row])
            kept = cover.kept(j)
            best = int(by_profit[at])
            if freed[best] - kept.get(best, 0) >= need[row]:
                return j, best
            later = by_profit[at + 1:lower[row] + 1]
            patch = np.zeros_like(freed)
            patch[list(kept)] = list(kept.values())
            fits = (freed[later] - patch[later] >= need[row]).nonzero()[0]
            if fits.size:
                return j, int(later[fits[0]])
    return (int(order[end]), None) if end < order.size else None


def fhc(instance: Instance, budget: int, params: FhcParams, seed: int) -> Solution:
    """Best of `restarts` independent random-start first-found climbs.

    Restart i draws from the stream (seed, FHC_RESTART, i); ties keep
    the earliest restart's result.
    """
    best: Solution | None = None
    for i in range(1, params.restarts + 1):
        gen = rng.substream(seed, rng.FHC_RESTART, i)
        sol = improve(instance, budget, random_feasible(instance, budget, gen), gen)
        if best is None or sol.profit > best.profit:
            best = sol
    return best
