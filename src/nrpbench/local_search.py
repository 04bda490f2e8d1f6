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
solution.  A pass first drops every customer that no swap could pay for:
swapping j in for l costs at least cost + marginal(j) - freed(l), so j
needs a selected l of lower profit that frees at least that excess over
budget.  One running maximum of freed along the instance's profit order,
which is ranked once when the instance is built, answers this for the
whole order; the tracker keeps freed flip by flip.  The pass then prices
swaps for the rest in doubling blocks of the order and stops at the first
block with a movable customer; since no movable customer is dropped, the
move is the one a full pricing of the order would give.  So a pass costs
a few numpy calls over the customers plus the priced rows' closures, and
nothing over every requirement.

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
    prices only as much of that order as it needs.
    """
    return _climb(instance, budget, start, lambda out: out[gen.permutation(out.size)])


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


# rows priced by the first block of a pass; later blocks double in size
_FIRST_BLOCK = 8


def _first_move(instance: Instance, cover: CoverTracker, budget: int,
                order: np.ndarray) -> tuple[int, int | None] | None:
    """(incoming, outgoing or None for an add) of the first movable customer in ``order``.

    Adds are checked for the whole order at once.  Of the customers before
    the first feasible add, only those :func:`_may_swap` keeps are priced,
    in disjoint blocks that double in size, stopping at the first block
    with a movable one.  The bound drops no movable customer, so the first
    movable one, and its move, are those of pricing every row.  A swap
    must fit the budget and raise profit; the best one drops the least
    profitable partner, ties to the smaller id.  Rows are priced against
    every customer, but a row before the first add exceeds the budget
    unless it drops a selected one, so only selected columns can fit.
    """
    add_ok = (cover.cost + cover.marginal[order] <= budget).nonzero()[0]
    end = int(add_ok[0]) if add_ok.size else order.size
    if end:
        profits = instance.profit_vector
        rows = order[:end]
        rows = rows[_may_swap(instance, cover, budget, rows)]
        lo, size = 0, _FIRST_BLOCK
        while lo < rows.size:
            block = rows[lo:lo + size]
            ok = (cover.swap_costs(block) <= budget) & (profits < profits[block][:, None])
            movable = ok.any(axis=1).nonzero()[0]
            if movable.size:
                row = int(movable[0])
                out = ok[row].nonzero()[0]
                return int(block[row]), int(out[np.argmin(profits[out])])
            lo, size = lo + size, 2 * size
    return (int(order[end]), None) if end < order.size else None


def _may_swap(instance: Instance, cover: CoverTracker, budget: int,
              rows: np.ndarray) -> np.ndarray:
    """Mask over ``rows`` (unselected ids that do not fit): False where no
    feasible profit-raising swap exists.

    kept(j, l) >= 0, so swapping j in for l costs at least
    cost + marginal(j) - freed(l): j can move only if some selected l with
    p(l) < p(j) has freed(l) >= cost + marginal(j) - budget.  Along the
    instance's profit order the largest freed among the k least profitable
    customers is a running maximum, read for row j at k = the number of
    profits strictly below p(j).  Unselected customers join it with freed
    0, and the empty prefix reads the 0 of freed's slot n; neither changes
    the mask, since a row that does not fit exceeds the budget by at
    least 1.
    """
    most = np.maximum.accumulate(cover.freed()[instance._by_profit])
    return most[instance._lower_profits[rows]] >= cover.cost + cover.marginal[rows] - budget


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
