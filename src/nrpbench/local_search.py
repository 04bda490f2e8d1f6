"""Hill climbing over customer selections: feasible adds and 1-swaps.

Two climbs of different strength are two draw rules over one loop.  Each
round the loop draws an order of the unselected customers and takes the
first move in it: an add of the first customer that fits within budget,
else, for the first customer that can be swapped in at a profit gain, the
best such swap (maximum gain, ties to the smaller outgoing id).  The climb
ends at the first order with no move.  The cover state is a copy of the
given :class:`~nrpbench.model.CoverTracker`, whose cost must fit the
budget; the climb flips and returns the copy, so the start is left as it
was, and a construction hands its tracker on with no rebuild.

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
along the profit order, read at each customer's count of lower profits,
tells for every customer of the order at once whether some l of lower
profit frees enough.  For a customer the pass tries, a binary search into
that maximum finds the least profitable such l.  That l is j's best
partner unless j itself needs some of what only l covers, which is rare;
only then are the other partners of lower profit checked, in one
vectorised pass.  The pass walks the closures of the customers it tries,
in order, and stops at the first with a move.  So a pass costs a few
numpy calls over the customers plus, most often, one binary search and
one closure walk, and nothing over every requirement.

The restart solver and GRASP share one loop that keeps the best of
independent `improve` climbs, from random feasible selections or
constructions, and makes a :class:`~nrpbench.model.Solution` of the winner
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from . import rng
from .model import CoverTracker, Instance, Solution


class InfeasibleStartError(Exception):
    """The starting selection already exceeds the budget."""


def _check_kinds(params) -> None:
    """Refuse a params field value of the wrong kind, before any range check:
    a count (``int`` field) that is no ``int``, or a number (``float``
    field) that is no finite real number; a bool is neither, as in the seed
    rule.  A ``float | None`` field also takes None; ``bool`` fields are
    not checked."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "int":
            ok, kind = type(value) is int, "an integer"
        elif f.type == "bool" or (value is None and f.type == "float | None"):
            continue
        else:
            ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
            kind = "a finite number"
        if not ok:
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")


@dataclass
class FhcParams:
    restarts: int = field(default=100, metadata={"help": "restarts"})

    def __post_init__(self):
        _check_kinds(self)
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


def random_feasible(instance: Instance, budget: int, gen: np.random.Generator) -> CoverTracker:
    """Greedy fill along a uniformly random customer order; returns its tracker.

    Each customer is added when its add cost fits what is left of the
    budget.  The fill adds with ``CoverTracker._cover``, which leaves every
    marginal as an upper bound on the add cost, since an add never raises
    one.  A customer whose bound fits is added: its add cost fits too.
    Otherwise one walk over its closure works the exact add cost out, and
    that decides; the order visits each customer once, so the cost is not
    written back.  One settle before returning makes every marginal exact,
    so the tracker is the one the exact fill gives.
    """
    cover = CoverTracker(instance)
    closures, cost = instance.closure_indices, instance._cost
    counts, marginal = memoryview(cover.counts), memoryview(cover.marginal)
    for j in gen.permutation(instance.n_customers).tolist():
        if cover.cost + marginal[j] > budget:
            exact = 0
            for r in closures[j].tolist():
                if not counts[r]:
                    exact += cost[r]
            if cover.cost + exact > budget:
                continue
        cover._cover(j)
    cover._settle()
    return cover


def improve(instance: Instance, budget: int, start: CoverTracker,
            gen: np.random.Generator) -> CoverTracker:
    """First-found climb on a copy of ``start``: stops when one sampled customer cannot move.

    Each round draws j uniformly from the unselected customers, with one
    ``gen.integers`` call.  A feasible add of j is taken outright;
    otherwise the best feasible profit-improving swap for j (maximum
    gain, ties to the smaller outgoing id) is taken; if neither exists
    the climb ends.
    """
    return _climb(instance, budget, start, lambda out: out[[gen.integers(0, out.size)]])


def sweep_improve(instance: Instance, budget: int, start: CoverTracker,
                  gen: np.random.Generator) -> CoverTracker:
    """Climb from a copy of the feasible tracker ``start`` to a 1-swap local optimum.

    Passes repeat until no move exists.  A pass visits the unselected
    customers in random order; the first one that can either be added
    within budget or swapped in at a strict profit gain triggers the
    move and the pass restarts.  Among the swaps for a given incomer
    the most profitable feasible one wins (ties: smaller outgoing id).
    The returned selection admits no feasible addition and no
    profit-improving 1-swap at all.

    Every pass shuffles the unselected customers with one ``gen.shuffle``,
    in place on the fresh array of their ids (the order and draws of
    ``gen.permutation``, without its copy), the last pass (which finds no
    move) included; :func:`_first_move` walks only the closures of the
    customers it tries.
    """
    def shuffled(out_idx):
        gen.shuffle(out_idx)  # a fresh array each pass: the draws of gen.permutation
        return out_idx

    return _climb(instance, budget, start, shuffled)


def _climb(instance: Instance, budget: int, start: CoverTracker, draw) -> CoverTracker:
    """Take the first move in ``draw(unselected ids)`` until an order has none,
    on a copy of ``start``, and return that copy."""
    cover = start.copy()
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
    return cover


def _first_move(instance: Instance, cover: CoverTracker, budget: int,
                order: np.ndarray) -> tuple[int, int | None] | None:
    """(incoming, outgoing or None for an add) of the first movable customer in ``order``.

    Row j's excess need(j) = marginal(j) - (budget - cost) is worked out
    once for the whole order, exactly, since every value is an integer
    below 2**53: j fits when it is at most 0.  Swapping j in for l fits
    when freed(l) - kept(j, l) >= need(j) and raises profit when
    p(l) < p(j); the best swap drops the least profitable such l, ties to
    the smaller id, which is the first one along the instance's profit
    order.  ``most``, the running maximum of freed along that order, never
    decreases; kept >= 0, so no l ahead of position ``at``, where ``most``
    first reaches need(j), can fit.  The l of lower profit than j are the
    positions 1.._lower_profits[j], so j has a partner only when ``at``
    lies among them, that is when ``most`` at the last of them reaches
    need(j): one gather tests every row, and ``at`` is searched for only
    in the rows the loop walks.  The customer at ``at`` frees at least
    need(j), so unless j re-covers some of it, it is the move; otherwise
    the later positions of lower profit are checked at once with j's kept
    costs patched in.  Unselected customers free 0 and the empty prefix
    reads the 0 of freed's slot n, so neither is ever a partner: a row
    before the first add exceeds the budget by at least 1.
    """
    need = cover.marginal[order]
    need -= budget - cover.cost
    add_ok = (need <= 0).nonzero()[0]
    end = int(add_ok[0]) if add_ok.size else order.size
    if end:
        by_profit, freed = instance._by_profit, cover.freed()
        most = np.maximum.accumulate(freed[by_profit])
        lower = instance._lower_profits[order[:end]]
        for row in (most[lower] >= need[:end]).nonzero()[0].tolist():
            j, at = int(order[row]), int(most.searchsorted(need[row]))
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
    """Best of `restarts` independent random-start first-found climbs."""
    return _best_of_restarts(instance, budget, params.restarts, seed, rng.FHC_RESTART,
                             lambda gen: random_feasible(instance, budget, gen))


def _best_of_restarts(instance: Instance, budget: int, restarts: int, seed: int, tag: int,
                      start) -> Solution:
    """The most profitable of ``restarts`` climbs with :func:`improve` from
    the tracker ``start(gen)``, the earliest among ties, as a :class:`Solution`;
    restart i draws from the stream (seed, tag, i).  GRASP and the restart
    solver differ only in ``start``."""
    gens = (rng.substream(seed, tag, i) for i in range(1, restarts + 1))
    return max((improve(instance, budget, start(gen), gen) for gen in gens),
               key=lambda cover: cover.profit).solution()
