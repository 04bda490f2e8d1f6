"""Data model for the Next Release Problem.

An instance is a set of requirements with integer costs, an acyclic
prerequisite graph over them, and a set of customers, each with an
integer profit and a set of requested requirements.  Satisfying a
customer means developing every requested requirement plus all of its
transitive prerequisites (the customer's *closure*).  A solution is a
subset of customers; its cost is the cost of the union of their
closures (shared requirements counted once) and its profit is the sum
of their profits.

All ids are 1-based.  An instance is valid by construction: malformed
raw data raises :class:`InvalidInstanceError`, which lists every issue.
Instances are immutable and hold arrays and plain tuples only; the
closures and the numpy views used by the solvers are computed once when
the instance is built.  The :class:`Requirement`, :class:`Customer` and
:class:`DependencyGraph` objects are views, built on first access.

The closure is held once, as sorted index lists in both directions: a
CSR form (each customer's requirements; ``closure_indices`` are its row
views) and its transpose (each requirement's customers).  Both come from
one walk per customer up the parent lists from its requests, so the build
needs nothing beyond its output and O(n) working lists.
:class:`CoverTracker` is the one mutable cover state the solvers share:
a selection's mask, per-requirement counts, union cost and every
customer's marginal add cost (and, once it prices swaps, what dropping
each selected customer saves), kept up to date move by move.  A flip
reads and writes single entries through memoryviews of the tracker's own
count and marginal arrays, which are never rebound, so the numpy code
reading them sees each flip with no copy or sync step.  The
constructions, both climbs and the annealer's chain all flip
customers through it, and :meth:`CoverTracker.solution` reads its
result from that state.  :func:`evaluate` works a selection out from
scratch and is the independent check of the tracker.  Both read only
these lists: no solver path builds a dense customer x requirement array
or calls BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class InvalidInstanceError(Exception):
    """Raised by :class:`Instance` on malformed raw data.

    ``issues`` holds every :class:`ValidationIssue` found: ``non-positive-value``
    (cost or profit below 1), ``total-too-large`` (total cost or profit of
    2**53 or more), ``bad-id`` (edge or request outside 1..n) and
    ``cyclic-dependency`` (with one concrete cycle).
    """

    def __init__(self, issues: Sequence[ValidationIssue]):
        self.issues = tuple(issues)
        super().__init__("instance failed validation: " + "; ".join(map(str, self.issues)))


@dataclass(frozen=True)
class Requirement:
    id: int
    cost: int


@dataclass(frozen=True)
class DependencyGraph:
    """Prerequisite edges: (p, q) means p must be developed before q."""

    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Customer:
    """A customer as the file gives it; its closure is in the instance's index lists."""

    id: int
    profit: int
    requests: tuple[int, ...]


@dataclass(frozen=True)
class Solution:
    """An evaluated customer selection."""

    selected: frozenset[int]
    covered: frozenset[int]
    cost: int
    profit: int


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # "non-positive-value" | "total-too-large" | "bad-id" | "cyclic-dependency"
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class Instance:
    """A full problem instance with precomputed closures.

    It holds the file's data as arrays and tuples: ``_cost``, ``cost_vector``,
    ``profit_vector``, ``_edges`` ((E, 2), file order), ``_requests`` (ids per
    customer) and ``level_sizes``.  ``requirements``, ``customers`` and
    ``graph`` are views of them, built on first access; no solver reads them.

    Build through :func:`make_instance`.  One pass over the raw parts finds
    every issue and raises :class:`InvalidInstanceError`, so every instance
    that exists is valid; the closure walk reads the parent lists it builds.
    ``cost_vector``, ``profit_vector``, ``closure_indices`` (per customer,
    the sorted 0-based requirement indices of its closure) and
    ``closure_cost_vector`` are the solver-facing numpy views.

    The profits are ranked once, for the climbs' swap bound:
    ``_by_profit`` is the slot m (one past the last customer) followed by
    the customers in stable profit order, and ``_lower_profits[j]`` counts
    the customers whose profit is strictly below customer j's, so
    ``_by_profit[1:k + 1]`` are exactly those customers for k =
    ``_lower_profits[j]``.
    """

    def __init__(
        self,
        costs: Sequence[int],
        edges: Iterable[tuple[int, int]],
        customers: Iterable[tuple[int, Iterable[int]]],
        level_sizes: Sequence[int] | None = None,
    ):
        costs = list(map(int, costs))
        edge_list = [(int(p), int(q)) for p, q in edges]
        raw_customers = [(int(w), tuple(map(int, reqs))) for w, reqs in customers]
        profits, requests = [w for w, _ in raw_customers], tuple(r for _, r in raw_customers)
        n, m = len(costs), len(raw_customers)
        if level_sizes is None:
            level_sizes = (n,) if n else ()
        level_sizes = tuple(int(k) for k in level_sizes)
        if sum(level_sizes) != n or min(level_sizes, default=0) < 0:
            raise ValueError(f"level sizes {level_sizes} must be non-negative and sum to {n}")
        parents = _check(costs, profits, edge_list, requests)

        self.level_sizes = level_sizes
        self.total_cost = sum(costs)
        self._cost = costs
        self._edges = np.fromiter(chain.from_iterable(edge_list), np.intp).reshape(-1, 2)
        self._requests = requests
        self.cost_vector = np.asarray(costs, dtype=np.int64)
        self._cost_f64 = self.cost_vector.astype(np.float64)
        self.profit_vector = np.asarray(profits, dtype=np.int64)
        by_profit = np.argsort(self.profit_vector, kind="stable")
        self._by_profit = np.concatenate(([m], by_profit))
        self._lower_profits = self.profit_vector[by_profit].searchsorted(
            self.profit_vector, side="left")
        # the closure: one walk per customer i up ``parents`` from its requests,
        # seen[v] == i marking the ids it already holds.  Its sorted ids, 0-based,
        # are _csr_req[_csr_ptr[i]:_csr_ptr[i + 1]], and i joins each one's list
        # in _needed_by (the transpose); _csr_row is the customer of every entry
        seen, needed_by, entries, sizes = [-1] * (n + 1), [[] for _ in range(n + 1)], [], []
        for i, reqs in enumerate(requests):
            got = []
            for v in reqs:
                if seen[v] != i:
                    seen[v] = i
                    got.append(v)
            for v in got:  # the list is its own queue: it grows while it is read
                for p in parents[v]:
                    if seen[p] != i:
                        seen[p] = i
                        got.append(p)
            got.sort()
            for v in got:
                needed_by[v].append(i)
            entries += got
            sizes.append(len(got))
        self._csr_ptr = np.cumsum([0] + sizes)
        self._csr_row = np.repeat(np.arange(m), sizes)
        self._csr_req = np.array(entries, dtype=np.intp) - 1
        ptr = self._csr_ptr.tolist()
        self.closure_indices = tuple(map(self._csr_req.__getitem__, map(slice, ptr, ptr[1:])))
        self._needed_by = tuple(needed_by[1:])
        self.closure_cost_vector = np.bincount(
            self._csr_row, weights=self._cost_f64[self._csr_req],
            minlength=m).astype(np.int64)

    @cached_property
    def requirements(self) -> tuple[Requirement, ...]:
        return tuple(Requirement(i + 1, c) for i, c in enumerate(self._cost))

    @cached_property
    def graph(self) -> DependencyGraph:
        return DependencyGraph(tuple(map(tuple, self._edges.tolist())))

    @cached_property
    def customers(self) -> tuple[Customer, ...]:
        return tuple(Customer(i + 1, w, reqs) for i, (w, reqs)
                     in enumerate(zip(self.profit_vector.tolist(), self._requests)))

    # -- structure ---------------------------------------------------------

    @property
    def n_requirements(self) -> int:
        return len(self._cost)

    @property
    def n_customers(self) -> int:
        return len(self._requests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return ((self._cost, self._requests, self.level_sizes)
                == (other._cost, other._requests, other.level_sizes)
                and np.array_equal(self._edges, other._edges)
                and np.array_equal(self.profit_vector, other.profit_vector))

    def __repr__(self) -> str:
        return (
            f"Instance({self.n_requirements} requirements, "
            f"{len(self._edges)} edges, {self.n_customers} customers)"
        )


def make_instance(
    costs: Sequence[int],
    edges: Iterable[tuple[int, int]],
    customers: Iterable[tuple[int, Iterable[int]]],
    level_sizes: Sequence[int] | None = None,
) -> Instance:
    """Build an :class:`Instance` from raw parts.

    ``customers`` is a sequence of (profit, requested requirement ids).
    Malformed parts raise :class:`InvalidInstanceError` listing every issue.
    """
    return Instance(costs, edges, customers, level_sizes)


def _check(costs, profits, edges, requests) -> list[list[int]]:
    """The parent lists of ids 1..n; raises :class:`InvalidInstanceError`
    listing every issue: costs, then profits, below 1; totals of 2**53 or
    more; edge ends, then requests, out of range; and, when every edge end
    is in range, a cycle, walked back through the parents of the ids Kahn's
    order leaves out.
    """
    n = len(costs)
    issues = [ValidationIssue("non-positive-value", f"requirement {i} has cost {c}")
              for i, c in enumerate(costs, 1) if c < 1]
    issues += [ValidationIssue("non-positive-value", f"customer {i} has profit {w}")
               for i, w in enumerate(profits, 1) if w < 1]
    # below 2**53 every sum of costs or profits is exact in float64 and int64
    issues += [ValidationIssue("total-too-large", f"total {what} {total} is 2**53 or more")
               for what, total in (("cost", sum(costs)), ("profit", sum(profits)))
               if total >= 2**53]
    # the outer test skips the inner tuple for the (usual) edge that is in range
    bad_edges = [ValidationIssue("bad-id", f"edge ({p}, {q}) references requirement {e}")
                 for p, q in edges if not (0 < p <= n and 0 < q <= n)
                 for e in (p, q) if not 0 < e <= n]
    issues += bad_edges
    issues += [ValidationIssue("bad-id", f"customer {i} requests requirement {r}")
               for i, reqs in enumerate(requests, 1) for r in reqs if not 0 < r <= n]
    order, parents = _kahn(n, edges) if not bad_edges else (range(1, n + 1), [])
    if len(order) < n:
        leftover = set(range(1, n + 1)).difference(order)
        trail, pos = [min(leftover)], {}
        while trail[-1] not in pos:
            pos[trail[-1]] = len(trail) - 1
            trail.append(next(p for p in parents[trail[-1]] if p in leftover))
        # trail follows parent links, so forward edges run right-to-left
        path = " -> ".join(map(str, trail[pos[trail[-1]]:][::-1]))
        issues.append(ValidationIssue("cyclic-dependency", f"dependency cycle {path}"))
    if issues:
        raise InvalidInstanceError(issues)
    return parents


def _kahn(n: int, edges) -> tuple[list[int], list[list[int]]]:
    """Kahn's algorithm over ids 1..n: a topological order, which holds every
    id exactly when the graph is acyclic, and every id's parents."""
    children: list[list[int]] = [[] for _ in range(n + 1)]
    parents: list[list[int]] = [[] for _ in range(n + 1)]
    for p, q in edges:
        children[p].append(q)
        parents[q].append(p)
    indeg = [len(ps) for ps in parents]
    order = [v for v in range(1, n + 1) if not indeg[v]]
    for v in order:  # the order is its own queue: it grows while it is read
        for w in children[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    return order, parents


# -- operations -------------------------------------------------------------


def closure(instance: Instance, customer_id: int) -> frozenset[int]:
    """Requirements that must be developed to satisfy one customer, built
    on each call from its ``closure_indices`` row."""
    idx = instance.closure_indices[_customer_indices(instance, [customer_id])[0]]
    return frozenset((idx + 1).tolist())


def evaluate(instance: Instance, selected: Iterable[int]) -> Solution:
    """Evaluate a customer selection: union coverage, union cost, summed profit."""
    chosen = np.zeros(instance.n_customers, dtype=bool)
    chosen[_customer_indices(instance, selected)] = True
    covered = np.zeros(instance.n_requirements, dtype=bool)
    covered[instance._csr_req[chosen[instance._csr_row]]] = True
    idx, req = chosen.nonzero()[0], covered.nonzero()[0]
    return Solution(frozenset((idx + 1).tolist()), frozenset((req + 1).tolist()),
                    int(instance.cost_vector[req].sum()), int(instance.profit_vector[idx].sum()))


def budget(instance: Instance, ratio) -> int:
    """Budget bound: floor(ratio * total cost), ratio in (0, 1].

    ``ratio`` may be a str, Fraction, or float; floats are read at
    their shortest decimal representation so that e.g. 0.7 means 7/10.
    """
    frac = ratio if isinstance(ratio, Fraction) else Fraction(str(ratio))
    if not 0 < frac <= 1:
        raise ValueError(f"budget ratio must be in (0, 1], got {ratio}")
    return int(frac * instance.total_cost)


def _customer_indices(instance: Instance, ids: Iterable[int]) -> np.ndarray:
    """The 0-based indices of the 1-based customer ``ids``, in their order.

    The one id rule of :func:`closure`, :func:`evaluate` and
    :class:`CoverTracker`: an id that is not an integer (a float such as
    1.7 or 1.0, a bool, a string) or is outside 1..m raises ValueError.
    """
    given = ids if isinstance(ids, np.ndarray) else list(ids)
    got = np.asarray(given)
    # numpy reads [2, True] as integers: such a bool shows only by its type
    if got.size and (got.dtype.kind not in "iu" or given is not got
                     and not {bool, np.bool_}.isdisjoint(map(type, given))):
        bad = [c for c in (got.tolist() if given is got else given)
               if isinstance(c, bool) or not isinstance(c, (int, np.integer))]
        if bad:  # else every id is an int, some too large for int64: out of range
            raise ValueError(f"customer id {bad[0]!r} is not an integer")
    out = (got < 1) | (got > instance.n_customers)
    if out.any():
        raise ValueError(f"customer id {got[out.argmax()]} out of range 1..{instance.n_customers}")
    return (got - 1).astype(np.intp, copy=False)


class CoverTracker:
    """The cover of one customer selection, updated move by move.

    State: the ``selected`` mask, ``counts`` (how many selected customers
    need each requirement), the union ``cost``, and ``marginal``, every
    customer's add cost against the current cover (zero when selected).
    ``add`` and ``drop`` walk the flipped customer's requirements and, for
    each whose coverage changes, the customers that need it, with Python
    scalar reads and writes through memoryviews of ``counts`` and
    ``marginal``: a flip touches a few dozen entries, too few to pay for
    numpy calls.  The views share the arrays' memory and the arrays are
    never rebound, so there is one state.  ``freed`` and ``kept`` price
    1-swaps.  Everything is read from the closure's index lists; marginals
    are integers held in float64, so every comparison is exact.

    Pricing reads each requirement's *owner sum*: the sum of the 0-based
    ids of the selected customers that need it, which is the owner itself
    where ``counts`` is 1; and every customer's ``freed``, the cost of the
    requirements it alone covers.  The first call to either pricing method
    works both out and every later flip keeps them: the owner sums with
    one numpy add over the flipped customer's requirements, freed in the
    same scalar walk.  A requirement whose coverage changes moves its cost
    in or out of the flipped customer's freed; one going from one owner to
    two (an add) or from two to one (a drop) moves it out of or into the
    other owner's.  A tracker that never prices (a construction's) pays a
    few ``is None`` tests per flip for them.
    """

    def __init__(self, instance: Instance, start: Iterable[int] = ()):
        """Cover of ``start`` (1-based customer ids), empty by default.

        An id that is not an integer in 1..m raises ``ValueError``.
        """
        self._inst = instance
        self._idx = instance.closure_indices
        self._needed_by = instance._needed_by
        self._cost = instance._cost
        self._cost_f = instance._cost_f64
        self.selected = np.zeros(instance.n_customers, dtype=bool)
        self.selected[_customer_indices(instance, start)] = True
        row, req = instance._csr_row, instance._csr_req
        self.counts = np.bincount(req[self.selected[row]], minlength=instance.n_requirements)
        self.cost = int(instance.cost_vector[self.counts > 0].sum())
        # a customer's marginal is the cost of its uncovered requirements
        uncovered = self._cost_f * (self.counts == 0)
        self.marginal = np.bincount(row, weights=uncovered[req], minlength=instance.n_customers)
        self._counts_v, self._marginal_v = memoryview(self.counts), memoryview(self.marginal)
        # per requirement, the selected customers' summed ids, and per customer
        # its freed, then a 0 at slot n; None until pricing starts
        self._owner_sum = self._freed = self._owner_v = self._freed_v = None

    def add(self, index: int) -> None:
        """Add customer by 0-based index."""
        self._flip(index, 1)

    def drop(self, index: int) -> None:
        """Remove a selected customer by 0-based index."""
        self._flip(index, -1)

    def _flip(self, index: int, step: int) -> None:
        idx = self._idx[index]
        self.selected[index] = step > 0
        counts, marginal, cost = self._counts_v, self._marginal_v, self._cost
        edge = 0 if step > 0 else 1  # uncovered before an add, singly covered before a drop
        freed, before = self._freed_v, self.cost
        if freed is not None:
            self._owner_sum[idx] += step * index
            owner_sum = self._owner_v
            # owner_sum[r] - other is the one customer besides ``index`` that needs r
            shared, other = edge + 1, index if step > 0 else 0
        for r in idx.tolist():
            k = counts[r]
            counts[r] = k + step
            if k == edge:  # r's coverage changes: customers needing it gain or lose its cost
                c = step * cost[r]
                self.cost += c
                for j in self._needed_by[r]:
                    marginal[j] -= c
            elif freed is not None and k == shared:  # r changes between one owner and two
                freed[owner_sum[r] - other] -= step * cost[r]
        if freed is not None:  # ``index`` alone needs what it covers or uncovers
            freed[index] += self.cost - before

    def affordable(self, budget: int) -> np.ndarray:
        """0-based ids of the unselected customers that fit within budget."""
        return (~self.selected & (self.cost + self.marginal <= budget)).nonzero()[0]

    def freed(self) -> np.ndarray:
        """freed(l) for every customer l, then a 0 at index n.

        freed(l) is the cost of the requirements only l covers, which
        dropping l saves (zero for an unselected l).  The first pricing
        call works out the owner sums and freed from the selection,
        and from then on every flip keeps both, so the array returned is
        the tracker's own and follows later flips.
        """
        if self._freed is None:
            inst = self._inst
            row, req = inst._csr_row, inst._csr_req
            held = self.selected[row]
            self._owner_sum = np.bincount(req[held], weights=row[held],
                                          minlength=inst.n_requirements).astype(np.intp)
            single = self.counts == 1
            self._freed = np.bincount(self._owner_sum[single], weights=self._cost_f[single],
                                      minlength=inst.n_customers + 1)
            self._owner_v, self._freed_v = memoryview(self._owner_sum), memoryview(self._freed)
        return self._freed

    def kept(self, index: int) -> dict[int, int]:
        """kept(j, l) for unselected j = ``index``, per selected l with a nonzero one.

        Dropping l frees the requirements only l covers, except those j
        re-covers, so swapping j in for l costs
        cost + marginal(j) - freed(l) + kept(j, l), where kept(j, l) is the
        cost of l's singly covered requirements that j needs.  A walk over
        j's closure reads each singly covered requirement's owner, its owner
        sum, through the tracker's views; an l missing from the result keeps
        0.  Starts pricing, as :meth:`freed` does.
        """
        self.freed()
        counts, owner_sum, cost = self._counts_v, self._owner_v, self._cost
        kept: dict[int, int] = {}
        for r in self._idx[index].tolist():
            if counts[r] == 1:
                l = owner_sum[r]
                kept[l] = kept.get(l, 0) + cost[r]
        return kept

    def solution(self) -> Solution:
        """The current selection as a :class:`Solution`, read from the tracker's state."""
        idx = self.selected.nonzero()[0]
        return Solution(frozenset((idx + 1).tolist()),
                        frozenset((self.counts.nonzero()[0] + 1).tolist()),
                        self.cost, int(self._inst.profit_vector[idx].sum()))


def _construct(instance: Instance, budget: int, choose) -> Solution:
    """Greedy fill: add ``cand[choose(cover, cand)]`` until no candidate is left.

    ``cand`` holds the 0-based ids :meth:`CoverTracker.affordable` would
    return, and ``choose`` returns a position in it.  The list is worked
    out once and then only shrinks: ``cost + marginal[j]`` is the union
    cost with j added, which no add lowers, so a customer that stops
    fitting never fits again within one fill.

    Most steps drop only the chosen customer.  ``most``, the largest
    marginal in the list when it was last filtered, stays an upper bound
    on every entry's marginal, since no add raises one; while it fits in
    the slack ``budget - cost``, every other entry still fits and the step
    just removes position k.  Otherwise the list is filtered and ``most``
    worked out again from the entries kept.
    """
    cover = CoverTracker(instance)
    cand = cover.affordable(budget)
    most = cover.marginal[cand].max(initial=0.0)
    while cand.size:
        k = choose(cover, cand)
        cover.add(int(cand[k]))
        slack = budget - cover.cost
        if most <= slack:
            cand[k:-1] = cand[k + 1:]
            cand = cand[:-1]
        else:
            keep = cover.marginal[cand] <= slack
            keep[k] = False
            cand = cand[keep]
            most = cover.marginal[cand].max(initial=0.0)
    return cover.solution()
