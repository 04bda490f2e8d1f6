"""Data model for the Next Release Problem.

An instance is a set of requirements with integer costs, an acyclic
prerequisite graph over them, and a set of customers, each with an
integer profit and a set of requested requirements.  Satisfying a
customer means developing every requested requirement plus all of its
transitive prerequisites (the customer's *closure*).  A solution is a
subset of customers; its cost is the cost of the union of their
closures (shared requirements counted once) and its profit is the sum
of their profits.

All ids are 1-based.  Instances are immutable after construction; the
derived per-customer closures and the numpy views used by the solvers
are computed once when the instance is built.

The closure is held once, as sorted index lists in both directions: a
CSR form (each customer's requirements; ``closure_indices`` are its row
views) and its transpose (each requirement's customers).
:class:`CoverTracker` is the one mutable cover state the solvers share:
a selection's mask, per-requirement counts, union cost and every
customer's marginal add cost, kept up to date move by move.  The
constructions, both climbs and the annealer's chain all flip customers
through it, and :meth:`CoverTracker.solution` reads its result from that
state.  :func:`evaluate` works a selection out from scratch and is the
independent check of the tracker.  Both read only these lists: no solver
path builds a dense customer x requirement array or calls BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class InvalidInstanceError(Exception):
    """Raised when an operation requires a validated instance."""


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
    id: int
    profit: int
    requests: tuple[int, ...]
    closure: frozenset[int]
    closure_cost: int


@dataclass(frozen=True)
class Solution:
    """An evaluated customer selection."""

    selected: frozenset[int]
    covered: frozenset[int]
    cost: int
    profit: int


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # "cyclic-dependency" | "bad-id" | "non-positive-value"
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class Instance:
    """A full problem instance with precomputed closures.

    The closure is held once, as sorted index lists per customer (CSR) and
    per requirement (its transpose); no dense closure matrix is ever built.

    Build through :func:`make_instance`.  When the raw data is
    malformed (cycle, id out of range, non-positive cost or profit) the
    instance still exists so that :func:`validate` can report the
    issues, but the derived caches stay unset and the solver-facing
    accessors raise :class:`InvalidInstanceError`.
    """

    def __init__(
        self,
        costs: Sequence[int],
        edges: Iterable[tuple[int, int]],
        customers: Iterable[tuple[int, Iterable[int]]],
        level_sizes: Sequence[int] | None = None,
    ):
        costs = [int(c) for c in costs]
        edge_list = tuple((int(p), int(q)) for p, q in edges)
        raw_customers = [(int(w), tuple(int(r) for r in reqs)) for w, reqs in customers]

        n = len(costs)
        if level_sizes is None:
            level_sizes = (n,) if n else ()
        level_sizes = tuple(int(k) for k in level_sizes)
        if sum(level_sizes) != n:
            raise ValueError(f"level sizes {level_sizes} do not sum to {n} requirements")

        self.requirements = tuple(Requirement(i + 1, c) for i, c in enumerate(costs))
        self.graph = DependencyGraph(edge_list)
        self.level_sizes = level_sizes
        self.total_cost = sum(costs)

        self._issues = tuple(_structural_issues(costs, edge_list, raw_customers))
        if self._issues:
            self.customers: tuple[Customer, ...] = tuple(
                Customer(i + 1, w, reqs, frozenset(), 0)
                for i, (w, reqs) in enumerate(raw_customers)
            )
            self._cost_vec = None
            return

        parents = _parent_lists(n, edge_list)
        members = []
        # CSR form of the closure: customer i's requirements, sorted, are
        # _csr_req[_csr_ptr[i]:_csr_ptr[i + 1]]
        ptr = [0]
        entries: list[int] = []
        for i, (w, reqs) in enumerate(raw_customers):
            closure = _prerequisite_closure(parents, reqs)
            req_idx = sorted(r - 1 for r in closure)
            entries.extend(req_idx)
            ptr.append(len(entries))
            ccost = sum(costs[r] for r in req_idx)
            members.append(Customer(i + 1, w, reqs, frozenset(closure), ccost))
        self.customers = tuple(members)

        self._cost_vec = np.asarray(costs, dtype=np.int64)
        self._cost_f64 = self._cost_vec.astype(np.float64)
        self._profit_vec = np.asarray([c.profit for c in members], dtype=np.int64)
        self._csr_ptr = np.asarray(ptr, dtype=np.intp)
        self._csr_req = np.asarray(entries, dtype=np.intp)
        self._closure_idx = tuple(self._csr_req[a:b] for a, b in zip(ptr, ptr[1:]))
        # the transpose: requirement r's customers, sorted, as views of one array
        # (a stable sort keeps each requirement's entries in customer order)
        cust = np.repeat(np.arange(len(members)), np.diff(ptr))
        by_req = cust[np.argsort(self._csr_req, kind="stable")]
        req_ptr = np.concatenate(([0], np.cumsum(np.bincount(self._csr_req, minlength=n))))
        self._needed_by = tuple(by_req[a:b] for a, b in zip(req_ptr[:-1], req_ptr[1:]))
        self._closure_cost_vec = np.asarray([c.closure_cost for c in members], dtype=np.int64)

    # -- structure ---------------------------------------------------------

    @property
    def n_requirements(self) -> int:
        return len(self.requirements)

    @property
    def n_customers(self) -> int:
        return len(self.customers)

    @property
    def is_valid(self) -> bool:
        return not self._issues

    def require_valid(self) -> None:
        if self._issues:
            detail = "; ".join(str(i) for i in self._issues)
            raise InvalidInstanceError(f"instance failed validation: {detail}")

    # -- solver-facing numpy views (valid instances only) ------------------

    @property
    def cost_vector(self) -> np.ndarray:
        self.require_valid()
        return self._cost_vec

    @property
    def profit_vector(self) -> np.ndarray:
        self.require_valid()
        return self._profit_vec

    @property
    def closure_indices(self) -> tuple[np.ndarray, ...]:
        """Per-customer sorted 0-based requirement indices of the closure."""
        self.require_valid()
        return self._closure_idx

    @property
    def closure_cost_vector(self) -> np.ndarray:
        self.require_valid()
        return self._closure_cost_vec

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.requirements == other.requirements
            and self.graph == other.graph
            and self.customers == other.customers
            and self.level_sizes == other.level_sizes
        )

    def __repr__(self) -> str:
        return (
            f"Instance({self.n_requirements} requirements, "
            f"{len(self.graph.edges)} edges, {self.n_customers} customers)"
        )


def make_instance(
    costs: Sequence[int],
    edges: Iterable[tuple[int, int]],
    customers: Iterable[tuple[int, Iterable[int]]],
    level_sizes: Sequence[int] | None = None,
) -> Instance:
    """Build an :class:`Instance` from raw parts.

    ``customers`` is a sequence of (profit, requested requirement ids).
    """
    return Instance(costs, edges, customers, level_sizes)


def _structural_issues(costs, edges, raw_customers) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    n = len(costs)

    for i, c in enumerate(costs):
        if c < 1:
            issues.append(ValidationIssue("non-positive-value", f"requirement {i + 1} has cost {c}"))
    for i, (w, _reqs) in enumerate(raw_customers):
        if w < 1:
            issues.append(ValidationIssue("non-positive-value", f"customer {i + 1} has profit {w}"))

    ids_ok = True
    for p, q in edges:
        for e in (p, q):
            if not 1 <= e <= n:
                issues.append(ValidationIssue("bad-id", f"edge ({p}, {q}) references requirement {e}"))
                ids_ok = False
    for i, (_w, reqs) in enumerate(raw_customers):
        for r in reqs:
            if not 1 <= r <= n:
                issues.append(ValidationIssue("bad-id", f"customer {i + 1} requests requirement {r}"))

    if ids_ok:
        cycle = _find_cycle(n, edges)
        if cycle is not None:
            path = " -> ".join(str(r) for r in cycle)
            issues.append(ValidationIssue("cyclic-dependency", f"dependency cycle {path}"))
    return issues


def _parent_lists(n: int, edges) -> list[list[int]]:
    parents: list[list[int]] = [[] for _ in range(n + 1)]
    for p, q in edges:
        parents[q].append(p)
    return parents


def _find_cycle(n: int, edges) -> list[int] | None:
    """Kahn's algorithm; on failure walk back through leftover nodes to extract one cycle."""
    children: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for p, q in edges:
        children[p].append(q)
        indeg[q] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen == n:
        return None
    leftover = {v for v in range(1, n + 1) if indeg[v] > 0}
    parents = _parent_lists(n, edges)
    start = min(leftover)
    trail = [start]
    pos = {start: 0}
    node = start
    while True:
        node = next(p for p in parents[node] if p in leftover)
        if node in pos:
            # trail follows parent links, so forward edges run right-to-left
            return [node] + trail[pos[node]:][::-1]
        pos[node] = len(trail)
        trail.append(node)


def _prerequisite_closure(parents: list[list[int]], request_ids: Iterable[int]) -> set[int]:
    seen = set(request_ids)
    stack = list(seen)
    while stack:
        r = stack.pop()
        for p in parents[r]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


# -- operations -------------------------------------------------------------


def validate(instance: Instance) -> list[ValidationIssue]:
    """Check structural soundness; an empty list means the instance is usable.

    Reported kinds: ``cyclic-dependency`` (with one concrete cycle),
    ``bad-id`` (edge or request outside 1..n), ``non-positive-value``
    (cost or profit below 1).
    """
    return list(instance._issues)


def closure(instance: Instance, customer_id: int) -> frozenset[int]:
    """Requirements that must be developed to satisfy one customer."""
    instance.require_valid()
    return instance.customers[_customer_index(instance, customer_id)].closure


def evaluate(instance: Instance, selected: Iterable[int]) -> Solution:
    """Evaluate a customer selection: union coverage, union cost, summed profit."""
    instance.require_valid()
    idx = sorted({_customer_index(instance, c) for c in selected})
    covered_mask = np.zeros(instance.n_requirements, dtype=bool)
    covered_mask[_closure_entries(instance, idx)[1]] = True
    cost = int(instance.cost_vector[covered_mask].sum())
    profit = int(instance.profit_vector[idx].sum())
    covered = frozenset(int(r) + 1 for r in np.flatnonzero(covered_mask))
    return Solution(frozenset(i + 1 for i in idx), covered, cost, profit)


def budget(instance: Instance, ratio) -> int:
    """Budget bound: floor(ratio * total cost), ratio in (0, 1].

    ``ratio`` may be a str, Fraction, or float; floats are read at
    their shortest decimal representation so that e.g. 0.7 means 7/10.
    """
    frac = ratio if isinstance(ratio, Fraction) else Fraction(str(ratio))
    if not 0 < frac <= 1:
        raise ValueError(f"budget ratio must be in (0, 1], got {ratio}")
    return int(frac * instance.total_cost)


def marginal_cost(instance: Instance, solution: Solution, customer_id: int) -> int:
    """Cost increase from adding one customer to an evaluated solution."""
    instance.require_valid()
    if customer_id in solution.selected:
        raise ValueError(f"customer {customer_id} is already selected")
    i = _customer_index(instance, customer_id)
    new = instance.customers[i].closure - solution.covered
    if not new:
        return 0
    return int(instance.cost_vector[[r - 1 for r in new]].sum())


def _customer_index(instance: Instance, customer_id: int) -> int:
    if not 1 <= customer_id <= instance.n_customers:
        raise ValueError(f"customer id {customer_id} out of range 1..{instance.n_customers}")
    return customer_id - 1


class CoverTracker:
    """The cover of one customer selection, updated move by move.

    State: the ``selected`` mask, ``counts`` (how many selected customers
    need each requirement), the union ``cost``, and ``marginal``, every
    customer's add cost against the current cover (zero when selected).
    ``add`` and ``drop`` walk the requirements whose coverage changes and,
    for each, the customers that need it, so their time is proportional to
    those lists; ``swap_costs`` prices 1-swaps.  Everything is read from
    the closure's index lists; marginals are integers held in float64, so
    every comparison is exact.
    """

    def __init__(self, instance: Instance, start: Iterable[int] = ()):
        """Cover of ``start`` (1-based customer ids), empty by default.

        An id outside 1..n raises ``ValueError``.
        """
        instance.require_valid()
        self._inst = instance
        self._idx = instance.closure_indices
        self._needed_by = instance._needed_by
        self._reqs = instance.requirements
        self._cost_f = instance._cost_f64
        ids = np.fromiter(start, dtype=np.intp)
        bad = (ids < 1) | (ids > instance.n_customers)
        if bad.any():
            _customer_index(instance, int(ids[bad.argmax()]))  # raises
        self.selected = np.zeros(instance.n_customers, dtype=bool)
        self.selected[ids - 1] = True
        ptr, req = instance._csr_ptr, instance._csr_req
        # the customer of every closure entry
        row = np.repeat(np.arange(instance.n_customers), ptr[1:] - ptr[:-1])
        self.counts = np.bincount(req[self.selected[row]], minlength=instance.n_requirements)
        self.cost = int(instance.cost_vector[self.counts > 0].sum())
        # a customer's marginal is the cost of its uncovered requirements
        uncovered = self._cost_f * (self.counts == 0)
        self.marginal = np.bincount(row, weights=uncovered[req], minlength=instance.n_customers)

    def add(self, index: int) -> None:
        """Add customer by 0-based index."""
        self._flip(index, 1)

    def drop(self, index: int) -> None:
        """Remove a selected customer by 0-based index."""
        self._flip(index, -1)

    def _flip(self, index: int, step: int) -> None:
        idx = self._idx[index]
        counts = self.counts[idx]
        self.counts[idx] = counts + step
        self.selected[index] = step > 0
        # the requirements whose coverage changes: uncovered before an add,
        # singly covered before a drop; customer ``index`` needs each of them
        for r in idx[counts == (0 if step > 0 else 1)].tolist():
            c = step * self._reqs[r].cost
            self.cost += c
            self.marginal[self._needed_by[r]] -= c

    def marginal_of(self, index: int) -> int:
        return int(self.marginal[index])

    def affordable(self, budget: int) -> np.ndarray:
        """0-based ids of the unselected customers that fit within budget."""
        return (~self.selected & (self.cost + self.marginal <= budget)).nonzero()[0]

    def swap_costs(self, incoming, outgoing) -> np.ndarray:
        """Union cost after swapping j in for l; rows follow ``incoming``, columns ``outgoing``.

        ``incoming`` are unselected and ``outgoing`` selected 0-based ids.
        Dropping l frees the requirements only l covers, except those j
        re-covers: cost(S + j - l) = cost + marginal(j) - freed(l) + kept(j, l),
        where freed(l) sums l's singly covered requirements and kept(j, l)
        restricts that sum to the ones j needs.

        A singly covered requirement has one *owner*, the selected customer
        that needs it, found from the closure entries of ``outgoing``.  Both
        sums are then weighted counts: freed of requirement costs by owner,
        kept of the incoming rows' entries by (row, owner's column); owners
        outside ``outgoing`` are dropped.  Apart from one pass over the
        requirements, work is proportional to the closures of the customers
        involved.
        """
        n_out = len(outgoing)
        col, req = _closure_entries(self._inst, outgoing)
        # column n_out collects the requirements no outgoing customer owns
        owner = np.full(self._inst.n_requirements, n_out, dtype=np.intp)
        owner[req] = col
        owner[self.counts != 1] = n_out
        freed = np.bincount(owner, weights=self._cost_f, minlength=n_out + 1)[:n_out]
        row, req = _closure_entries(self._inst, incoming)
        n_in = len(incoming)
        kept = np.bincount(row * (n_out + 1) + owner[req], weights=self._cost_f[req],
                           minlength=n_in * (n_out + 1)).reshape(n_in, n_out + 1)
        return kept[:, :n_out] - freed + (self.cost + self.marginal[incoming])[:, None]

    def solution(self) -> Solution:
        """The current selection as a :class:`Solution`, read from the tracker's state."""
        idx = self.selected.nonzero()[0]
        return Solution(frozenset((idx + 1).tolist()),
                        frozenset((self.counts.nonzero()[0] + 1).tolist()),
                        self.cost, int(self._inst.profit_vector[idx].sum()))


def _closure_entries(instance: Instance, customers) -> tuple[np.ndarray, np.ndarray]:
    """The closure entries of ``customers`` (0-based ids), as (position in
    ``customers``, requirement index) pairs, customer by customer."""
    customers = np.asarray(customers, dtype=np.intp)
    starts = instance._csr_ptr[customers]
    sizes = instance._csr_ptr[customers + 1] - starts
    pos = np.repeat(np.arange(customers.size), sizes)
    # entry k of the result is entry k - first[pos] of its customer's closure
    first = np.cumsum(sizes) - sizes
    return pos, instance._csr_req[np.arange(pos.size) + (starts - first)[pos]]


def _construct(instance: Instance, budget: int, choose) -> Solution:
    """Greedy fill: add ``choose(cover, candidates)`` until nothing affordable is left.

    ``candidates`` are the 0-based ids :meth:`CoverTracker.affordable`
    returns; ``choose`` picks one of them.
    """
    cover = CoverTracker(instance)
    while True:
        cand = cover.affordable(budget)
        if cand.size == 0:
            return cover.solution()
        cover.add(choose(cover, cand))
