"""Random instance generation.

Instances follow the classic multi-level recipe: requirements are laid
out in levels, each level fixing a count, a cost range, and a maximum
number of next-level dependents per requirement.  Dependencies only run
from one level to the next, so generated graphs are acyclic by
construction.  Customers draw a request count, request ids (without
replacement, over all requirements), and a profit, all uniformly.

Five built-in recipes NRP-1..NRP-5 are provided.  Generation is fully
determined by (spec, seed): costs, edges, and customers each come from
their own derived stream (see :mod:`nrpbench.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .model import Instance, make_instance


@dataclass(frozen=True)
class LevelSpec:
    count: int
    cost_min: int
    cost_max: int
    max_children: int  # max out-degree into the next level; 0 on the last level


@dataclass(frozen=True)
class GenSpec:
    name: str
    levels: tuple[LevelSpec, ...]
    customer_count: int
    request_min: int
    request_max: int
    profit_min: int = 1
    profit_max: int = 30

    def __post_init__(self):
        if not self.levels:
            raise ValueError("at least one level is required")
        if self.customer_count < 0:
            raise ValueError(f"customer_count must be non-negative, got {self.customer_count}")
        for lv in self.levels[:-1]:
            if lv.max_children < 1:
                raise ValueError("only the last level may have max_children = 0")
        if self.levels[-1].max_children != 0:
            raise ValueError("last level must have max_children = 0")
        for lv in self.levels:
            if not (1 <= lv.cost_min <= lv.cost_max):
                raise ValueError(f"bad cost range {lv.cost_min}..{lv.cost_max}")
            if lv.count < 1:
                raise ValueError("level count must be positive")
        if not (1 <= self.request_min <= self.request_max <= self.total_requirements):
            raise ValueError(f"bad request range {self.request_min}..{self.request_max}")
        if not (1 <= self.profit_min <= self.profit_max):
            raise ValueError(f"bad profit range {self.profit_min}..{self.profit_max}")

    @property
    def total_requirements(self) -> int:
        return sum(lv.count for lv in self.levels)


_BUILTIN: dict[str, GenSpec] = {
    "NRP-1": GenSpec(
        "NRP-1",
        (LevelSpec(20, 1, 5, 8), LevelSpec(40, 2, 8, 2), LevelSpec(80, 5, 10, 0)),
        customer_count=100, request_min=1, request_max=5,
    ),
    "NRP-2": GenSpec(
        "NRP-2",
        (LevelSpec(20, 1, 5, 8), LevelSpec(40, 2, 7, 6), LevelSpec(80, 3, 9, 4),
         LevelSpec(160, 4, 10, 2), LevelSpec(320, 5, 15, 0)),
        customer_count=500, request_min=1, request_max=5,
    ),
    "NRP-3": GenSpec(
        "NRP-3",
        (LevelSpec(250, 1, 5, 8), LevelSpec(500, 2, 8, 2), LevelSpec(750, 5, 10, 0)),
        customer_count=500, request_min=1, request_max=5,
    ),
    "NRP-4": GenSpec(
        "NRP-4",
        (LevelSpec(250, 1, 5, 8), LevelSpec(500, 2, 7, 6), LevelSpec(750, 3, 9, 4),
         LevelSpec(1000, 4, 10, 2), LevelSpec(750, 5, 15, 0)),
        customer_count=750, request_min=1, request_max=5,
    ),
    "NRP-5": GenSpec(
        "NRP-5",
        (LevelSpec(500, 1, 3, 4), LevelSpec(500, 2, 2, 4), LevelSpec(500, 3, 5, 0)),
        customer_count=1000, request_min=1, request_max=1,
    ),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN)


def builtin_spec(name: str) -> GenSpec:
    """Look up one of the five built-in recipes (NRP-1 .. NRP-5)."""
    try:
        return _BUILTIN[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown instance family {name!r}; valid names: {', '.join(builtin_names())}"
        ) from None


def generate(spec: GenSpec, seed: int) -> Instance:
    """Generate one instance; same (spec, seed) always gives the same instance."""
    counts = [lv.count for lv in spec.levels]
    starts = np.concatenate(([0], np.cumsum(counts)))  # 0-based level offsets

    g_cost = rng.substream(seed, rng.GEN_COSTS)
    costs: list[int] = []
    for lv in spec.levels:
        costs.extend(int(c) for c in g_cost.integers(lv.cost_min, lv.cost_max + 1, size=lv.count))

    g_edge = rng.substream(seed, rng.GEN_EDGES)
    edges: list[tuple[int, int]] = []
    for li, lv in enumerate(spec.levels[:-1]):
        next_count = counts[li + 1]
        next_base = int(starts[li + 1])
        max_deg = min(lv.max_children, next_count)
        for r in range(lv.count):
            deg = int(g_edge.integers(0, max_deg + 1))
            if deg == 0:
                continue
            kids = g_edge.choice(next_count, size=deg, replace=False)
            parent_id = int(starts[li]) + r + 1
            edges.extend((parent_id, next_base + int(k) + 1) for k in kids)

    total = spec.total_requirements
    g_cust = rng.substream(seed, rng.GEN_CUSTOMERS)
    customers: list[tuple[int, tuple[int, ...]]] = []
    for _ in range(spec.customer_count):
        s = int(g_cust.integers(spec.request_min, spec.request_max + 1))
        reqs = tuple(int(r) + 1 for r in g_cust.choice(total, size=s, replace=False))
        w = int(g_cust.integers(spec.profit_min, spec.profit_max + 1))
        customers.append((w, reqs))

    return make_instance(costs, edges, customers, level_sizes=counts)


def spec_from_dict(data: dict) -> GenSpec:
    """Build a GenSpec from a plain dict (the JSON spec-file layout); a
    number that is not whole (2.7) is refused, not cut down."""
    def whole(d: dict, key: str, default=None) -> int:
        value = d[key] if default is None else d.get(key, default)
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be a whole number, got {value}")
        return int(value)

    levels = tuple(
        LevelSpec(whole(lv, "count"), whole(lv, "cost_min"), whole(lv, "cost_max"),
                  whole(lv, "max_children"))
        for lv in data["levels"]
    )
    return GenSpec(
        name=str(data.get("name", "custom")),
        levels=levels,
        customer_count=whole(data, "customer_count"),
        request_min=whole(data, "request_min"),
        request_max=whole(data, "request_max"),
        profit_min=whole(data, "profit_min", 1),
        profit_max=whole(data, "profit_max", 30),
    )
