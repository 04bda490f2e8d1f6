"""
A tour of the five solvers (plus the exact oracle)
==================================================

The same instance and budget, handed to every algorithm in the box:

* ``exact``  -- the integer program, proven optimal by HiGHS
* ``fhc``    -- random starts + first-found hill climbing
* ``grasp``  -- greedy-randomized construction + the same climb
* ``sa``     -- single-flip simulated annealing, slow cooling
* ``aco``    -- ant constructions guided by pheromone trails
* ``haco``   -- the hybrid: every ant's plan polished by a sweeping climb
"""

import time

from nrpbench import (AcoParams, FhcParams, GenSpec, GraspParams, LevelSpec,
                      SaParams, budget, builtin_spec, exact, generate, run,
                      solve_one)

# A mid-sized custom recipe: big enough (20 customers) that the solvers
# disagree, small enough that the whole tour runs in seconds.
recipe = GenSpec(
    name="demo",
    levels=(LevelSpec(6, 1, 5, 3), LevelSpec(10, 2, 8, 2), LevelSpec(14, 5, 10, 0)),
    customer_count=20, request_min=1, request_max=3,
)
inst = generate(recipe, seed=7)
b = budget(inst, "0.5")
print(inst)
print("budget:", b, "of total", inst.total_cost)

print()
truth = exact(inst, b)
print(f"exact optimum: profit {truth.profit} (cost {truth.cost})")

params = {
    "fhc": FhcParams(),
    "grasp": GraspParams(),
    "sa": SaParams(lm_beta=0.01),
    "aco": AcoParams(),
    "haco": AcoParams(),
}
print()
print(f"{'algorithm':>9}  {'profit':>6}  {'cost':>4}  {'gap':>5}  time")
for algo in ("fhc", "grasp", "sa", "aco", "haco"):
    t0 = time.perf_counter()
    sol, _ = solve_one(inst, b, algo, seed=7, params=params[algo])
    dt = time.perf_counter() - t0
    gap = 100.0 * (truth.profit - sol.profit) / truth.profit
    print(f"{algo:>9}  {sol.profit:>6}  {sol.cost:>4}  {gap:4.1f}%  {dt:.3f}s")

# The hybrid's edge comes from polishing: same ants, same trails, but
# each constructed plan is pushed to a swap-proof local optimum before
# it deposits pheromone.  Watch the per-iteration best on NRP-1.
print()
big = generate(builtin_spec("NRP-1"), seed=1)
bb = budget(big, "0.5")
plain = run(big, bb, AcoParams(use_local_search=False), seed=1)
hybrid = run(big, bb, AcoParams(use_local_search=True), seed=1)
print("NRP-1 seed 1, budget ratio 0.5")
print("iteration-best profit, plain ants :", plain.trace)
print("iteration-best profit, hybrid ants:", hybrid.trace)
print(f"final: plain {plain.best.profit} vs hybrid {hybrid.best.profit}")
