"""Reference data for the benchmark: proven optima and golden selections.

``optima.json`` holds the optimum of every (instance, ratio) the workloads
run, each proven by HiGHS through ``scipy.optimize.milp`` on the integer
program of Bagnall, Rayward-Smith & Whittley (*The next release problem*,
IST 2001)::

    maximise  sum_i w_i x_i
    s.t.      x_i <= y_r          for every r in closure(i)
              sum_r c_r y_r <= B
              x binary, y in [0, 1]

Given a binary x, the cheapest y sets y_r = 1 exactly for the covered
requirements, so y needs no integrality constraint.

``golden.json`` holds, for every cell of every workload and every solver
seed in the pool, the sha256 of the cell's sorted selection (ids joined by
commas) and its profit.  A run fails any cell whose selection hash differs.

Regenerate both (takes a few minutes)::

    python3 perfbench/reference.py record

and check that regeneration reproduces the stored files byte for byte::

    python3 perfbench/reference.py check
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
import warnings
from pathlib import Path

import bootstrap  # noqa: F401  (before numpy: single-threaded BLAS, src/ on the path)

HERE = Path(__file__).resolve().parent
OPTIMA_FILE = HERE / "optima.json"
GOLDEN_FILE = HERE / "golden.json"

MILP_TIME_LIMIT_S = 300.0


def selection_hash(selected) -> str:
    return hashlib.sha256(",".join(str(c) for c in sorted(selected)).encode()).hexdigest()


def golden_key(workload: str, instance: str, ratio: str, algo: str, seed: int) -> str:
    return f"{workload}|{instance}|{ratio}|{algo}|{seed}"


def prove_optimum(instance, budget: int) -> tuple[int, list[int]]:
    """Optimal profit and selection, proven by HiGHS (single thread, gap 0)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    from nrpbench import evaluate

    m, n = instance.n_customers, instance.n_requirements
    if m == 0:
        return 0, []
    pairs = [(i, int(r)) for i, idx in enumerate(instance.closure_indices) for r in idx]
    k = len(pairs)
    rows = np.repeat(np.arange(k), 2)
    cols = np.asarray([c for i, r in pairs for c in (i, m + r)], dtype=np.int64)
    data = np.tile([1.0, -1.0], k)
    links = coo_matrix((data, (rows, cols)), shape=(k, m + n)).tocsr()
    spend = np.concatenate([np.zeros(m), instance.cost_vector.astype(np.float64)])
    objective = -np.concatenate([instance.profit_vector.astype(np.float64), np.zeros(n)])
    integrality = np.concatenate([np.ones(m), np.zeros(n)])
    with warnings.catch_warnings():
        # milp passes options it does not know ("threads") on to HiGHS verbatim
        warnings.filterwarnings("ignore", message="Unrecognized options", category=RuntimeWarning)
        res = milp(objective, integrality=integrality, bounds=Bounds(0, 1),
                   constraints=[LinearConstraint(links, -np.inf, 0),
                                LinearConstraint(spend[None, :], -np.inf, budget)],
                   options={"time_limit": MILP_TIME_LIMIT_S, "mip_rel_gap": 0.0,
                            "threads": 1, "presolve": True})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality: status {res.status}, {res.message}")
    selected = [i + 1 for i in np.flatnonzero(res.x[:m] > 0.5)]
    sol = evaluate(instance, selected)
    if sol.cost > budget or sol.profit != round(-res.fun):
        raise RuntimeError(f"HiGHS solution does not re-evaluate: profit {sol.profit}, "
                           f"objective {-res.fun}, cost {sol.cost}, budget {budget}")
    return sol.profit, selected


def load_optima() -> dict[str, dict[str, int]]:
    return json.loads(OPTIMA_FILE.read_text(encoding="utf-8"))


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def render(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def compute_optima() -> dict[str, dict[str, int]]:
    import nrpbench
    from workloads import WORKLOADS, build_instance

    optima: dict[str, dict[str, int]] = {}
    for wl in WORKLOADS.values():
        for inst_name, ratio in wl.instance_ratios():
            if ratio in optima.get(inst_name, {}):
                continue
            inst = build_instance(inst_name)
            t0 = time.perf_counter()
            value, _ = prove_optimum(inst, nrpbench.budget(inst, ratio))
            print(f"optimum {inst_name} @ {ratio}: {value} ({time.perf_counter() - t0:.1f} s)",
                  file=sys.stderr, flush=True)
            optima.setdefault(inst_name, {})[ratio] = value
    return optima


def compute_golden(seeds=None) -> dict[str, dict]:
    """Run every pool seed (or ``seeds``) of every workload once, untimed; hash the selections."""
    from workloads import POOL, WORKLOADS

    golden: dict[str, dict] = {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        work = Path(tmp)
        for wl in WORKLOADS.values():
            prepared = wl.setup(work)
            for seed in (POOL if seeds is None else seeds):
                for cell in wl.run_pass(prepared, seed, work).cells:
                    if cell.error is not None:
                        raise RuntimeError(f"{wl.name} seed {seed}: {cell.key} failed: {cell.error}")
                    key = golden_key(wl.name, cell.instance, cell.ratio, cell.algo, seed)
                    golden[key] = {"profit": cell.profit, "sha256": selection_hash(cell.selected)}
                print(f"golden {wl.name} seed {seed}", file=sys.stderr, flush=True)
    return golden


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ("record", "check"):
        print("usage: reference.py record|check", file=sys.stderr)
        return 2
    files = {OPTIMA_FILE: render(compute_optima()), GOLDEN_FILE: render(compute_golden())}
    if argv[0] == "record":
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
        return 0
    stale = [p.name for p, text in files.items()
             if not p.exists() or p.read_text(encoding="utf-8") != text]
    for name in stale:
        print(f"{name}: regeneration differs from the stored file", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
