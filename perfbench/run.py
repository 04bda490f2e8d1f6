"""nrpbench benchmark: run workloads, print every metric, check every selection.

    python3 perfbench/run.py --workload haco-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in a fresh worker process (``worker.py``) under a
wall-clock ceiling, so a hang ends as a recorded failed run.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The exit code is 0 only if every
cell ran, stayed within budget and reproduced its golden selection.
Each run also leaves its full record, with machine facts, under
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# Longer than any sound run of --seconds up to 60; a worker still running at
# this point is stuck (SaParams() defaults, for one, anneal for ~1e12 steps).
HANG_CEILING_S = 150.0


def run_worker(argv: list[str], ceiling_s: float) -> tuple[dict | None, str | None]:
    """Run one worker; returns its result, or None and the reason it has none."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=ceiling_s)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        return None, f"no result within the {ceiling_s:.0f} s ceiling"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with code {proc.returncode}"
    return json.loads(lines[-1]), None


def report(result: dict) -> None:
    name = result["workload"]
    samples = result["samples"]
    for metric, m in {**result["metrics"], **result.get("reported_only", {})}.items():
        note = f"  ({samples[metric]})" if metric in samples else ""
        print(f"{name:15s} {metric:42s} {m['value']:14.6g} {m['unit']}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name:15s} {'fail_frac':42s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} cells)")
    for line in result["failures"]:
        print(f"{name:15s} FAIL {line}")
    meta = result["meta"]
    print(f"{name:15s} meta: commit {meta['commit']}, python {meta['python']}, numpy "
          f"{meta['numpy']}, {meta['blas']} x{meta['blas_threads']}, {meta['usable_cores']} "
          f"cores, load {meta['loadavg_start']} -> {meta['loadavg_end']}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS  # fails, as it should, in a checkout without src/

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)  # run_seconds in BENCHMARK.json
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv_w = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        result, reason = run_worker(argv_w, HANG_CEILING_S)
        if result is None:
            print(f"{name}: FAILED RUN: {reason}", file=sys.stderr)
            WORK.mkdir(exist_ok=True)
            record = WORK / f"result-{name}-s{args.seed}-t{args.trace}.json"
            record.write_text(json.dumps({"workload": name, "failed_run": reason}) + "\n",
                              encoding="utf-8")
            return 2
        report(result)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
