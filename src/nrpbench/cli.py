"""Command line front end.

Subcommands: ``gen`` (write a benchmark instance), ``solve`` (run one
algorithm on one instance), ``bench`` (run a config-driven matrix), and
``verify`` (re-evaluate a dumped solution against its instance).

Exit codes: 0 success, 1 usage/config error (a bad parameter value
included), 2 data error (unparsable or invalid input, failed
verification), 3 guard refusal (instance too large for the exact solver).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .baselines import TooLargeError
from .bench import (ConfigError, _dump_payload, _params_of, _parse_params,
                    parse_bench_config, run_bench, solve_one, verify_dump, ALGORITHMS)
from .fileformat import ParseError, read_instance_file, write_instance
from .generate import builtin_names, builtin_spec, generate, spec_from_dict
from .model import InvalidInstanceError, budget as budget_of, evaluate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GUARD = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise UsageError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="nrpbench",
                  description="Generate, solve, and benchmark release-planning instances.")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance", parents=[])
    g.add_argument("family", nargs="?", help="built-in family name (see --list)")
    g.add_argument("--spec", help="JSON file describing a custom family")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output path (default: stdout)")
    g.add_argument("--list", action="store_true", help="list built-in families")

    s = sub.add_parser("solve", help="run one algorithm on one instance")
    s.add_argument("instance", help="instance file")
    s.add_argument("--algo", default="haco", choices=ALGORITHMS)
    s.add_argument("--budget-ratio", default="0.5",
                   help="budget as a fraction of total requirement cost")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dump", help="write the solution as JSON here")
    for flag, (param, algos) in _solve_flags().items():
        s.add_argument("--" + flag.replace("_", "-"), type=param.type,
                       help=f"{param.help} ({'/'.join(algos)})")

    b = sub.add_parser("bench", help="run a benchmark matrix from a config file")
    b.add_argument("config", help="INI config file")
    b.add_argument("--jobs", type=int, help="worker processes (overrides config)")
    b.add_argument("--out", help="output path stem (overrides config)")
    b.add_argument("--dump", help="solution dump directory (overrides config)")

    v = sub.add_parser("verify", help="re-evaluate a dumped solution")
    v.add_argument("instance", help="instance file")
    v.add_argument("dump", help="JSON dump written by solve/bench")
    v.add_argument("--budget-ratio",
                   help="also check the dump's budget equals this ratio's budget")
    return top


def _solve_flags() -> dict:
    """Each ``solve`` flag's argparse dest -> (its parameter, the algorithms it sets)."""
    flags: dict = {}
    for algo in ALGORITHMS:
        for param in _params_of(algo):
            flags.setdefault(param.flag, (param, []))[1].append(algo)
    return flags


def _solver_params(args):
    given = []
    for flag, (param, algos) in _solve_flags().items():
        value = getattr(args, flag)
        if value is None:
            continue
        if args.algo not in algos:
            raise UsageError(f"--{flag.replace('_', '-')} does not apply to {args.algo}")
        given.append((param, value))
    return _parse_params(args.algo, given, UsageError)


def _cmd_gen(args) -> int:
    if args.list:
        for name in builtin_names():
            print(name)
        return EXIT_OK
    if bool(args.family) == bool(args.spec):
        raise UsageError("give exactly one of a family name or --spec")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.spec:
        try:
            data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
            spec = spec_from_dict(data)
        except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as e:
            print(f"error: bad spec file: {e}", file=sys.stderr)
            return EXIT_DATA
    else:
        try:
            spec = builtin_spec(args.family)
        except ValueError:
            raise UsageError(f"unknown family {args.family!r}; valid names: "
                             + ", ".join(builtin_names())) from None
    inst = generate(spec, args.seed)
    text = write_instance(inst)
    counts = f"{inst.n_requirements} requirements, {inst.n_customers} customers"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {counts} to {args.out}")
    else:
        sys.stdout.write(text)
        print(counts, file=sys.stderr)
    return EXIT_OK


def _parse_ratio(inst, text):
    try:
        return budget_of(inst, text)
    except ValueError as e:
        raise UsageError(f"bad --budget-ratio: {e}") from None


def _cmd_solve(args) -> int:
    params = _solver_params(args)
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    inst = read_instance_file(args.instance)
    inst.require_valid()
    bud = _parse_ratio(inst, args.budget_ratio)
    started = time.perf_counter()
    sol, _ = solve_one(inst, bud, args.algo, args.seed, params)
    wall = time.perf_counter() - started
    print(f"instance: {args.instance}")
    print(f"algorithm: {args.algo} (seed {args.seed})")
    print(f"budget: {bud} (ratio {args.budget_ratio} of total {inst.total_cost})")
    print(f"profit: {sol.profit}")
    print(f"cost: {sol.cost}")
    print(f"selected: {' '.join(map(str, sorted(sol.selected))) or '-'}")
    # wall time goes to stderr so repeated runs give identical stdout
    print(f"time: {wall:.3f}s", file=sys.stderr)
    if args.dump:
        payload = _dump_payload(args.instance, str(args.budget_ratio), args.algo,
                                args.seed, bud, sol)
        Path(args.dump).write_text(json.dumps(payload, indent=1) + "\n",
                                   encoding="utf-8")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = parse_bench_config(args.config)
    if args.jobs is not None:
        config.jobs = args.jobs
    if args.out is not None:
        config.out = args.out
    if args.dump is not None:
        config.dump_dir = args.dump
    records = run_bench(config)
    failed = [r for r in records if r.error]
    for r in failed:
        print(f"error: {r.instance_name} ratio {r.budget_ratio} {r.algorithm} "
              f"seed {r.seed}: {r.error}", file=sys.stderr)
    print(f"{len(records) - len(failed)}/{len(records)} runs completed"
          + (f", results at {config.out}.csv" if config.out else ""))
    return EXIT_DATA if failed else EXIT_OK


def _cmd_verify(args) -> int:
    inst = read_instance_file(args.instance)
    inst.require_valid()
    try:
        dump = json.loads(Path(args.dump).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: bad dump file: {e}", file=sys.stderr)
        return EXIT_DATA
    problems = verify_dump(inst, dump)
    if args.budget_ratio is not None:
        expect = _parse_ratio(inst, args.budget_ratio)
        if dump.get("budget") != expect:
            problems.append(f"budget {dump.get('budget')} is not the ratio "
                            f"{args.budget_ratio} budget ({expect})")
    if problems:
        for p in problems:
            print(f"mismatch: {p}", file=sys.stderr)
        return EXIT_DATA
    sol = evaluate(inst, dump["selected"])
    print(f"ok: profit {sol.profit}, cost {sol.cost} within budget "
          f"{dump.get('budget', 'n/a')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"gen": _cmd_gen, "solve": _cmd_solve, "bench": _cmd_bench,
                   "verify": _cmd_verify}[args.command]
        return handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TooLargeError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, InvalidInstanceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
