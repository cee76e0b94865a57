"""Command line of the repository benchmark.

Single process, one workload (the form automated comparisons call)::

    python -m bench --workload acl_unique --seed 1 --seconds 30 --trace 0

prints a summary and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 1``: the
per-layer metrics).  Full sets::

    python -m bench run --seed 20140608      # 7 interleaved rounds x 5 workloads
    python -m bench trace --seed 20140608    # per-layer breakdown, spans in bench/out/

``round`` runs one round in this process and prints its raw record; ``run``
and ``trace`` call it in fresh subprocesses.  Every form re-executes itself
under ``PYTHONHASHSEED=0`` first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from bench import OUT, SOURCE


def _parser() -> argparse.ArgumentParser:
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    commands = parser.add_subparsers(dest="command")
    run = commands.add_parser("run", help="interleaved rounds of every workload")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--smoke", action="store_true",
                     help="one round at 2%% of every workload's size")
    trace = commands.add_parser("trace", help="traced round of every workload")
    trace.add_argument("--seed", type=int, required=True)
    trace.add_argument("--smoke", action="store_true")
    one = commands.add_parser("round", help="one round of one workload, raw JSON")
    one.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--smoke", action="store_true")
    one.add_argument("--trace", action="store_true")
    return parser


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _single(args) -> int:
    from bench.layers import PER_LAYER
    from bench.runner import END_TO_END, end_to_end, per_layer, run_process, trace_problems

    traced = bool(args.trace)
    record = run_process(args.workload, args.seed, seconds=args.seconds, traced=traced)
    rounds = record["rounds"]
    if traced:
        values = per_layer(rounds)
        units = [(name, unit) for name, unit, _ in PER_LAYER]
        problems = trace_problems(args.workload, rounds, values)
    else:
        values = end_to_end(rounds)
        units = END_TO_END
        problems = []
    # Traced rounds classify the same packets, so their failures count too.
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"host.calib_loops_per_s={record['host.calib_loops_per_s']:.0f}")
    for name, unit in units:
        print(f"  {name:38s} {_fmt(values[name]):>12s} {unit}")
    problems += [f"no value for {name}" for name, _ in units if values[name] is None]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _print_set(report: Dict[str, object]) -> List[str]:
    from bench.runner import END_TO_END, SET_ONLY

    errors = []
    for name, entry in report["workloads"].items():
        metrics = entry["metrics"]
        print(f"{name}  (batch samples {metrics['batch_samples']}, "
              f"commit samples {metrics['commit_samples']})")
        for metric, unit in END_TO_END + SET_ONLY:
            if metric.startswith("commit_") and not metrics["commit_samples"]:
                continue
            print(f"  {metric:16s} {_fmt(metrics[metric]):>12s} {unit}")
        if metrics["error_rate"]:
            errors.append(f"{name}: error_rate {metrics['error_rate']}")
    return errors


def _print_trace(report: Dict[str, object]) -> None:
    from bench.layers import PER_LAYER

    names = list(report["workloads"])
    print(f"{'metric':38s} {'unit':8s} " + " ".join(f"{name:>13s}" for name in names))
    for metric, unit, _ in PER_LAYER:
        row = " ".join(f"{_fmt(report['workloads'][n]['metrics'][metric]):>13s}" for n in names)
        print(f"{metric:38s} {unit:8s} {row}")


def main(argv: Optional[List[str]] = None) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"error: no library source at {SOURCE}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required without a command")
        return _single(args)

    from bench.runner import SMOKE_SCALE, run_process, run_set, trace_set

    if args.command == "round":
        scale = SMOKE_SCALE if args.smoke else 1.0
        record = run_process(args.workload, args.seed, rounds=2 if args.trace else 1,
                             traced=args.trace, scale=scale)
        print(json.dumps(record))
        return 0
    OUT.mkdir(exist_ok=True)
    if args.command == "run":
        report = run_set(args.seed, smoke=args.smoke)
        (OUT / f"run-{args.seed}.json").write_text(json.dumps(report), encoding="utf-8")
        errors = _print_set(report)
    else:
        report = trace_set(args.seed, smoke=args.smoke)
        (OUT / f"trace-{args.seed}.json").write_text(json.dumps(report), encoding="utf-8")
        _print_trace(report)
        errors = report["problems"]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order feeds the flow cache and the fast path, so the
        # hash seed is part of the workload.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], environment)
    sys.exit(main())
