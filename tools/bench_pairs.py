"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S

In each checkout it runs ``BENCHMARK.json``'s ``command`` with ``--workload W
--seed s --seconds <run_seconds> --trace 0``, for the seeds S to S+N-1, one
pair per seed.  The parent runs first in even pairs and the change in odd
ones.  Every run's JSON line is printed as it lands, so the record of the
runs is the tool's own output.  The first run that exits non-zero or reports
``correct: false`` stops the tool (exit status 1).

Then, for each end-to-end metric, it prints each side's median and quartiles,
the pairs the change won (a tie counts for neither side) and one verdict:

* ``gain``: of at least ten pairs, the change won nine in ten or more, and
  the medians differ by more than the parent's quartile spread;
* ``worse than the bound``: the change's median is worse than the parent's by
  more than the metric's bound, a fraction of the parent's median;
* ``unresolved``: the parent's quartile spread is wider than the bound;
* ``within the bound``: none of these.

The command, the run length and the bounds come from the change's
``BENCHMARK.json``, which must equal the parent's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


class RunFailed(Exception):
    """A benchmark run exited non-zero or reported a wrong answer."""


def load_spec(checkout: Path) -> dict:
    """The checkout's ``BENCHMARK.json``."""
    return json.loads((checkout / "BENCHMARK.json").read_text())


def parse_run(returncode: int, stdout: str) -> dict:
    """The JSON record a run printed as its last line; RunFailed if it failed."""
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        raise RunFailed(f"exit status {returncode}")
    record = json.loads(lines[-1])
    if not record.get("correct"):
        raise RunFailed(f"correct: false ({record.get('failed')} failed)")
    return record


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, middle, high


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[int, str]:
    """``(pairs the change won, verdict)`` for one metric over paired runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    low, median, high = quartiles(parent)
    spread = high - low
    gap = sign * (quartiles(change)[1] - median)  # positive: the change is better
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > spread:
        return wins, "gain"
    if -gap > bound * abs(median):
        return wins, "worse than the bound"
    if spread > bound * abs(median):
        return wins, "unresolved"
    return wins, "within the bound"


def _run(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return parse_run(done.returncode, done.stdout)


def _summary(spec: dict, runs: Dict[str, List[dict]]) -> None:
    pairs = len(runs["change"])
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent, change = (
            [run["metrics"][name]["value"] for run in runs[side]] for side in ("parent", "change")
        )
        wins, said = verdict(parent, change, metric["better"], metric["bound"])
        old, new = quartiles(parent), quartiles(change)
        delta = (new[1] - old[1]) / old[1] if old[1] else float("nan")
        print(
            f"{name:16s} parent {old[1]:.6g} [{old[0]:.6g}-{old[2]:.6g}]"
            f"  change {new[1]:.6g} [{new[0]:.6g}-{new[2]:.6g}]"
            f"  {delta:+.1%}  wins {wins}/{pairs}  bound {metric['bound']:.0%}: {said}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    spec = load_spec(args.change)
    if load_spec(args.parent) != spec:
        print("error: the two checkouts' BENCHMARK.json differ", file=sys.stderr)
        return 2
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                record = _run(checkouts[side], spec, args.workload, seed)
            except RunFailed as failure:
                print(f"error: {side} run, seed {seed}: {failure}", file=sys.stderr)
                return 1
            runs[side].append(record)
            print(f"{side} seed={seed} {json.dumps(record)}", flush=True)
    _summary(spec, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
