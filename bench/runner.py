"""Rounds, sets and reports.

A *round* runs one workload once: five engine builds (``setup_s``), an
untimed warm-up, ``gc.collect()``, then the measured phase.  A host probe
(:mod:`bench.host`) samples between the timed operations, and the round
records every time at reference host speed.  Throughput and memory are
medians of per-round values; set-up time is the median of every build, and
latency percentiles pool the samples of every round.

* :func:`run_process` is the single-process entry point: it generates the
  inputs, checks the oracle, and runs rounds until a time budget or a round
  count is spent.
* :func:`run_set` runs R interleaved rounds of every workload, each round of
  each workload in a fresh ``PYTHONHASHSEED=0`` subprocess, so a host
  slowdown spreads across all workloads instead of landing on one.
* :func:`trace_set` runs one untraced and one traced round of every workload
  (one subprocess each), writes the spans and checks the breakdown.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from statistics import median
from typing import Dict, List, Optional, Tuple

from bench import OUT, ROOT
from bench.host import HostProbe
from bench.layers import PER_LAYER, layer_metrics
from bench.oracle import Oracle, cross_check
from bench.stats import percentile_or_none
from bench.tracer import Tracer
from bench.workloads import BUILDS_PER_ROUND, WORKLOADS, Inputs, Workload, load_ruleset

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END: List[Tuple[str, str]] = [
    ("throughput_pps", "pkt/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p75_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: End-to-end metrics a set reports beside those.  On zipf_churn about one
#: call in ten follows a commit that rebuilt a walker or pauses for a full
#: garbage collection, so p90 sits on the edge of that cluster and moves
#: with the seed's victims (quartile spread 14% over ten seeds, p75 6%).
#: Commit latency exists only on zipf_churn, and the error rate is 0 on a
#: correct build.  None of them can be a per-workload regression gate.
SET_ONLY: List[Tuple[str, str]] = [
    ("batch_p90_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("error_rate", "fraction"),
]
#: Rounds a set runs; the single-process entry point runs at least MIN_ROUNDS.
SET_ROUNDS = 7
MIN_ROUNDS = 3
#: The traced round fails when its spans cover less of the measured wall time.
MIN_COVERAGE = 0.95
SMOKE_SCALE = 0.02
#: Probe samples at the start and at the end of a round.
EDGE_PROBES = 3


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy measurement."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def run_round(workload: Workload, ruleset, inputs: Inputs,
              tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Build, warm and measure ``workload`` once; returns the round record.

    Times in the record are at reference host speed; ``host_scale`` is the
    factor that took the measured times there.
    """
    groups = workload.span_groups() if tracer is not None else []
    if tracer is not None:
        tracer.install(groups)
    probe = HostProbe()
    engine = None
    try:
        for _ in range(EDGE_PROBES):
            probe.sample()
        setup: List[float] = []
        for _ in range(BUILDS_PER_ROUND):
            if engine is not None:
                workload.close(engine)
                engine = None
            gc.collect()
            probe.sample()
            began = time.perf_counter()
            engine = workload.build(ruleset, inputs)
            setup.append(time.perf_counter() - began)
        workload.warm(engine, inputs)
        before = workload.counters(engine)
        gc.collect()
        measurement = workload.measure(engine, inputs, probe, tracer)
        rss = peak_rss_mb()
        after = workload.counters(engine)
        for _ in range(EDGE_PROBES):
            probe.sample()
    finally:
        if engine is not None:
            workload.close(engine)
        if tracer is not None:
            tracer.uninstall()
    scale = probe.scale()
    mismatches = sum(
        1
        for record, want in zip(measurement.records, inputs.expected)
        if record is not None and record.rule_id != want
    )
    mismatches += abs(len(measurement.records) - len(inputs.expected))
    result: Dict[str, object] = {
        "workload": workload.name,
        "traced": tracer is not None,
        "host_scale": scale,
        "host.calib_loops_per_s": probe.loops_per_s(),
        "setup_s": [seconds * scale for seconds in setup],
        "batch_ms": [seconds * 1e3 * scale for seconds in measurement.batch_s],
        "commit_ms": [seconds * 1e3 * scale for seconds in measurement.commit_s],
        "packets": measurement.packets,
        "commits": measurement.commits,
        "wall_s": measurement.wall_s * scale,
        "throughput_pps": measurement.packets / (measurement.wall_s * scale),
        "peak_rss_mb": rss,
        "attempted": len(inputs.expected) + measurement.commits,
        "failed": mismatches + measurement.failed_packets + measurement.failed_commits,
    }
    if tracer is not None:
        spans = tracer.spans()
        fired: Dict[str, int] = {}
        for span in spans:
            fired[span.name] = fired.get(span.name, 0) + 1
        result["groups"] = {
            group.name: {
                "spans": sum(fired.get(name, 0) for name in {t.name for t in group.targets}),
                "required": group.required,
            }
            for group in groups
        }
        layers = layer_metrics(
            spans, before, after, measurement.packets, measurement.commits,
            measurement.wall_s, measurement.hops, measurement.records,
        )
        for name, unit, _ in PER_LAYER:
            if unit in ("us", "ms"):
                layers[name] *= scale
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# One process: inputs, oracle, rounds
# ---------------------------------------------------------------------------


def prepare(workload: Workload, seed: int, scale: float):
    """Ruleset, inputs and oracle expectations; fails on any oracle disagreement."""
    ruleset = load_ruleset()
    oracle = Oracle(ruleset)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    inputs = workload.make_inputs(ruleset, oracle, seed, scale, workdir)
    checks = [()]
    if inputs.victims:
        checks.append((inputs.victims[0].rule_id,))
    for removed in checks:
        wrong = cross_check(oracle, ruleset, inputs.headers, seed, removed=removed)
        if wrong:
            raise BenchmarkError(
                f"{workload.name}: oracle disagrees with highest_priority_match on "
                f"{len(wrong)} of 500 headers (removed={list(removed)}), e.g. {wrong[0]}"
            )
    return ruleset, inputs, workdir


def cleanup(workdir) -> None:
    """Remove the input files and stop helper processes the run left behind."""
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    # The pool's shared-memory ring starts the stdlib resource tracker, a
    # process built to outlive its parent; stop it so no process survives.
    resource_tracker._resource_tracker._stop()


def run_process(
    name: str,
    seed: int,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    traced: bool = False,
    scale: float = 1.0,
) -> Dict[str, object]:
    """Run rounds of one workload in this process.

    With ``seconds``, rounds continue until the budget is spent and at least
    :data:`MIN_ROUNDS` rounds ran; with ``rounds``, exactly that many run.
    ``traced`` alternates untraced and traced rounds, starting untraced, so
    the tracing overhead is the ratio of their throughputs.
    """
    workload = WORKLOADS[name]
    ruleset, inputs, workdir = prepare(workload, seed, scale)
    done: List[Dict[str, object]] = []
    durations: List[float] = []
    last_tracer: Optional[Tracer] = None
    deadline = time.perf_counter() + (seconds or 0)
    try:
        while not (
            len(done) >= rounds if rounds is not None
            else _enough(done, durations, deadline, traced)
        ):
            tracer = Tracer() if traced and len(done) % 2 else None
            began = time.perf_counter()
            done.append(run_round(workload, ruleset, inputs, tracer))
            durations.append(time.perf_counter() - began)
            last_tracer = tracer or last_tracer
    finally:
        cleanup(workdir)
    if last_tracer is not None:
        last_tracer.write(OUT / f"spans-{name}.jsonl")
    calibration = median([r["host.calib_loops_per_s"] for r in done])
    return {"workload": name, "seed": seed, "host.calib_loops_per_s": calibration,
            "rounds": done}


def _enough(done: List[Dict[str, object]], durations: List[float], deadline: float,
            traced: bool) -> bool:
    """Whether a time-budgeted run may stop (see :func:`run_process`)."""
    plain = [r for r in done if not r["traced"]]
    if traced:
        if len(plain) < 2 or len(done) - len(plain) < 2:
            return False
    elif len(plain) < MIN_ROUNDS:
        return False
    # Stop when one more round would end over half a round past the deadline.
    return time.perf_counter() + median(durations) / 2 > deadline


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def end_to_end(rounds: List[Dict[str, object]]) -> Dict[str, Optional[float]]:
    """Every end-to-end metric over untraced rounds (None where undefined)."""
    rounds = [r for r in rounds if not r["traced"]]
    batch = [value for r in rounds for value in r["batch_ms"]]
    commits = [value for r in rounds for value in r["commit_ms"]]
    attempted = sum(r["attempted"] for r in rounds)
    return {
        "throughput_pps": median([r["throughput_pps"] for r in rounds]),
        "batch_p50_ms": percentile_or_none(batch, 50),
        "batch_p75_ms": percentile_or_none(batch, 75),
        "batch_p90_ms": percentile_or_none(batch, 90),
        "setup_s": median([value for r in rounds for value in r["setup_s"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "commit_p50_ms": percentile_or_none(commits, 50) if commits else None,
        "commit_p90_ms": percentile_or_none(commits, 90) if commits else None,
        "error_rate": sum(r["failed"] for r in rounds) / attempted if attempted else None,
        "batch_samples": len(batch),
        "commit_samples": len(commits),
    }


def per_layer(rounds: List[Dict[str, object]]) -> Dict[str, float]:
    """Every per-layer metric: medians over traced rounds, plus the overhead."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    names = [name for name, _, _ in PER_LAYER if name != "trace.overhead"]
    metrics = {name: median([r["layers"][name] for r in traced]) for name in names}
    metrics["trace.overhead"] = (
        median([r["throughput_pps"] for r in traced]) / median([r["throughput_pps"] for r in plain])
    )
    return metrics


def trace_problems(name: str, rounds: List[Dict[str, object]],
                   metrics: Dict[str, float]) -> List[str]:
    """Breakdown integrity: required span groups fired, spans cover the wall time."""
    problems = []
    for r in rounds:
        if not r["traced"]:
            continue
        for group, info in r["groups"].items():
            if info["required"] and not info["spans"]:
                problems.append(f"{name}: span group {group!r} recorded no span")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(
            f"{name}: spans cover {metrics['trace.coverage']:.3f} of the measured "
            f"wall time (< {MIN_COVERAGE})"
        )
    return sorted(set(problems))


# ---------------------------------------------------------------------------
# Sets across subprocesses
# ---------------------------------------------------------------------------


def _subprocess_round(name: str, seed: int, smoke: bool, traced: bool) -> Dict[str, object]:
    command = [sys.executable, "-m", "bench", "round", "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"{name} round exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_set(seed: int, smoke: bool = False) -> Dict[str, object]:
    """R interleaved rounds of every workload, one fresh subprocess each.

    A smoke set runs a single round at :data:`SMOKE_SCALE` of every size.
    """
    rounds = 1 if smoke else SET_ROUNDS
    names = list(WORKLOADS)
    collected: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    calibration: Dict[str, List[float]] = {name: [] for name in names}
    for index in range(rounds):
        for name in names:
            record = _subprocess_round(name, seed, smoke, traced=False)
            collected[name].extend(record["rounds"])
            calibration[name].append(record["host.calib_loops_per_s"])
            print(f"round {index + 1}/{rounds} {name}: "
                  f"{record['rounds'][0]['throughput_pps']:.0f} pkt/s", file=sys.stderr)
    return {
        "seed": seed,
        "rounds": rounds,
        "workloads": {
            name: {
                "metrics": end_to_end(collected[name]),
                "host.calib_loops_per_s": calibration[name],
                "rounds": collected[name],
            }
            for name in names
        },
    }


def trace_set(seed: int, smoke: bool = False) -> Dict[str, object]:
    """One untraced and one traced round of every workload, one subprocess each."""
    report: Dict[str, object] = {"seed": seed, "workloads": {}, "problems": []}
    for name in WORKLOADS:
        record = _subprocess_round(name, seed, smoke, traced=True)
        metrics = per_layer(record["rounds"])
        report["workloads"][name] = {
            "metrics": metrics,
            "groups": [r for r in record["rounds"] if r["traced"]][0]["groups"],
            "host.calib_loops_per_s": record["host.calib_loops_per_s"],
        }
        report["problems"].extend(trace_problems(name, record["rounds"], metrics))
    return report
