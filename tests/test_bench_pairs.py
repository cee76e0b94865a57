"""Verdicts of ``tools/bench_pairs.py`` on fixed numbers, no benchmark run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

#: Ten parent runs with quartiles 99.25-100.75 around a median of 100.
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_quartiles_interpolate_between_ranks():
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pairs.quartiles(PARENT) == (99.25, 100.0, 100.75)


def test_gain_needs_nine_wins_in_ten_and_a_gap_past_the_spread():
    faster = [value * 1.2 for value in PARENT]
    assert bench_pairs.verdict(PARENT, faster, "higher", 0.25) == (10, "gain")
    # Nine wins and a tie: still a gain; a lower-is-better metric mirrors it.
    tied = faster[:9] + [PARENT[9]]
    assert bench_pairs.verdict(PARENT, tied, "higher", 0.25) == (9, "gain")
    lower = [value * 0.8 for value in PARENT]
    assert bench_pairs.verdict(PARENT, lower, "lower", 0.25) == (10, "gain")
    # Eight wins in ten is no gain, however wide the gap.
    eight = faster[:8] + [value * 0.99 for value in PARENT[8:]]
    assert bench_pairs.verdict(PARENT, eight, "higher", 0.25) == (8, "within the bound")
    # Fewer than ten pairs claim nothing, whatever they read.
    assert bench_pairs.verdict(PARENT[:5], faster[:5], "higher", 0.25) == (5, "within the bound")
    # Ten wins but a median gap inside the parent's quartile spread.
    nudged = [value + 0.5 for value in PARENT]
    assert bench_pairs.verdict(PARENT, nudged, "higher", 0.25) == (10, "within the bound")


def test_worse_than_the_bound():
    slower = [value * 1.3 for value in PARENT]
    assert bench_pairs.verdict(PARENT, slower, "lower", 0.25) == (0, "worse than the bound")
    assert bench_pairs.verdict(PARENT, slower, "lower", 0.35) == (0, "within the bound")
    fewer = [value * 0.9 for value in PARENT]
    assert bench_pairs.verdict(PARENT, fewer, "higher", 0.06) == (0, "worse than the bound")


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    nudged = [value + 1 for value in wide]
    assert bench_pairs.verdict(wide, nudged, "higher", 0.25) == (10, "unresolved")
    # Worse than the bound outranks a wide spread.
    slower = [value * 0.5 for value in wide]
    assert bench_pairs.verdict(wide, slower, "higher", 0.25) == (0, "worse than the bound")


def test_a_failed_run_stops_the_pairs():
    good = {"correct": True, "attempted": 10, "failed": 0, "metrics": {}}
    assert bench_pairs.parse_run(0, "summary\n" + json.dumps(good) + "\n") == good
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.parse_run(1, json.dumps(good))
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.parse_run(0, json.dumps(dict(good, correct=False, failed=3)))
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.parse_run(0, "")
