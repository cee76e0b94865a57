"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import OUT, ROOT
from bench.host import REFERENCE_PROBE_S, HostProbe
from bench.layers import PER_LAYER
from bench.oracle import Oracle
from bench.runner import END_TO_END
from bench.stats import percentile
from bench.tracer import SpanGroup, Span, Target, Tracer, self_times
from bench.workloads import GATED, WORKLOADS, load_ruleset
from repro.rules.trace import generate_trace


@pytest.fixture(scope="module")
def ruleset():
    return load_ruleset()


def _truth(ruleset, headers):
    answers = []
    for header in headers:
        rule = ruleset.highest_priority_match(header)
        answers.append(rule.rule_id if rule is not None else None)
    return answers


def test_oracle_matches_linear_search(ruleset):
    headers = generate_trace(ruleset, 2000, seed=11)
    assert Oracle(ruleset).classify(headers) == _truth(ruleset, headers)


def test_oracle_mask_matches_linear_search_without_removed_rules(ruleset):
    headers = generate_trace(ruleset, 2000, seed=12)
    oracle = Oracle(ruleset)
    winners = [rid for rid in oracle.classify(headers[:200]) if rid is not None]
    removed = set(winners[:10])
    assert removed
    reduced = ruleset.filter(lambda rule: rule.rule_id not in removed)
    masked = oracle.classify(headers, oracle.mask(removed))
    assert masked == _truth(reduced, headers)
    assert masked != oracle.classify(headers)


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 0, None)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 50, parent=0),
        _span(2, 20, 30, parent=1),  # grandchild: counts against span 1 only
    ]
    assert self_times(spans) == {0: 60, 1: 30, 2: 10}


def test_self_time_of_back_to_back_and_overlapping_children():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 30, parent=0),
        _span(2, 30, 50, parent=0),  # back to back with span 1
        _span(3, 40, 60, parent=0),  # overlaps span 2 (another thread)
        _span(4, 90, 120, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


class _Layer:
    def outer(self, items):
        return [self.inner(item) for item in items]

    def inner(self, item):
        return item * 2


def test_tracer_records_parents_counts_and_restores_methods():
    tracer = Tracer()
    original = _Layer.__dict__["outer"]
    tracer.install([
        SpanGroup("outer", [Target(_Layer, "outer", "outer", lambda args, result: len(args[1]))]),
        SpanGroup("inner", [Target(_Layer, "inner", "inner")]),
    ])
    layer = _Layer()
    tracer.batch = 4
    assert layer.outer([1, 2, 3]) == [2, 4, 6]
    tracer.uninstall()
    spans = tracer.spans()
    assert [span.name for span in spans] == ["outer", "inner", "inner", "inner"]
    assert spans[0].count == 3 and spans[0].parent is None
    assert all(span.parent == spans[0].id and span.batch == 4 for span in spans[1:])
    assert _Layer.__dict__["outer"] is original
    layer.outer([1])
    assert len(tracer.spans()) == 4


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_host_probe_scales_by_reference_over_median_sample():
    probe = HostProbe()
    probe.samples = [2 * REFERENCE_PROBE_S, 4 * REFERENCE_PROBE_S, 2.5 * REFERENCE_PROBE_S]
    assert probe.scale() == pytest.approx(0.4)
    probe.sample()
    assert len(probe.samples) == 4
    assert probe.spent == pytest.approx(probe.samples[-1])


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert [w["why"] for w in spec["workloads"]] == [WORKLOADS[name].why for name in GATED]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def _bench(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_smoke_set_classifies_every_packet_correctly():
    completed = _bench("run", "--seed", "5", "--smoke")
    assert completed.returncode == 0, completed.stderr
    report = json.loads((OUT / "run-5.json").read_text(encoding="utf-8"))
    assert set(report["workloads"]) == set(WORKLOADS)
    for entry in report["workloads"].values():
        assert entry["metrics"]["error_rate"] == 0
        assert entry["metrics"]["throughput_pps"] > 0


def test_smoke_trace_fires_every_required_span_group():
    completed = _bench("trace", "--seed", "5", "--smoke")
    assert completed.returncode == 0, completed.stderr
    report = json.loads((OUT / "trace-5.json").read_text(encoding="utf-8"))
    assert report["problems"] == []
    for name in WORKLOADS:
        assert (OUT / f"spans-{name}.jsonl").stat().st_size > 0


def test_fails_without_library_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _bench("--workload", "acl_unique", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
