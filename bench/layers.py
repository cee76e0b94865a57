"""Per-layer metrics of a traced round.

Wall times come from the spans of the measured phase (``batch`` set); hit
rates and drop counts from the counter deltas the layers already expose
(``FlowCache.stats()``, ``FastPathAccelerator.cache_stats()``); the modelled
cycle and probe counts from the classifications themselves.  A layer the
workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from bench.tracer import Span, self_times

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("flowcache.self_us_per_pkt", "us", "lower"),
    ("flowcache.hit_rate", "fraction", "higher"),
    ("flowcache.drops_per_commit", "count", "lower"),
    ("flowcache.note_commit_ms", "ms", "lower"),
    ("fastpath.self_us_per_pkt", "us", "lower"),
    ("fastpath.header_hit_rate", "fraction", "higher"),
    ("fastpath.result_hit_rate", "fraction", "higher"),
    ("fastpath.combiner_hit_rate", "fraction", "higher"),
    ("fastpath.dep_registrations_per_kpkt", "1/kpkt", "lower"),
    ("fastpath.note_commit_ms", "ms", "lower"),
    ("fastpath.entries_dropped_per_commit", "count", "lower"),
    ("fastpath.epoch_flushes", "count", "lower"),
    ("fields.resolve_us_per_value", "us", "lower"),
    ("fields.values_per_kpkt", "1/kpkt", "lower"),
    ("fields.walker_rebuilds", "count", "lower"),
    ("fields.scalar_lookups_per_kpkt", "1/kpkt", "lower"),
    ("combiner.self_us_per_call", "us", "lower"),
    ("combiner.calls_per_kpkt", "1/kpkt", "lower"),
    ("combiner.probes_per_call", "count", "lower"),
    ("rule_filter.us_per_key", "us", "lower"),
    ("rule_filter.keys_per_kpkt", "1/kpkt", "lower"),
    ("control.commit_self_ms", "ms", "lower"),
    ("update_engine.ms_per_op", "ms", "lower"),
    ("depindex.ms_per_commit", "ms", "lower"),
    ("pcap.decode_us_per_pkt", "us", "lower"),
    ("transport.ring_write_us_per_pkt", "us", "lower"),
    ("parallel.wait_share", "fraction", "lower"),
    ("parallel.self_us_per_pkt", "us", "lower"),
    ("fabric.self_us_per_pkt", "us", "lower"),
    ("fabric.hops_per_pkt", "count", "lower"),
    ("fabric.switch_us_per_lookup", "us", "lower"),
    ("model.cycles_per_lookup", "cycles", "lower"),
    ("model.probes_per_lookup", "count", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead", "fraction", "higher"),
]

_US = 1e-3  # ns -> us
_MS = 1e-6  # ns -> ms


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Totals:
    """Per span name: calls, total duration, total self time, total work count."""

    def __init__(self, spans: Sequence[Span]) -> None:
        own = self_times(spans)
        self.calls: Dict[str, int] = {}
        self.duration: Dict[str, int] = {}
        self.self_time: Dict[str, int] = {}
        self.work: Dict[str, int] = {}
        for span in spans:
            name = span.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.duration[name] = self.duration.get(name, 0) + span.end - span.start
            self.self_time[name] = self.self_time.get(name, 0) + own[span.id]
            self.work[name] = self.work.get(name, 0) + (span.count or 0)
        self.roots = sum(span.end - span.start for span in spans if span.parent is None)


def layer_metrics(
    spans: Sequence[Span],
    before: Dict[str, Dict[str, float]],
    after: Dict[str, Dict[str, float]],
    packets: int,
    commits: int,
    wall_s: float,
    hops: int,
    records: Sequence,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead`` (needs two rounds)."""
    totals = _Totals([span for span in spans if span.batch is not None])
    calls, duration, self_time, work = (
        totals.calls, totals.duration, totals.self_time, totals.work,
    )
    kpkt = packets / 1000

    def delta(layer: str, key: str) -> float:
        return after.get(layer, {}).get(key, 0) - before.get(layer, {}).get(key, 0)

    def hit_rate(prefix: str) -> float:
        hits = delta("fast", f"{prefix}_hits")
        return _ratio(hits, hits + delta("fast", f"{prefix}_misses"))

    registrations_after = after.get("fast", {}).get("dependency_registrations", 0)
    registrations = delta("fast", "dependency_registrations")
    if registrations < 0:  # the counter restarts at every flush; count from there
        registrations = registrations_after
    modelled = [record for record in records if record is not None]
    return {
        "flowcache.self_us_per_pkt": _ratio(self_time.get("flowcache.classify_batch", 0) * _US, packets),
        "flowcache.hit_rate": _ratio(delta("flow", "hits"), delta("flow", "lookups")),
        "flowcache.drops_per_commit": _ratio(delta("flow", "surgical_drops"), commits),
        "flowcache.note_commit_ms": _ratio(duration.get("flowcache.note_commit", 0) * _MS, commits),
        "fastpath.self_us_per_pkt": _ratio(self_time.get("fastpath.classify_batch", 0) * _US, packets),
        "fastpath.header_hit_rate": hit_rate("header"),
        "fastpath.result_hit_rate": hit_rate("result"),
        "fastpath.combiner_hit_rate": hit_rate("combiner"),
        "fastpath.dep_registrations_per_kpkt": _ratio(registrations, kpkt),
        "fastpath.note_commit_ms": _ratio(duration.get("fastpath.note_commit", 0) * _MS, commits),
        "fastpath.entries_dropped_per_commit": _ratio(delta("fast", "scoped_entries_dropped"), commits),
        "fastpath.epoch_flushes": delta("fast", "epoch_flushes"),
        "fields.resolve_us_per_value": _ratio(duration.get("fields.resolve", 0) * _US, work.get("fields.resolve", 0)),
        "fields.values_per_kpkt": _ratio(work.get("fields.resolve", 0), kpkt),
        "fields.walker_rebuilds": delta("fast", "walker_rebuilds"),
        "fields.scalar_lookups_per_kpkt": _ratio(calls.get("fields.lookup", 0), kpkt),
        "combiner.self_us_per_call": _ratio(self_time.get("combiner.combine", 0) * _US, calls.get("combiner.combine", 0)),
        "combiner.calls_per_kpkt": _ratio(calls.get("combiner.combine", 0), kpkt),
        "combiner.probes_per_call": _ratio(work.get("combiner.combine", 0), calls.get("combiner.combine", 0)),
        "rule_filter.us_per_key": _ratio(duration.get("rule_filter.lookup", 0) * _US, work.get("rule_filter.lookup", 0)),
        "rule_filter.keys_per_kpkt": _ratio(work.get("rule_filter.lookup", 0), kpkt),
        "control.commit_self_ms": _ratio(self_time.get("control.commit", 0) * _MS, commits),
        "update_engine.ms_per_op": _ratio(duration.get("update_engine.op", 0) * _MS, calls.get("update_engine.op", 0)),
        "depindex.ms_per_commit": _ratio(duration.get("depindex.op", 0) * _MS, commits),
        "pcap.decode_us_per_pkt": _ratio(duration.get("pcap.decode", 0) * _US, packets),
        "transport.ring_write_us_per_pkt": _ratio(duration.get("transport.ring_write", 0) * _US, work.get("transport.ring_write", 0)),
        "parallel.wait_share": _ratio(duration.get("parallel.wait", 0), duration.get("parallel.feed", 0)),
        "parallel.self_us_per_pkt": _ratio(self_time.get("parallel.feed", 0) * _US, packets),
        "fabric.self_us_per_pkt": _ratio(self_time.get("fabric.serve", 0) * _US, packets),
        "fabric.hops_per_pkt": _ratio(hops, packets),
        "fabric.switch_us_per_lookup": _ratio(duration.get("fabric.switch_lookup", 0) * _US, work.get("fabric.switch_lookup", 0)),
        "model.cycles_per_lookup": _ratio(sum(r.latency_cycles or 0 for r in modelled), len(modelled)),
        "model.probes_per_lookup": _ratio(sum(r.combiner_probes or 0 for r in modelled), len(modelled)),
        "trace.coverage": _ratio(totals.roots * 1e-9, wall_s),
    }
