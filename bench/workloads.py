"""The five benchmark workloads: inputs, engine build functions and the measured loop.

Every workload runs on ClassBench acl1 at nominal size 1K (916 rules) and is
driven in a closed loop by one client: the next serving call is issued when
the previous one returns.  The seed is the only input; it fixes the timed
trace (``seed``), the warm-up trace (``seed + 1``) and the churn victims.

Engines are built only by :func:`build_classifier`, :func:`build_pool` and
:func:`build_fabric`, in the deployment configuration: the factory defaults
plus the vectorized fast path and the flow cache.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.analysis.depindex import DependencyIndex
from repro.api import create_classifier
from repro.api.control import Txn
from repro.controller.fabric import FabricController, Topology
from repro.core.classifier import ConfigurableClassifier
from repro.core.label_combiner import LabelCombiner
from repro.core.update_engine import UpdateEngine
from repro.exceptions import ReproError
from repro.experiments.common import workload_ruleset
from repro.fields.base import SingleFieldEngine
from repro.fields.vectorized import BatchWalker
from repro.hardware.rule_filter import RuleFilterMemory
from repro.io.pcap import read_pcap_packed, write_pcap
from repro.perf.fastpath import FastPathAccelerator
from repro.perf.flowcache import FlowCache
from repro.perf.parallel import ParallelSession, ReplicaSpec
from repro.perf.transport import PackedChunk, SharedChunkRing
from repro.rules.classbench import FilterFlavor
from repro.rules.ruleset import RuleSet
from repro.rules.trace import generate_fabric_trace, generate_flow_churn_trace, generate_trace

from bench.host import HostProbe
from bench.oracle import Oracle
from bench.tracer import SpanGroup, Target, Tracer

#: Factory keywords of every classifier the benchmark builds.
DEPLOYMENT = {"vectorized": True, "flow_cache": True}
#: Flow population of the zipf workloads.
ZIPF = {"flows": 4096, "popularity": "zipf", "churn": 0.02}
#: Engine builds per round; ``setup_s`` is the median of every build of a run.
BUILDS_PER_ROUND = 5
POOL_WORKERS = 2
#: Packets per PackedChunk the capture reader yields.
CAPTURE_CHUNK = 512
FABRIC_SWITCHES = 4


def load_ruleset() -> RuleSet:
    """ClassBench acl1 at nominal size 1K: the ruleset of every workload."""
    return workload_ruleset(FilterFlavor.ACL, 1000)


def build_classifier(ruleset: RuleSet) -> ConfigurableClassifier:
    return create_classifier("configurable", ruleset, **DEPLOYMENT)


def build_pool(ruleset: RuleSet) -> ParallelSession:
    spec = ReplicaSpec("configurable", ruleset, dict(DEPLOYMENT))
    return ParallelSession.from_factory(spec, workers=POOL_WORKERS, backend="process")


def build_fabric(ruleset: RuleSet) -> FabricController:
    fabric = FabricController(Topology.line(FABRIC_SWITCHES), vectorized=True)
    fabric.install(ruleset)
    return fabric


# ---------------------------------------------------------------------------
# Round data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Per-round packet counts; counts are whole multiples of ``unit``."""

    warmup: int
    timed: int
    batch: int
    unit: int

    def scaled(self, scale: float) -> "Sizes":
        if scale == 1:
            return self

        def shrink(count: int, floor: int) -> int:
            return max(floor, round(count * scale / self.unit)) * self.unit

        return replace(self, warmup=shrink(self.warmup, 1), timed=shrink(self.timed, 3))


@dataclass
class Inputs:
    """One seed's inputs, generated before anything is timed."""

    warmup: object  # what Workload.calls() consumes: a header list or a capture path
    timed: object
    headers: List  # the timed packets, as the oracle sees them
    expected: List[Optional[int]]  # oracle rule id per timed packet
    probe: List  # the one-packet readiness call of setup
    victims: List = field(default_factory=list)


@dataclass
class Measurement:
    """Raw outcome of one measured phase."""

    wall_s: float = 0.0
    packets: int = 0
    batch_s: List[float] = field(default_factory=list)
    commit_s: List[float] = field(default_factory=list)
    records: List = field(default_factory=list)
    failed_packets: int = 0
    commits: int = 0
    failed_commits: int = 0
    hops: int = 0


# ---------------------------------------------------------------------------
# Span groups of the traced run
# ---------------------------------------------------------------------------


def _length(index: int):
    return lambda args, result: len(args[index])


def _chunk_packets(args, result) -> int:
    chunk = args[2]
    return chunk.count if isinstance(chunk, PackedChunk) else len(chunk)


def _engine_classes() -> List[type]:
    found, pending = [], [SingleFieldEngine]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "lookup" in cls.__dict__ and not getattr(cls.lookup, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def _probes(args, result) -> int:
    return result.probes


#: The fast path and everything below it.
LOOKUP_GROUPS = [
    SpanGroup(
        "fastpath", [Target(FastPathAccelerator, "classify_batch", "fastpath.classify_batch")]
    ),
    SpanGroup("fields.resolve", [Target(BatchWalker, "resolve", "fields.resolve", _length(1))]),
    SpanGroup(
        "fields.lookup", [Target(cls, "lookup", "fields.lookup") for cls in _engine_classes()]
    ),
    SpanGroup(
        "combiner",
        [
            Target(LabelCombiner, "combine_with_cache", "combiner.combine", _probes),
            Target(LabelCombiner, "combine", "combiner.combine", _probes),
        ],
    ),
    SpanGroup(
        "rule_filter",
        [
            Target(RuleFilterMemory, "lookup_batch", "rule_filter.lookup", _length(1)),
            Target(RuleFilterMemory, "lookup", "rule_filter.lookup", lambda args, result: 1),
        ],
    ),
]


FLOWCACHE_GROUP = SpanGroup(
    "flowcache", [Target(FlowCache, "classify_batch", "flowcache.classify_batch")]
)

CONTROL_GROUPS = [
    SpanGroup("control.commit", [Target(Txn, "commit", "control.commit")]),
    SpanGroup("flowcache.note_commit", [Target(FlowCache, "note_commit", "flowcache.note_commit")]),
    SpanGroup(
        "fastpath.note_commit",
        [Target(FastPathAccelerator, "note_commit", "fastpath.note_commit")],
    ),
    SpanGroup(
        "update_engine",
        [
            Target(UpdateEngine, "insert_rule", "update_engine.op"),
            Target(UpdateEngine, "delete_rule", "update_engine.op"),
        ],
    ),
    # Optional: ClassifierControl consults a DependencyIndex only after a
    # caller has read ``control.dependency_index``, and the factory-built
    # classifier never does, so commits skip the index today.
    SpanGroup(
        "depindex",
        [
            Target(DependencyIndex, "overlapping", "depindex.op"),
            Target(DependencyIndex, "add_rule", "depindex.op"),
            Target(DependencyIndex, "remove_rule", "depindex.op"),
        ],
        required=False,
    ),
]

POOL_GROUPS = [
    SpanGroup("parallel.feed", [Target(ParallelSession, "feed", "parallel.feed")]),
    SpanGroup("parallel.wait", [Target(Future, "result", "parallel.wait")]),
    SpanGroup(
        "transport.ring_write",
        [Target(SharedChunkRing, "write", "transport.ring_write", _chunk_packets)],
    ),
]

FABRIC_GROUPS = [
    SpanGroup("fabric.serve", [Target(FabricController, "serve", "fabric.serve")]),
    SpanGroup(
        "fabric.switch_lookup",
        [Target(ConfigurableClassifier, "classify_batch", "fabric.switch_lookup", _length(1))],
    ),
]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One traffic shape: how to make its inputs, build, warm and serve it."""

    name = ""
    why = ""
    sizes: Sizes

    def traffic(self, ruleset: RuleSet, count: int, seed: int) -> List:
        raise NotImplementedError

    def build(self, ruleset: RuleSet, inputs: Inputs):
        """Construct the engine and make it ready to serve (timed as set-up)."""
        raise NotImplementedError

    def serve(self, engine, call) -> tuple:
        """One serving call: returns (records, per-switch lookups)."""
        raise NotImplementedError

    def packets(self, call) -> int:
        return len(call)

    def close(self, engine) -> None:
        pass

    def counters(self, engine) -> Dict[str, Dict[str, float]]:
        """Layer counter snapshot, read before and after the measured phase."""
        return {}

    def span_groups(self) -> List[SpanGroup]:
        raise NotImplementedError

    def oracle_headers(self, packets: Sequence) -> List:
        return list(packets)

    # -- inputs ---------------------------------------------------------------
    def make_inputs(self, ruleset: RuleSet, oracle: Oracle, seed: int, scale: float = 1.0,
                    workdir: Optional[Path] = None) -> Inputs:
        sizes = self.sizes.scaled(scale)
        warmup = self.traffic(ruleset, sizes.warmup, seed + 1)
        timed = self.traffic(ruleset, sizes.timed, seed)
        headers = self.oracle_headers(timed)
        return Inputs(
            warmup=warmup,
            timed=timed,
            headers=headers,
            expected=oracle.classify(headers),
            probe=warmup[:1],
        )

    # -- the closed loop ---------------------------------------------------------
    def calls(self, source, tracer: Optional[Tracer]) -> Iterator:
        batch = self.sizes.batch
        for offset in range(0, len(source), batch):
            yield source[offset:offset + batch]

    def warm(self, engine, inputs: Inputs) -> None:
        for call in self.calls(inputs.warmup, None):
            self.serve(engine, call)

    def after_call(self, engine, index: int, inputs: Inputs, measurement: Measurement) -> None:
        """Hook between serving calls (the churn workload commits here)."""

    def measure(self, engine, inputs: Inputs, probe: HostProbe,
                tracer: Optional[Tracer] = None) -> Measurement:
        """The measured phase; ``probe`` samples between calls, off the clock."""
        measurement = Measurement()
        records = measurement.records
        latencies = measurement.batch_s
        clock = time.perf_counter
        probed = probe.spent
        start = clock()
        for index, call in enumerate(self.calls(inputs.timed, tracer)):
            if tracer is not None:
                tracer.batch = index
            began = clock()
            try:
                results, hops = self.serve(engine, call)
            except ReproError:
                traceback.print_exc(file=sys.stderr)
                results, hops = (None,) * self.packets(call), 0
                measurement.failed_packets += len(results)
            latencies.append(clock() - began)
            records.extend(results)
            measurement.hops += hops
            self.after_call(engine, index, inputs, measurement)
            probe.sample_if_due()
        measurement.wall_s = clock() - start - (probe.spent - probed)
        measurement.packets = len(records)
        if tracer is not None:
            tracer.batch = None
        return measurement


class ClassifierWorkload(Workload):
    """One deployment classifier fed ``classify_batch`` calls."""

    def __init__(self, name: str, why: str, sizes: Sizes, traffic: Callable) -> None:
        self.name = name
        self.why = why
        self.sizes = sizes
        self._traffic = traffic

    def traffic(self, ruleset, count, seed):
        return self._traffic(ruleset, count, seed)

    def build(self, ruleset, inputs):
        classifier = build_classifier(ruleset)
        classifier.classify_batch(inputs.probe)
        return classifier

    def serve(self, engine, call):
        return engine.classify_batch(call).results, 0

    def counters(self, engine):
        fast = engine.enable_fast_path(vectorized=True)
        return {"flow": dict(engine.flow_cache.stats()), "fast": dict(fast.cache_stats())}

    def span_groups(self):
        return [FLOWCACHE_GROUP] + LOOKUP_GROUPS


class ChurnWorkload(ClassifierWorkload):
    """Zipf traffic with a rule removed or re-inserted every ``commit_every`` packets."""

    commit_every = 1024

    def make_inputs(self, ruleset, oracle, seed, scale=1.0, workdir=None):
        inputs = super().make_inputs(ruleset, oracle, seed, scale, workdir)
        matched = sorted({rid for rid in oracle.classify(inputs.warmup) if rid is not None})
        segments = len(inputs.timed) // self.commit_every
        pairs = segments // 2
        if len(matched) < pairs:
            raise RuntimeError(f"warm-up matched {len(matched)} rules; {pairs} victims needed")
        inputs.victims = [ruleset.get(rid) for rid in random.Random(seed).sample(matched, pairs)]
        # Commit k removes victim k // 2 (k even) or re-inserts it (k odd), so
        # segment s runs with victim (s - 1) // 2 removed exactly when s is odd.
        expected: List[Optional[int]] = []
        for segment in range(segments):
            start = segment * self.commit_every
            part = inputs.headers[start:start + self.commit_every]
            removed = [inputs.victims[(segment - 1) // 2].rule_id] if segment % 2 else []
            expected.extend(oracle.classify(part, oracle.mask(removed)) if removed else
                            inputs.expected[start:start + self.commit_every])
        inputs.expected = expected
        return inputs

    def build(self, ruleset, inputs):
        classifier = super().build(ruleset, inputs)
        victim = inputs.victims[0]
        classifier.control.begin().remove(victim.rule_id).commit()
        classifier.control.begin().insert(victim).commit()
        return classifier

    def after_call(self, engine, index, inputs, measurement):
        calls_per_segment = self.commit_every // self.sizes.batch
        commit = measurement.commits
        if (index + 1) % calls_per_segment or commit >= 2 * len(inputs.victims):
            return
        victim = inputs.victims[commit // 2]
        txn = engine.control.begin()
        if commit % 2:
            txn.insert(victim)
        else:
            txn.remove(victim.rule_id)
        began = time.perf_counter()
        try:
            txn.commit()
        except ReproError:
            traceback.print_exc(file=sys.stderr)
            measurement.failed_commits += 1
        measurement.commit_s.append(time.perf_counter() - began)
        measurement.commits += 1

    def span_groups(self):
        return super().span_groups() + CONTROL_GROUPS


class PoolWorkload(Workload):
    """acl_unique traffic replayed from a capture into a 2-process pool."""

    name = "pcap_pool"
    why = (
        "capture decode, chunk transport and 2-process dispatch on acl_unique-like "
        "traffic: shows whether the pool beats one classifier"
    )
    sizes = Sizes(warmup=5 * 1024, timed=64 * 1024, batch=1024, unit=1024)

    def traffic(self, ruleset, count, seed):
        return generate_trace(ruleset, count, seed=seed)

    def make_inputs(self, ruleset, oracle, seed, scale=1.0, workdir=None):
        inputs = super().make_inputs(ruleset, oracle, seed, scale, workdir)
        if workdir is None:
            raise ValueError("the pool workload replays a capture; pass a working directory")
        for attr in ("warmup", "timed"):
            path = workdir / f"{self.name}-{seed}-{attr}.pcap"
            write_pcap(str(path), getattr(inputs, attr), seed=seed)
            setattr(inputs, attr, path)
        return inputs

    def calls(self, source, tracer):
        reader = read_pcap_packed(str(source), chunk_size=CAPTURE_CHUNK, ports="word")
        if tracer is not None:
            reader = tracer.iterate("pcap.decode", reader, lambda args, chunk: chunk.count)
        per_call = self.sizes.batch // CAPTURE_CHUNK
        while True:
            call = list(itertools.islice(reader, per_call))
            if not call:
                return
            yield call

    def packets(self, call):
        return sum(chunk.count for chunk in call)

    def build(self, ruleset, inputs):
        session = build_pool(ruleset)
        session.stats()  # spawns every worker and builds its replica
        session.feed(inputs.probe)
        return session

    def serve(self, engine, call):
        return engine.feed(call).results, 0

    def close(self, engine):
        engine.close()

    def counters(self, engine):
        return {"flow": dict(engine.flow_cache_stats() or {})}

    def span_groups(self):
        return POOL_GROUPS


class FabricWorkload(Workload):
    """Zipf flows served through a partitioned line of four switches."""

    name = "fabric_line4"
    why = (
        "partitioned 4-switch serving without a flow cache: per-switch sessions "
        "and the fast-path header cache"
    )
    sizes = Sizes(warmup=12 * 512, timed=64 * 512, batch=512, unit=512)

    def traffic(self, ruleset, count, seed):
        ingresses = Topology.line(FABRIC_SWITCHES).ingresses()
        return generate_fabric_trace(ruleset, ingresses, count, seed=seed, **ZIPF)

    def oracle_headers(self, packets):
        return [packet.header for packet in packets]

    def build(self, ruleset, inputs):
        fabric = build_fabric(ruleset)
        fabric.serve(inputs.probe)
        return fabric

    def serve(self, engine, call):
        result = engine.serve(call)
        return result.results, result.hop_lookups

    def counters(self, engine):
        total: Dict[str, float] = {}
        for switch in engine.switches():
            stats = switch.classifier.enable_fast_path(vectorized=True).cache_stats()
            for key, value in stats.items():
                total[key] = total.get(key, 0) + value
        return {"fast": total}

    def span_groups(self):
        return FABRIC_GROUPS + LOOKUP_GROUPS


def _unique(ruleset, count, seed):
    return generate_trace(ruleset, count, seed=seed)


def _zipf(ruleset, count, seed):
    return generate_flow_churn_trace(ruleset, count, seed=seed, **ZIPF)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        ClassifierWorkload(
            "acl_unique",
            "every header distinct: the miss path through field walkers, label "
            "combiner and rule filter; the flow cache only passes traffic through",
            Sizes(warmup=40 * 128, timed=250 * 128, batch=128, unit=128),
            _unique,
        ),
        ClassifierWorkload(
            "zipf_flows",
            "4096 zipf flows with 2% churn: the flow cache answers most packets and "
            "the layers below it idle",
            Sizes(warmup=160 * 128, timed=2344 * 128, batch=128, unit=128),
            _zipf,
        ),
        ChurnWorkload(
            "zipf_churn",
            "zipf_flows traffic plus a rule removed or re-inserted every 1024 packets: "
            "commits and the post-commit miss storm",
            Sizes(warmup=160 * 128, timed=41 * 1024, batch=128, unit=1024),
            _zipf,
        ),
        PoolWorkload(),
        FabricWorkload(),
    )
}

#: The workloads BENCHMARK.json gates.  ``pcap_pool`` runs three processes
#: and ``fabric_line4`` starts a thread per switch and serve call; on a
#: 2-vCPU host both measure the scheduler as much as the library, so only
#: the ``run`` and ``trace`` sets report them.
GATED = ("acl_unique", "zipf_flows", "zipf_churn")
