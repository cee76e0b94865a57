"""Differential scenario battery: every lookup path against every other.

The repo ships five ways to classify the same trace — per-packet, fast
path, vectorized fast path, and the process pool over the pickle and packed
transports — each claiming bit-exactness.
Instead of per-PR spot checks, this battery sweeps seeded-random scenarios
(ClassBench flavor x combiner mode x trace shape, including the adversarial
all-unique-flows and heavy-duplicate shapes) and asserts that **all** paths
return identical classifications, with the linear-search scan as ground
truth wherever the combiner is exact (cross-product mode).

Scenario workloads come from the shared generator in ``tests/conftest.py``
(:func:`build_scenario_trace` / the ``differential_scenario`` fixture),
seeded by ``REPRO_DIFF_SEED`` (default 20140730) so any CI failure is
reproducible by exporting the seed echoed in the job log.

Everything here is marked ``differential`` so CI can run the battery as its
own job; it is also part of the default (tier-1) suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import pytest

from repro.api import create_classifier
from repro.api.control import Txn
from repro.core.config import CombinerMode
from repro.perf import ParallelSession, ReplicaSpec, shared_memory_available
from repro.rules.ruleset import RuleSet

from diff_scenarios import (
    DIFFERENTIAL_SEED,
    TRACE_SHAPES,
    build_fabric_topology,
    build_fabric_trace,
    build_mutation_schedule,
)

pytestmark = pytest.mark.differential

FLAVORS = ("acl", "fw", "ipc")
COMBINERS = tuple(mode.value for mode in CombinerMode)

#: The full in-process battery: 3 flavors x 2 combiners x 3 shapes.
SCENARIOS = [
    (flavor, combiner, shape)
    for flavor in FLAVORS
    for combiner in COMBINERS
    for shape in TRACE_SHAPES
]

#: Process pools fork a worker pair per session, so the cross-process paths
#: sweep a representative diagonal instead of the full cube: every flavor,
#: both combiners and every trace shape appear at least once.
PROCESS_SCENARIOS = [
    ("acl", "cross_product", "mixed"),
    ("fw", "cross_product", "all_unique"),
    ("ipc", "cross_product", "heavy_duplicate"),
    ("acl", "first_label", "all_unique"),
]

@dataclass
class ScenarioReference:
    """Everything one scenario's comparisons need, built once and cached."""

    ruleset: RuleSet
    trace: list
    #: Ground truth rule ids from the linear scan (exact resolution).
    truth: List[Optional[int]]
    #: Per-packet path classifications (the behavioural model's reference).
    per_packet: list
    #: Fast-path batch classifications (what every other path must equal).
    fast: list
    options: dict = field(default_factory=dict)


@pytest.fixture(scope="module")
def scenario_reference(differential_scenario):
    """Cached per-scenario reference results shared across the battery."""
    cache = {}

    def build(flavor: str, combiner: str, shape: str) -> ScenarioReference:
        key = (flavor, combiner, shape)
        if key not in cache:
            ruleset, trace = differential_scenario(flavor, shape)
            options = {"combiner": combiner}
            base = create_classifier("configurable", ruleset, **options)
            per_packet = [base.classify(packet) for packet in trace]
            fast = create_classifier("configurable", ruleset, fast=True, **options)
            fast_results = list(fast.classify_batch(trace).results)
            truth = [
                match.rule_id if (match := ruleset.highest_priority_match(p)) else None
                for p in trace
            ]
            cache[key] = ScenarioReference(
                ruleset=ruleset,
                trace=trace,
                truth=truth,
                per_packet=per_packet,
                fast=fast_results,
                options=options,
            )
        return cache[key]

    return build


def _scenario_id(scenario) -> str:
    return "-".join(scenario)


@pytest.fixture(scope="session", autouse=True)
def echo_differential_seed():
    """Echo the battery seed so any failure is reproducible from the log."""
    print(f"\n[differential battery] REPRO_DIFF_SEED={DIFFERENTIAL_SEED}")


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_inprocess_paths_agree(scenario, scenario_reference):
    """per-packet == fast == vectorized (== linear truth)."""
    flavor, combiner, shape = scenario
    ref = scenario_reference(flavor, combiner, shape)

    # Fast path against the per-packet behavioural model: bit-exact.
    assert ref.fast == ref.per_packet

    # Vectorized cold path: a separate classifier so its caches start cold.
    vectorized = create_classifier(
        "configurable", ref.ruleset, vectorized=True, **ref.options
    )
    assert list(vectorized.classify_batch(ref.trace).results) == ref.per_packet

    if combiner == CombinerMode.CROSS_PRODUCT.value:
        # Cross-product resolution is exact, so the linear scan agrees
        # (first-label is the paper's approximate hardware fast path).
        assert [result.rule_id for result in ref.per_packet] == ref.truth
        assert not any(result.truncated for result in ref.per_packet)


@pytest.mark.parametrize("transport", ["pickle", "packed"])
@pytest.mark.parametrize("scenario", PROCESS_SCENARIOS, ids=_scenario_id)
def test_process_pool_transports_agree(scenario, transport, scenario_reference):
    """Process-pool results are bit-exact over both chunk transports."""
    if transport == "packed" and not shared_memory_available():
        pytest.skip("platform grants no shared memory segments")
    flavor, combiner, shape = scenario
    ref = scenario_reference(flavor, combiner, shape)
    spec = ReplicaSpec(
        "configurable", ref.ruleset, {"fast": True, **ref.options}
    )
    with ParallelSession.from_factory(
        spec, workers=2, chunk_size=32, backend="process", transport=transport
    ) as pool:
        assert pool.transport == transport
        fed = pool.feed(ref.trace)
        stats = pool.stats()
    assert list(fed.results) == ref.fast
    assert stats.packets == len(ref.trace)
    assert stats.matched == sum(1 for r in ref.fast if r.matched)


# ---------------------------------------------------------------------------
# Mutation-interleaved battery: update-under-load on every execution path.
# ---------------------------------------------------------------------------

#: Chunk size of the mutation replay (transactions commit between chunks).
MUTATION_CHUNK = 32

#: Every execution path the schedule replays against.  The process paths fork
#: a two-worker pool per run, so they sweep the same single scenario as the
#: in-process paths rather than a larger grid.
MUTATION_PATHS = [
    "per_packet",
    "fast",
    "vectorized",
    "process-pickle",
    "process-packed",
]


def _schedule_delta(ops) -> "Txn":
    """Stage one boundary's schedule ops as a control-plane delta."""
    txn = Txn()
    for kind, payload in ops:
        if kind == "insert":
            txn.insert(payload)
        elif kind == "remove":
            txn.remove(payload)
        else:
            txn.reconfigure(ip_algorithm=payload)
    return txn.delta()


def _build_mutation_workload(differential_scenario, shape: str, seed: int):
    """One mutation workload: chunks, schedule, oracle and reference.

    The linear-search oracle replays the identical schedule over a plain
    rule dict; the per-packet reference replays it through the control plane
    of a cache-free classifier.  Both are computed once and every execution
    path is asserted against them.
    """
    ruleset, trace = differential_scenario("acl", shape)
    chunks = [trace[i : i + MUTATION_CHUNK] for i in range(0, len(trace), MUTATION_CHUNK)]
    initial, schedule = build_mutation_schedule(
        ruleset, boundaries=len(chunks) - 1, seed=seed
    )
    initial_set = RuleSet(initial, name="mutation-initial")

    # Linear-search oracle, replayed with the same schedule.
    current = {rule.rule_id: rule for rule in initial}
    oracle: List[Optional[int]] = []
    for index, chunk in enumerate(chunks):
        ordered = sorted(current.values(), key=lambda rule: rule.priority)
        for packet in chunk:
            hit = next((rule for rule in ordered if rule.matches(packet)), None)
            oracle.append(hit.rule_id if hit else None)
        if index < len(schedule):
            for kind, payload in schedule[index]:
                if kind == "insert":
                    current[payload.rule_id] = payload
                elif kind == "remove":
                    del current[payload]

    # Per-packet behavioural reference (full Classification records).
    classifier = create_classifier("configurable", initial_set)
    reference = []
    for index, chunk in enumerate(chunks):
        reference.extend(classifier.classify(packet) for packet in chunk)
        if index < len(schedule):
            classifier.control.begin().extend(_schedule_delta(schedule[index])).commit()
    assert [record.rule_id for record in reference] == oracle

    return initial_set, chunks, schedule, oracle, reference


@pytest.fixture(scope="module")
def mutation_scenario(differential_scenario):
    """The shared mutation workload over the biased ClassBench mix."""
    return _build_mutation_workload(
        differential_scenario, "mixed", DIFFERENTIAL_SEED + 9
    )


@pytest.fixture(scope="module")
def flowcache_mutation_scenario(differential_scenario):
    """Mutation workload over a zipf-churn trace, so the flow cache is hot
    (repeated flows) when each commit lands."""
    return _build_mutation_workload(
        differential_scenario, "zipf_churn", DIFFERENTIAL_SEED + 13
    )


def _replay_schedule(path: str, mutation_workload):
    """Replay the mutation schedule over one execution path, scoped as shipped.

    Returns ``(observed, accelerators)`` where ``accelerators`` holds every
    in-process fast-path accelerator the replay used, whose counters can be
    inspected afterwards (a reconfigure replaces the accelerator; empty for
    the per-packet path and for process pools, whose replicas live in forked
    workers).
    """
    initial_set, chunks, schedule, _, _ = mutation_workload
    observed = []
    accelerators = []
    if path in ("per_packet", "fast", "vectorized"):
        options = {"fast": path == "fast", "vectorized": path == "vectorized"}
        classifier = create_classifier("configurable", initial_set, **options)
        for index, chunk in enumerate(chunks):
            observed.extend(classifier.classify_batch(chunk).results)
            if classifier._fast_path is not None and not any(
                used is classifier._fast_path for used in accelerators
            ):
                accelerators.append(classifier._fast_path)
            if index < len(schedule):
                classifier.control.begin().extend(
                    _schedule_delta(schedule[index])
                ).commit()
    else:
        transport = path.split("-", 1)[1]
        spec = ReplicaSpec("configurable", initial_set, {"fast": True})
        session = ParallelSession.from_factory(
            spec, workers=2, chunk_size=8, transport=transport
        )
        with session:
            for index, chunk in enumerate(chunks):
                observed.extend(session.feed(chunk).results)
                if index < len(schedule):
                    session.apply(_schedule_delta(schedule[index]))
    return observed, accelerators


@pytest.fixture(scope="module")
def scoped_replays(mutation_scenario):
    """Each execution path replayed once, shared by the mutation tests."""
    cache = {}

    def run(path: str):
        if path not in cache:
            cache[path] = _replay_schedule(path, mutation_scenario)
        return cache[path]

    return run


@pytest.fixture(scope="module")
def wholesale_mutation_reference(mutation_scenario):
    """Fast-path replay with every commit escalated to a full cache flush.

    This is the pre-scoped-invalidation behaviour: after each committed
    delta, drop *all* memoized fast-path state instead of only the entries
    inside the delta's blast radius.  Scoped invalidation must be
    behaviourally invisible, so this replay is the second oracle the scoped
    replays are diffed against.
    """
    initial_set, chunks, schedule, oracle, reference = mutation_scenario
    classifier = create_classifier("configurable", initial_set, fast=True)
    fast_path = classifier._fast_path
    observed = []
    for index, chunk in enumerate(chunks):
        observed.extend(classifier.classify_batch(chunk).results)
        if index < len(schedule):
            classifier.control.begin().extend(
                _schedule_delta(schedule[index])
            ).commit()
            fast_path.invalidate()  # force the wholesale epoch flush
    assert [record.rule_id for record in observed] == oracle
    assert list(observed) == list(reference)
    return observed


@pytest.mark.mutation
@pytest.mark.parametrize("path", MUTATION_PATHS)
def test_mutation_interleaved_paths_agree(path, mutation_scenario, scoped_replays):
    """Every path under the same update schedule matches the linear oracle."""
    initial_set, chunks, schedule, oracle, reference = mutation_scenario
    if path == "process-packed" and not shared_memory_available():
        pytest.skip("platform grants no shared memory segments")

    observed, _ = scoped_replays(path)
    assert [record.rule_id for record in observed] == oracle
    # Full-record equivalence with the per-packet reference (equality spans
    # accesses, latency, probes and truncation; `detail` is excluded, which
    # is exactly what the compact process-backend wire form strips).
    assert list(observed) == list(reference)


@pytest.mark.mutation
@pytest.mark.parametrize("path", MUTATION_PATHS)
def test_mutation_scoped_invalidation_matches_wholesale_flush(
    path, scoped_replays, wholesale_mutation_reference
):
    """Dependency-scoped invalidation is bit-exact against forced full flushes.

    The same schedule replayed with partial (blast-radius) invalidation and
    with every commit escalated to a wholesale flush must produce identical
    full records — and the scoped replay must have actually exercised the
    scoped drop path rather than silently falling back to flushing.  A
    reconfigure replaces the accelerator, so the scoped commits are summed
    over every accelerator the replay used.
    """
    if path == "process-packed" and not shared_memory_available():
        pytest.skip("platform grants no shared memory segments")
    observed, accelerators = scoped_replays(path)
    assert list(observed) == list(wholesale_mutation_reference)
    if accelerators:
        assert sum(fast_path.cache_stats()["scoped_commits"] for fast_path in accelerators) > 0


@pytest.mark.mutation
def test_mutation_failed_delta_rolls_back_session_wide(mutation_scenario):
    """A replica rejecting a delta leaves the whole pool uncommitted."""
    from repro.exceptions import UpdateError

    initial_set, chunks, schedule, oracle, reference = mutation_scenario
    spec = ReplicaSpec("configurable", initial_set, {"fast": True})
    victim = initial_set.rules()[0]
    with ParallelSession.from_factory(spec, workers=2, chunk_size=8) as session:
        before = session.feed(chunks[0]).results
        workers = session._workers
        # Make worker 1 divergent behind the session's back (through its own
        # lane), then broadcast a delta only worker 0 can apply.
        workers[1].submit_delta(Txn().remove(victim.rule_id).delta()).result()
        with pytest.raises(UpdateError, match="rolled back"):
            session.apply(Txn().remove(victim.rule_id))
        assert session.control.version == 0
        # Worker 0 rolled its copy back: the rule is still installed there.
        assert victim.rule_id in {rule.rule_id for rule in workers[0].program().rules}
        # Restore worker 1 and verify the pool still serves identically.
        workers[1].submit_delta(Txn().insert(victim).delta()).result()
        assert session.feed(chunks[0]).results == before


# ---------------------------------------------------------------------------
# Flow-cache column: every execution path again, with the exact-match flow
# cache fronting the classifier.  Tight capacities and timeouts force hits,
# idle/hard/hybrid expirations and capacity evictions mid-trace, and the
# chunked replay makes the virtual clock advance across batch boundaries.
# ---------------------------------------------------------------------------

#: Cache geometry chosen to guarantee eviction pressure on battery traces:
#: the churn shapes carry well over 8 distinct flows for any seed.
FLOWCACHE_OPTIONS = {"flow_capacity": 8, "flow_idle_timeout": 48, "flow_hard_timeout": 96}

FLOWCACHE_POLICIES = ("idle", "hard", "hybrid")

FLOWCACHE_SCENARIOS = [
    ("acl", "cross_product", "zipf_churn"),
    ("fw", "cross_product", "heavy_duplicate"),
    ("ipc", "cross_product", "zipf_churn"),
    ("acl", "first_label", "zipf_churn"),
    ("fw", "first_label", "heavy_duplicate"),
]

FLOWCACHE_CHUNK = 40


def _flow_options(policy: str) -> dict:
    return {"flow_cache": True, "flow_policy": policy, **FLOWCACHE_OPTIONS}


@pytest.mark.flowcache
@pytest.mark.parametrize("policy", FLOWCACHE_POLICIES)
@pytest.mark.parametrize("scenario", FLOWCACHE_SCENARIOS, ids=_scenario_id)
def test_flowcache_inprocess_paths_agree(scenario, policy, scenario_reference):
    """Flow-cached fast/vectorized/per-packet paths replay bit-exact records."""
    flavor, combiner, shape = scenario
    ref = scenario_reference(flavor, combiner, shape)
    chunks = [
        ref.trace[i : i + FLOWCACHE_CHUNK]
        for i in range(0, len(ref.trace), FLOWCACHE_CHUNK)
    ]
    for path_options in ({}, {"fast": True}, {"vectorized": True}):
        classifier = create_classifier(
            "configurable", ref.ruleset,
            **path_options, **_flow_options(policy), **ref.options,
        )
        observed = []
        for chunk in chunks:
            observed.extend(classifier.classify_batch(chunk).results)
        assert list(observed) == ref.per_packet
        cache = classifier.flow_cache
        assert cache.hits > 0  # the cache actually served traffic
        if shape == "zipf_churn":
            # More distinct flows than capacity: real eviction pressure.
            assert cache.timeout_evictions + cache.capacity_evictions > 0
        if combiner == CombinerMode.CROSS_PRODUCT.value:
            assert [record.rule_id for record in observed] == ref.truth


@pytest.mark.flowcache
@pytest.mark.parametrize("transport", ["pickle", "packed"])
def test_flowcache_process_pool_agrees(transport, scenario_reference):
    """Flow caches inside forked workers stay bit-exact over both transports."""
    if transport == "packed" and not shared_memory_available():
        pytest.skip("platform grants no shared memory segments")
    ref = scenario_reference("acl", "cross_product", "zipf_churn")
    spec = ReplicaSpec(
        "configurable", ref.ruleset, {"fast": True, **_flow_options("idle"), **ref.options}
    )
    with ParallelSession.from_factory(
        spec, workers=2, chunk_size=32, backend="process", transport=transport
    ) as pool:
        fed = pool.feed(ref.trace)
        merged = pool.flow_cache_stats()
    assert list(fed.results) == ref.per_packet
    assert merged is not None and merged["lookups"] == len(ref.trace)
    assert merged["hits"] > 0


@pytest.mark.flowcache
@pytest.mark.parametrize("path", MUTATION_PATHS)
def test_flowcache_mutation_interleaved_paths_agree(path, flowcache_mutation_scenario):
    """The mutation schedule with the flow cache on: commits must invalidate
    exactly enough for every path to keep matching the linear oracle."""
    initial_set, chunks, schedule, oracle, reference = flowcache_mutation_scenario
    if path == "process-packed" and not shared_memory_available():
        pytest.skip("platform grants no shared memory segments")
    flow = _flow_options("idle")

    observed = []
    if path in ("per_packet", "fast", "vectorized"):
        options = {"fast": path == "fast", "vectorized": path == "vectorized"}
        classifier = create_classifier("configurable", initial_set, **options, **flow)
        for index, chunk in enumerate(chunks):
            observed.extend(classifier.classify_batch(chunk).results)
            if index < len(schedule):
                classifier.control.begin().extend(
                    _schedule_delta(schedule[index])
                ).commit()
        cache = classifier.flow_cache
        # The zipf trace repeats flows, so the cache was hot when commits
        # landed; whether a given commit touches a cached decision is
        # seed-dependent, so the invalidation *behaviours* are pinned by the
        # deterministic unit battery instead of asserted here.
        assert cache.hits > 0
    else:
        transport = path.split("-", 1)[1]
        spec = ReplicaSpec("configurable", initial_set, {"fast": True, **flow})
        session = ParallelSession.from_factory(
            spec, workers=2, chunk_size=8, transport=transport
        )
        with session:
            for index, chunk in enumerate(chunks):
                observed.extend(session.feed(chunk).results)
                if index < len(schedule):
                    session.apply(_schedule_delta(schedule[index]))

    assert [record.rule_id for record in observed] == oracle
    # Decisions (rule, priority, action, truncation) are bit-exact against
    # the cache-free reference.  Cost metadata is deliberately excluded: a
    # surgically-kept entry replays its installation-time access/latency
    # counts, while a fresh classification recounts them against the
    # post-commit engine — the whole point of the cache is not recomputing.
    def semantic(record):
        return (record.rule_id, record.priority, record.action, record.truncated)

    assert [semantic(r) for r in observed] == [semantic(r) for r in reference]


# ---------------------------------------------------------------------------
# Fabric column: the partitioned multi-switch fabric against the single-switch
# linear oracle, across every in-process backend.  Placement splits the rule
# program across switches, so the battery's claim is strong: the *distributed*
# lookup (best per-hop match along each packet's routed path) is semantically
# identical to one switch holding the whole program.
# ---------------------------------------------------------------------------

from repro.controller.fabric import FabricController  # noqa: E402

#: flavor x topology shape x switch count; every backend replays each one.
FABRIC_SCENARIOS = [
    ("acl", "line", 4),
    ("fw", "line", 6),
    ("ipc", "fattree", 7),
]

FABRIC_BACKENDS = ("per_packet", "fast", "vectorized")

FABRIC_PACKETS = 240


def _fabric_id(scenario) -> str:
    flavor, kind, switches = scenario
    return f"{flavor}-{kind}{switches}"


def _fabric_backend_options(backend: str) -> dict:
    return {"fast": backend == "fast", "vectorized": backend == "vectorized"}


def _fabric_semantic(record):
    """The fabric-wide decision: cost counters are per-hop and excluded."""
    return (record.rule_id, record.priority, record.action, record.truncated)


@pytest.fixture(scope="module")
def fabric_reference(differential_scenario):
    """Per-scenario fabric workload + single-switch oracle, built once."""
    cache = {}

    def build(flavor: str, kind: str, switches: int):
        key = (flavor, kind, switches)
        if key not in cache:
            ruleset, _ = differential_scenario(flavor, "mixed")
            topology = build_fabric_topology(kind, switches)
            trace = build_fabric_trace(
                ruleset, topology, FABRIC_PACKETS, DIFFERENTIAL_SEED + 17
            )
            truth = [
                match.rule_id
                if (match := ruleset.highest_priority_match(p.header))
                else None
                for p in trace
            ]
            oracle = create_classifier("configurable", ruleset)
            reference = [
                _fabric_semantic(oracle.classify(packet.header)) for packet in trace
            ]
            cache[key] = (ruleset, topology, trace, truth, reference)
        return cache[key]

    return build


@pytest.mark.fabric
@pytest.mark.parametrize("backend", FABRIC_BACKENDS)
@pytest.mark.parametrize("scenario", FABRIC_SCENARIOS, ids=_fabric_id)
def test_fabric_matches_single_switch_oracle(scenario, backend, fabric_reference):
    """Placed fabric == full-program single switch, on every backend."""
    flavor, kind, switches = scenario
    ruleset, topology, trace, truth, reference = fabric_reference(flavor, kind, switches)
    fabric = FabricController(topology, **_fabric_backend_options(backend))
    fabric.install(ruleset)

    # The program really is partitioned, not replicated per switch.
    if topology.min_path_length > 1:
        assert fabric.plan.max_switch_rules < len(ruleset)
        assert fabric.plan.replication_factor < len(topology.switches)

    result = fabric.serve(trace)
    assert [r.rule_id for r in result.results] == truth
    assert [_fabric_semantic(r) for r in result.results] == reference

    # Per-switch accounting adds up to exactly one lookup per path hop.
    assert result.hop_lookups == sum(
        len(topology.route_path(p.ingress)) for p in trace
    )
    assert result.hop_lookups == sum(s.packets for s in result.per_switch.values())
    assert result.matched == sum(1 for rid in truth if rid is not None)
    assert fabric.partial_commits == 0


@pytest.mark.fabric
@pytest.mark.parametrize("scenario", FABRIC_SCENARIOS, ids=_fabric_id)
def test_fabric_backends_agree(scenario, fabric_reference):
    """All three fabric backends produce identical fabric-wide decisions."""
    flavor, kind, switches = scenario
    ruleset, topology, trace, _, _ = fabric_reference(flavor, kind, switches)
    decisions = []
    for backend in FABRIC_BACKENDS:
        fabric = FabricController(topology, **_fabric_backend_options(backend))
        fabric.install(ruleset)
        result = fabric.serve(trace)
        decisions.append([_fabric_semantic(r) for r in result.results])
    assert decisions[0] == decisions[1] == decisions[2]


@pytest.mark.fabric
@pytest.mark.mutation
def test_fabric_mutation_interleaved_matches_oracle(differential_scenario):
    """The mutation schedule replayed fabric-wide stays on the linear oracle.

    Every commit re-plans placement and converges the switches
    transactionally; between commits the fabric must serve exactly what a
    single switch replaying the same schedule would.
    """
    ruleset, _ = differential_scenario("acl", "mixed")
    topology = build_fabric_topology("line", 4)
    trace = build_fabric_trace(ruleset, topology, FABRIC_PACKETS, DIFFERENTIAL_SEED + 23)
    chunks = [
        trace[i : i + MUTATION_CHUNK] for i in range(0, len(trace), MUTATION_CHUNK)
    ]
    initial, schedule = build_mutation_schedule(
        ruleset, boundaries=len(chunks) - 1, seed=DIFFERENTIAL_SEED + 29
    )

    # Linear-search oracle over the identical schedule.
    current = {rule.rule_id: rule for rule in initial}
    oracle: List[Optional[int]] = []
    for index, chunk in enumerate(chunks):
        ordered = sorted(current.values(), key=lambda rule: rule.priority)
        for packet in chunk:
            hit = next((rule for rule in ordered if rule.matches(packet.header)), None)
            oracle.append(hit.rule_id if hit else None)
        if index < len(schedule):
            for kind, payload in schedule[index]:
                if kind == "insert":
                    current[payload.rule_id] = payload
                elif kind == "remove":
                    del current[payload]

    fabric = FabricController(topology, fast=True)
    fabric.install(RuleSet(initial, name="fabric-mutation-initial"))
    observed: List[Optional[int]] = []
    for index, chunk in enumerate(chunks):
        result = fabric.serve(chunk)
        observed.extend(record.rule_id for record in result.results)
        if index < len(schedule):
            fabric.begin().extend(_schedule_delta(schedule[index])).commit()
    assert observed == oracle
    assert fabric.commits == 1 + len(schedule)
    assert fabric.rolled_back_commits == 0
    assert fabric.partial_commits == 0


# ---------------------------------------------------------------------------
# Ingest column: the pcap interchange inside the differential loop.  Each
# scenario's seeded synthetic trace is rendered to a capture file, re-read
# through the streaming front-end, and the replayed workload must classify
# bit-exactly on every execution path — so the interchange layer provably
# neither drops, reorders nor perturbs a single header bit.
# ---------------------------------------------------------------------------

from repro.io.pcap import (  # noqa: E402
    PcapStats,
    read_pcap,
    read_pcap_packed,
    write_pcap,
)

INGEST_SCENARIOS = [
    ("acl", "cross_product", "mixed"),
    ("fw", "cross_product", "heavy_duplicate"),
    ("ipc", "first_label", "all_unique"),
]


@pytest.fixture(scope="module")
def ingest_capture(scenario_reference, tmp_path_factory):
    """Per-scenario capture file written once from the scenario trace."""
    directory = tmp_path_factory.mktemp("ingest")
    cache = {}

    def build(flavor: str, combiner: str, shape: str):
        key = (flavor, combiner, shape)
        if key not in cache:
            ref = scenario_reference(flavor, combiner, shape)
            path = directory / f"{flavor}-{combiner}-{shape}.pcap"
            write_pcap(str(path), ref.trace, seed=DIFFERENTIAL_SEED)
            cache[key] = (ref, str(path))
        return cache[key]

    return build


@pytest.mark.ingest
@pytest.mark.parametrize("scenario", INGEST_SCENARIOS, ids=_scenario_id)
def test_ingest_roundtrip_inprocess_paths_agree(scenario, ingest_capture):
    """capture-replayed trace == source trace, on every in-process path."""
    ref, path = ingest_capture(*scenario)
    stats = PcapStats()
    replayed = read_pcap(path, ports="word", stats=stats)
    # Bit-exact round trip: the capture is the trace.
    assert replayed == ref.trace
    assert (stats.packets, stats.skipped, stats.truncated) == (len(ref.trace), 0, 0)

    per_packet = create_classifier("configurable", ref.ruleset, **ref.options)
    assert [per_packet.classify(p) for p in replayed] == ref.per_packet
    for options in ({"fast": True}, {"vectorized": True}):
        classifier = create_classifier(
            "configurable", ref.ruleset, **options, **ref.options
        )
        assert list(classifier.classify_batch(replayed).results) == ref.per_packet


@pytest.mark.ingest
@pytest.mark.parametrize("transport", ["pickle", "packed"])
def test_ingest_packed_chunks_cross_process(transport, ingest_capture):
    """The capture's packed words survive both process transports verbatim."""
    if transport == "packed" and not shared_memory_available():
        pytest.skip("platform grants no shared memory segments")
    ref, path = ingest_capture("acl", "cross_product", "mixed")
    spec = ReplicaSpec("configurable", ref.ruleset, {"fast": True, **ref.options})
    with ParallelSession.from_factory(
        spec, workers=2, chunk_size=32, backend="process", transport=transport
    ) as pool:
        stats = pool.run(read_pcap_packed(path, chunk_size=32, ports="word"))
    assert stats.packets == len(ref.trace)
    assert stats.matched == sum(1 for r in ref.per_packet if r.matched)


@pytest.mark.ingest
def test_ingest_fabric_serves_capture_on_oracle(ingest_capture):
    """An untagged capture served fabric-wide stays on the linear oracle."""
    ref, path = ingest_capture("acl", "cross_product", "mixed")
    topology = build_fabric_topology("line", 4)
    fabric = FabricController(topology, fast=True)
    fabric.install(ref.ruleset)
    result = fabric.serve(read_pcap(path, ports="word"))
    assert [r.rule_id for r in result.results] == ref.truth
