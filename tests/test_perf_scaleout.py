"""Tests for the ParallelSession process pool.

Covers the scale-out contracts of :mod:`repro.perf.parallel`: pool
statistics equal to one session's and bit-identical results from the worker
processes, a footprint that follows commits, the constant-memory
bounded-chunk dispatch (the trace is never materialised), the
commit-on-success failure semantics (a poisoned packet corrupts nothing),
the bound of the parent's result-interning memo,
the picklable :class:`ReplicaSpec` worker recipe, the one accepted
``backend`` keyword, and the merge edge cases of the one statistics fold,
:meth:`RunningCounters.merge` plus :meth:`RunningCounters.to_stats` (mixed
latency parts, zero-packet parts).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass

import pytest

from repro.api import ClassificationSession, create_classifier
from repro.api.control import Txn
from repro.api.session import RunningCounters
from repro.core.result import BatchResult, Classification
from repro.exceptions import ConfigurationError
from repro.perf import ParallelSession, ReplicaSpec, parallel
from repro.rules.packet import PacketHeader
from repro.rules.trace import generate_trace


class PoisonedPacket(PacketHeader):
    """A header whose hashing explodes inside the classifier.

    The fast path's header layer hashes every packet it probes.  Module
    level so the pickle transport can carry it into a worker.
    """

    def __hash__(self):
        raise RuntimeError("poisoned packet")


class GatedClassifier:
    """A replica that classifies nothing until the gate file exists."""

    name = "gated"

    def __init__(self, gate: str) -> None:
        self.gate = gate

    def classify_batch(self, chunk):
        deadline = time.monotonic() + 30
        while not os.path.exists(self.gate) and time.monotonic() < deadline:
            time.sleep(0.01)
        return BatchResult(
            tuple(
                Classification(rule_id=None, priority=None, action=None, memory_accesses=0)
                for _ in chunk
            )
        )

    def memory_bits(self):
        return 0


@dataclass(frozen=True)
class GatedFactory:
    """Picklable factory of :class:`GatedClassifier` replicas."""

    gate: str

    def __call__(self) -> GatedClassifier:
        return GatedClassifier(self.gate)


@pytest.fixture(scope="module")
def spec(small_acl_ruleset) -> ReplicaSpec:
    return ReplicaSpec("configurable", small_acl_ruleset, {"fast": True})


@pytest.fixture(scope="module")
def reference(small_acl_ruleset):
    """Single-classifier results + session stats over the shared trace."""
    trace = generate_trace(small_acl_ruleset, count=120, seed=77)
    classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
    batch = classifier.classify_batch(trace)
    stats = ClassificationSession(classifier, chunk_size=32).run(trace)
    truth = [
        match.rule_id if (match := small_acl_ruleset.highest_priority_match(p)) else None
        for p in trace
    ]
    return trace, batch, stats, truth


class TestReplicaSpec:
    def test_callable_and_picklable(self, spec, small_trace):
        replica = spec()
        assert replica.name == "configurable"
        assert replica.fast_path_enabled
        clone = pickle.loads(pickle.dumps(spec))
        assert list(clone().classify_batch(small_trace[:10]).results) == list(
            replica.classify_batch(small_trace[:10]).results
        )

    def test_vectorized_option(self, small_acl_ruleset, small_trace):
        replica = ReplicaSpec(
            "configurable", small_acl_ruleset, {"vectorized": True}
        )()
        assert replica._fast_path.vectorized
        baseline = create_classifier("configurable", small_acl_ruleset)
        assert list(replica.classify_batch(small_trace).results) == list(
            baseline.classify_batch(small_trace).results
        )


class TestProcessBackend:
    def test_merged_stats_and_results_match_single(self, spec, reference):
        trace, batch, single, truth = reference
        with ParallelSession.from_factory(
            spec, workers=2, chunk_size=32, backend="process"
        ) as pool:
            merged = pool.run(trace)
            assert merged.packets == single.packets
            assert merged.matched == single.matched
            assert merged.chunks == single.chunks
            assert merged.truncated_lookups == single.truncated_lookups
            assert merged.worst_memory_accesses == single.worst_memory_accesses
            assert merged.worst_latency_cycles == single.worst_latency_cycles
            # One fold over the same integer sums: identical averages.
            assert merged.average_memory_accesses == single.average_memory_accesses
            assert merged.average_latency_cycles == single.average_latency_cycles
            assert merged.memory_bits == 2 * single.memory_bits
            assert merged.classifier == "configurablex2"
            # Bit-exact classifications, in input order, matching the linear
            # scan ground truth.
            fed = pool.feed(trace)
            assert list(fed.results) == list(batch.results)
            assert [result.rule_id for result in fed] == truth

    @pytest.mark.parametrize("workers", [1, 2])
    def test_footprint_follows_commits(self, spec, small_acl_ruleset, workers):
        """``memory_bits`` is read fresh per stats() call, and kept at close()."""
        classifier = spec()
        txn = Txn()
        for rule in small_acl_ruleset.rules()[:40]:
            txn.remove(rule.rule_id)
        delta = txn.delta()
        with ParallelSession.from_factory(spec, workers=workers) as pool:
            before = pool.stats()
            assert before.memory_bits == workers * classifier.memory_bits()
            pool.apply(delta)
            classifier.control.apply_delta(delta)
            after = pool.stats()
            assert after.memory_bits == workers * classifier.memory_bits()
            assert after.memory_bits != before.memory_bits
        assert pool.stats() == after

    def test_generator_input_and_reset(self, spec, reference):
        trace, _, _, _ = reference
        with ParallelSession.from_factory(
            spec, workers=2, chunk_size=16, backend="process"
        ) as pool:
            stats = pool.run(packet for packet in trace)
            assert stats.packets == len(trace)
            pool.reset()
            assert pool.stats().packets == 0

    def test_poisoned_packet_leaves_counters_consistent(self, spec, reference):
        # Pinned to the pickle transport: the poison lives in a PacketHeader
        # *subclass* method, and only object pickling carries the subclass
        # into the worker — the packed transport re-encodes headers as plain
        # fixed-width value words (its abort semantics are covered by the
        # codec-failure test in tests/test_perf_transport.py).
        trace, _, _, _ = reference
        with ParallelSession.from_factory(
            spec, workers=2, chunk_size=16, backend="process", transport="pickle"
        ) as pool:
            before = pool.run(trace)
            poisoned = list(trace[:40]) + [
                PoisonedPacket(0x0A000001, 0x0A000002, 1, 2, 6)
            ] + list(trace[40:])
            with pytest.raises(RuntimeError, match="poisoned packet"):
                pool.run(poisoned)
            # The failed run contributed nothing: stats are exactly the
            # pre-failure commit, and the pool keeps working.
            assert pool.stats() == before
            again = pool.run(trace)
            assert again.packets == 2 * before.packets

    def test_poisoned_first_chunk_leaves_counters_consistent(self, spec, reference):
        # A poison in the very first chunk, with every worker busy, aborts
        # just as cleanly (pickle transport, as above).
        trace, _, _, _ = reference
        with ParallelSession.from_factory(
            spec, workers=3, chunk_size=16, backend="process", transport="pickle"
        ) as pool:
            before = pool.run(trace)
            poisoned = [PoisonedPacket(1, 2, 3, 4, 5)] + list(trace)
            with pytest.raises(RuntimeError, match="poisoned packet"):
                pool.run(poisoned)
            assert pool.stats() == before

    def test_requires_picklable_factory(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            ParallelSession.from_factory(lambda: None, workers=2, backend="process")

    def test_rejects_replica_instances(self, small_acl_ruleset):
        replica = create_classifier("configurable", small_acl_ruleset)
        with pytest.raises(ConfigurationError, match="picklable replica factory"):
            ParallelSession.from_factory(replica, workers=1)
        with pytest.raises(ConfigurationError, match="picklable replica factory"):
            ParallelSession([replica], workers=1)

    def test_replica_details_reported_from_worker(self, spec):
        with ParallelSession.from_factory(spec, workers=1, backend="process") as pool:
            details = pool.replica_details()
        assert details["fast_path"] is True
        assert "throughput_gbps" in details

    def test_close_idempotent(self, spec):
        pool = ParallelSession.from_factory(spec, workers=1, backend="process")
        pool.close()
        pool.close()

    def test_feed_matches_single(self, spec, reference):
        trace, batch, _, _ = reference
        with ParallelSession.from_factory(spec, workers=3, chunk_size=16) as pool:
            fed = pool.feed(trace)
            assert list(fed.results) == list(batch.results)
            assert pool.replica_details()["fast_path"] is True

    def test_result_memo_stays_bounded(self, spec, small_acl_ruleset, monkeypatch):
        """Never-repeating headers over several feeds: the parent's interning
        memo holds at most ``RESULT_MEMO_LIMIT`` records, evicting the oldest,
        and every result still matches the linear-search oracle."""
        monkeypatch.setattr(parallel, "RESULT_MEMO_LIMIT", 64)
        trace = list(dict.fromkeys(
            generate_trace(small_acl_ruleset, count=3000, seed=23, locality=0.0)
        ))
        assert len(trace) > 2000
        with ParallelSession.from_factory(spec, workers=2, chunk_size=64) as pool:
            for start in range(0, len(trace), 500):
                part = trace[start:start + 500]
                fed = pool.feed(part)
                assert len(pool._result_memo) <= 64
                assert [result.rule_id for result in fed] == [
                    match.rule_id if (match := small_acl_ruleset.highest_priority_match(p))
                    else None
                    for p in part
                ]
            assert pool._result_memo.evictions > 0

    @pytest.mark.parametrize("backend", ["thread", "gevent"])
    def test_unknown_backend_rejected(self, spec, backend):
        """Only the process backend exists; the error names the replacements."""
        with pytest.raises(ConfigurationError, match="ClassificationSession") as info:
            ParallelSession.from_factory(spec, workers=2, backend=backend)
        assert "to_thread(pool.feed, chunk)" in str(info.value)

    def test_streaming_never_materialises_the_trace(self, tmp_path):
        """The dispatcher pulls at most the in-flight window ahead.

        With every worker blocked, dispatch must stall after the bounded
        chunk window — if a list-materialising shard logic came back, the
        generator would be drained dry before any worker ran.
        """
        gate = tmp_path / "gate"
        pulled = 0
        total = 5000

        def counting_trace():
            nonlocal pulled
            for _ in range(total):
                pulled += 1
                yield PacketHeader(1, 2, 3, 4, 5)

        pool = ParallelSession.from_factory(
            GatedFactory(str(gate)), workers=2, chunk_size=10, transport="pickle"
        )
        pool.stats()  # bring both workers up before the clock starts
        runner = threading.Thread(target=pool.run, args=(counting_trace(),))
        runner.start()
        try:
            deadline = time.monotonic() + 10
            # workers(2) x PIPELINE_DEPTH(2) chunks in flight + the chunk
            # whose dispatch is stalled = 50 packets pulled.
            while pulled < 50 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # would keep pulling if the bound were broken
            assert pulled <= 60, f"dispatcher pulled {pulled} packets ahead"
        finally:
            gate.touch()
            runner.join(timeout=60)
        assert not runner.is_alive()
        assert pool.stats().packets == total
        pool.close()


class TestSessionStatsMergeEdgeCases:
    """Edge cases of :meth:`RunningCounters.merge` plus one ``to_stats`` render."""

    @staticmethod
    def _part(packets=10, latency=10, worst=12) -> RunningCounters:
        counters = RunningCounters()
        counters.packets = packets
        counters.matched = packets // 2
        counters.chunks = 1 if packets else 0
        counters.access_sum = 4 * packets
        counters.access_worst = 9 if packets else 0
        if latency is not None:
            counters.latency_sum = latency * packets
            counters.latency_count = packets
            counters.latency_worst = worst
        return counters

    @staticmethod
    def _merge(*parts):
        total = RunningCounters()
        for part in parts:
            total.merge(part)
        return total.to_stats("configurable", 100 * len(parts))

    def test_mixed_latency_parts_weight_only_modelled_packets(self):
        with_latency = self._part(packets=10, latency=20, worst=30)
        without = self._part(packets=90, latency=None)
        merged = self._merge(with_latency, without)
        # The 90 latency-free packets must not dilute the average.
        assert merged.average_latency_cycles == 20.0
        assert merged.worst_latency_cycles == 30
        assert merged.packets == 100

    def test_zero_packet_parts(self):
        empty = self._part(packets=0, latency=None)
        merged = self._merge(empty, empty)
        assert merged.packets == 0
        assert merged.chunks == 0
        assert merged.average_memory_accesses == 0.0
        assert merged.average_latency_cycles is None
        assert merged.worst_latency_cycles is None
        assert merged.hit_ratio == 0.0

    def test_zero_packet_part_does_not_skew_busy_part(self):
        busy = self._part(packets=40)
        empty = self._part(packets=0, latency=None)
        merged = self._merge(busy, empty)
        assert merged.average_memory_accesses == 4.0
        assert merged.average_latency_cycles == 10.0
        assert merged.worst_memory_accesses == 9
        assert merged.memory_bits == 200
