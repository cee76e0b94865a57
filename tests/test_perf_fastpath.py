"""Tests for the repro.perf fast path and parallel sessions.

The acceptance property of the fast path is *bit-exact equivalence*: for any
workload, the memoizing batch path, the per-packet path and the linear-search
ground truth must agree.  These tests sweep that property across ClassBench
flavors and both combiner modes, and pin down the cache-invalidation
behaviour on installs, removes, reconfiguration and combiner-mode switches.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import chain, compress, repeat
from operator import is_not

import pytest

from diff_scenarios import DIFFERENTIAL_SEED
from repro.api import ClassificationSession, create_classifier
from repro.api.session import RunningCounters
from repro.core.classifier import ConfigurableClassifier
from repro.core.config import ClassifierConfig, CombinerMode, IpAlgorithm
from repro.core.dimensions import DIMENSION_DOMAINS, DIMENSIONS, packet_dimension_values
from repro.exceptions import ConfigurationError
from repro.fields.prefix import Prefix
from repro.fields.range_utils import PortRange
from repro.fields.vectorized import ScalarBatchWalker, TrieBatchWalker
from repro.hardware.rule_filter import RuleFilterMemory
from repro.perf import FastPathAccelerator, ParallelSession, ReplicaSpec
from repro.rules.classbench import ClassBenchGenerator, FilterFlavor
from repro.rules.packet import PacketHeader
from repro.rules.rule import Rule, RuleAction
from repro.rules.ruleset import RuleSet
from repro.rules.trace import generate_flow_churn_trace, generate_trace


@pytest.fixture(scope="module", params=["acl", "fw", "ipc"])
def flavored_workload(request):
    """A small ruleset + 1000-packet trace per ClassBench flavor."""
    flavor = FilterFlavor(request.param)
    ruleset = ClassBenchGenerator(flavor, seed=2014).generate(150)
    trace = generate_trace(ruleset, count=1000, seed=4242, locality=0.2)
    return ruleset, trace


class TestFastPathEquivalence:
    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("combiner", [m.value for m in CombinerMode])
    def test_fast_equals_slow_equals_ground_truth(self, flavored_workload, combiner, vectorized):
        """1000-packet sweep: fast path == per-packet path (== linear scan)."""
        ruleset, trace = flavored_workload
        classifier = create_classifier("configurable", ruleset, combiner=combiner)
        slow = classifier.classify_batch(trace)
        classifier.enable_fast_path(vectorized=vectorized)
        fast_cold = classifier.classify_batch(trace)
        fast_warm = classifier.classify_batch(trace)
        assert list(fast_cold.results) == list(slow.results)
        assert list(fast_warm.results) == list(slow.results)
        if combiner == CombinerMode.CROSS_PRODUCT.value:
            # Cross-product resolution is exact, so the linear scan agrees too
            # (first-label is the paper's approximate hardware fast path).
            truth = [
                match.rule_id if (match := ruleset.highest_priority_match(p)) else None
                for p in trace
            ]
            assert [result.rule_id for result in fast_cold] == truth

    def test_bst_configuration(self, flavored_workload):
        ruleset, trace = flavored_workload
        classifier = create_classifier("configurable", ruleset, ip_algorithm="bst")
        slow = classifier.classify_batch(trace[:400])
        classifier.enable_fast_path()
        assert list(classifier.classify_batch(trace[:400]).results) == list(slow.results)

    def test_single_classify_unaffected(self, flavored_workload):
        """classify() stays on the per-packet path even with the fast path on."""
        ruleset, trace = flavored_workload
        classifier = create_classifier("configurable", ruleset, fast=True)
        batch = classifier.classify_batch(trace[:50])
        assert [classifier.classify(p) for p in trace[:50]] == list(batch.results)


class TestSessionAggregates:
    def test_run_and_feed_match_direct_batch(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        batch = classifier.classify_batch(small_trace)

        session = ClassificationSession(classifier, chunk_size=32)
        stats = session.run(small_trace)
        assert stats.packets == batch.packets
        assert stats.matched == batch.matched
        assert stats.truncated_lookups == batch.truncated_lookups
        assert stats.average_memory_accesses == pytest.approx(batch.average_memory_accesses)
        assert stats.worst_memory_accesses == batch.worst_memory_accesses
        assert stats.average_latency_cycles == pytest.approx(batch.average_latency_cycles)

        session.reset()
        fed = session.feed(small_trace)
        assert list(fed.results) == list(batch.results)
        assert session.stats().packets == batch.packets


class TestCacheInvalidation:
    def _probe_rule(self):
        return Rule.build(
            9999, 0, src="10.0.0.0/8", dst="192.168.0.0/16", src_port="0:65535",
            dst_port="80:80", protocol=6, action=RuleAction.REDIRECT_GROUP,
        )

    def test_install_and_remove_invalidate(self, handcrafted_ruleset, web_packet):
        base = handcrafted_ruleset.filter(lambda rule: rule.rule_id != 0, name="trimmed")
        classifier = create_classifier("configurable", base, fast=True)
        assert classifier.classify_batch([web_packet])[0].rule_id == 1
        classifier.install(self._probe_rule())
        assert classifier.classify_batch([web_packet])[0].rule_id == 9999
        classifier.remove(9999)
        assert classifier.classify_batch([web_packet])[0].rule_id == 1

    def test_batch_results_track_slow_path_after_updates(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        classifier.classify_batch(small_trace)  # warm every cache
        classifier.install(self._probe_rule())
        fast = classifier.classify_batch(small_trace)
        classifier.disable_fast_path()
        slow = classifier.classify_batch(small_trace)
        assert list(fast.results) == list(slow.results)

    def test_reconfigure_rebinds_fast_path(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        classifier.classify_batch(small_trace)
        classifier.reconfigure(IpAlgorithm.BST)
        assert classifier.fast_path_enabled
        fast = classifier.classify_batch(small_trace)
        reference = ConfigurableClassifier.from_ruleset(
            small_acl_ruleset, classifier.config
        ).classify_batch(small_trace)
        assert list(fast.results) == list(reference.results)

    def test_set_combiner_mode_invalidates(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        cross = classifier.classify_batch(small_trace)
        classifier.set_combiner_mode(CombinerMode.FIRST_LABEL)
        first = classifier.classify_batch(small_trace)
        classifier.disable_fast_path()
        slow_first = classifier.classify_batch(small_trace)
        assert list(first.results) == list(slow_first.results)
        # The two modes genuinely differ on overlapping rule sets, so a stale
        # cache would have been caught above.
        assert cross.packets == first.packets

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_scoped_commit_clears_header_layer(self, small_acl_ruleset, vectorized):
        """A remove+reinsert commit stays scoped yet leaves no header entry."""
        trace = generate_trace(small_acl_ruleset, count=2000, seed=31)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, vectorized=vectorized
        )
        classifier.classify_batch(trace)
        accelerator = classifier._fast_path
        cached = accelerator.cache_stats()["header_entries"]
        assert cached == len(set(trace))
        victim = small_acl_ruleset.get(classifier.classify(trace[0]).rule_id)
        classifier.control.begin().remove(victim.rule_id).insert(victim).commit()
        stats = accelerator.cache_stats()
        assert stats["scoped_commits"] == 1
        assert stats["header_entries"] == 0
        assert stats["scoped_entries_dropped"] >= cached
        fast = classifier.classify_batch(trace)
        assert accelerator.cache_stats()["epoch_flushes"] == 0
        classifier.disable_fast_path()
        assert list(fast.results) == list(classifier.classify_batch(trace).results)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_dirty_overflow_counts_one_epoch_flush(
        self, small_acl_ruleset, monkeypatch, vectorized
    ):
        """A commit the Rule Filter cannot bound is flushed once, and counted."""
        monkeypatch.setattr(RuleFilterMemory, "DIRTY_BUDGET", 1)
        trace = generate_trace(small_acl_ruleset, count=500, seed=37)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, vectorized=vectorized
        )
        warm = classifier.classify_batch(trace)
        accelerator = classifier._fast_path
        before = accelerator.cache_stats()
        victim = next(result.rule_id for result in warm if result.rule_id is not None)
        classifier.control.begin().remove(victim).commit()
        fast = classifier.classify_batch(trace)
        after = accelerator.cache_stats()
        assert after["epoch_flushes"] == before["epoch_flushes"] + 1
        assert after["scoped_commits"] == before["scoped_commits"]
        assert list(fast.results) == [classifier.classify(packet) for packet in trace]

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_action_change_reaches_cached_outcomes(self, small_acl_ruleset, vectorized):
        """Remove + re-insert with a new action: no walk moves, the entry does.

        The re-insert refills the freed slot, so the commit changes no home;
        outcomes that probed the touched key's home slot must still go.
        """
        trace = generate_trace(small_acl_ruleset, count=500, seed=41)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, vectorized=vectorized
        )
        warm = classifier.classify_batch(trace)
        victim = small_acl_ruleset.get(next(r.rule_id for r in warm if r.rule_id is not None))
        action = RuleAction.DROP if victim.action is not RuleAction.DROP else RuleAction.FORWARD
        modified = dataclasses.replace(victim, action=action)
        classifier.control.begin().remove(victim.rule_id).insert(modified).commit()
        fast = classifier.classify_batch(trace)
        assert classifier._fast_path.cache_stats()["epoch_flushes"] == 0
        assert list(fast.results) == [classifier.classify(packet) for packet in trace]
        assert any(result.rule_id == victim.rule_id for result in fast)

    @pytest.mark.mutation
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_single_op_commits_stay_warm_and_exact(self, vectorized):
        """Single remove / re-insert commits keep the fast path warm, bit-exact.

        Every single-op commit net-changes Rule Filter occupancy; only the
        entries whose probe walks crossed a changed home may go.  A 512-slot
        filter runs at over half load, so probe runs span several slots and
        a commit moves the walks of keys other than the touched one.
        """
        ruleset = ClassBenchGenerator(FilterFlavor.ACL, seed=DIFFERENTIAL_SEED).generate(300)
        trace = generate_flow_churn_trace(
            ruleset, count=9 * 256, seed=DIFFERENTIAL_SEED + 31, flows=512, churn=0.02
        )
        batches = [trace[start:start + 256] for start in range(0, len(trace), 256)]
        config = ClassifierConfig.builder().provisioning(rule_filter_entries=512)
        classifier = create_classifier(
            "configurable", ruleset, config=config.build(), fast=True, vectorized=vectorized
        )
        warm = classifier.classify_batch(batches[0])
        accelerator = classifier._fast_path
        matched = sorted({result.rule_id for result in warm if result.rule_id is not None})
        victims = random.Random(DIFFERENTIAL_SEED).sample(matched, 4)
        for commit, batch in enumerate(batches[1:]):
            victim = ruleset.get(victims[commit // 2])
            txn = classifier.control.begin()
            if commit % 2:
                txn.insert(victim)
            else:
                txn.remove(victim.rule_id)
            txn.commit()
            stats = accelerator.cache_stats()
            assert stats["scoped_commits"] == commit + 1
            assert stats["result_entries"] > 0
            fast = classifier.classify_batch(batch)
            assert list(fast.results) == [classifier.classify(packet) for packet in batch]
            assert accelerator.cache_stats()["epoch_flushes"] == 0

    def test_both_modes_file_the_same_dependencies(self, small_acl_ruleset):
        """Batch-wide assembly files what one miss at a time would, in both modes.

        The batches repeat field-id tuples (distinct headers, equal field
        results) and label-list tuples (distinct field results, equal
        lists), and a scoped commit drops some of the filed entries halfway.
        Field ids differ between the modes' walkers, so the result keys
        filed per combo id are compared by count.
        """
        trace = generate_trace(small_acl_ruleset, count=12 * 128, seed=DIFFERENTIAL_SEED)
        victim = small_acl_ruleset.highest_priority_match(trace[0])
        accelerators = []
        for vectorized in (False, True):
            classifier = create_classifier(
                "configurable", small_acl_ruleset, fast=True, vectorized=vectorized
            )
            for start in range(0, len(trace), 128):
                if start == 6 * 128:
                    classifier.control.begin().remove(victim.rule_id).commit()
                classifier.classify_batch(trace[start:start + 128])
            accelerators.append(classifier._fast_path)
        plain, vectorized = accelerators
        for accelerator in accelerators:
            stats = accelerator.cache_stats()
            assert stats["scoped_commits"] == 1
            assert stats["result_hits"] > 0 and stats["combiner_hits"] > 0
            assert stats["combiner_hits"] + stats["combiner_misses"] == stats["result_misses"]
        assert dict(plain._combos_by_home) == dict(vectorized._combos_by_home)
        assert plain._combo_keys == vectorized._combo_keys

        def filed(accelerator):
            return {combo: len(keys) for combo, keys in accelerator._results_by_combo.items()}

        assert filed(plain) == filed(vectorized)
        counters = ["combiner_hits", "combiner_misses", "result_hits", "result_misses"]
        assert [plain.cache_stats()[name] for name in counters] == [
            vectorized.cache_stats()[name] for name in counters
        ]

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_scoped_commit_clears_exactly_its_spans(
        self, small_acl_ruleset, monkeypatch, vectorized
    ):
        """A scoped commit unfills the field-table slots inside its spans, no others.

        Three commits, each recorded through a wrapped ``note_commit``: one
        whose span covers a whole dimension (removing the rule that holds
        the wildcard source port's best priority), a remove+insert whose
        destination-port spans overlap, and a narrow source prefix.  The
        warm trace fills the domain edges (0 and 2^16 - 1, 0 and 255).
        """
        edges = [
            PacketHeader(0, 0xFFFFFFFF, 0, 0xFFFF, 0),
            PacketHeader(0xFFFFFFFF, 0, 0xFFFF, 0, 0xFF),
        ]
        trace = edges + generate_trace(small_acl_ruleset, count=600, seed=DIFFERENTIAL_SEED)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, vectorized=vectorized
        )
        accelerator = classifier._fast_path
        scopes = []
        note_commit = accelerator.note_commit

        def recording(scope):
            scopes.append(scope)
            note_commit(scope)

        monkeypatch.setattr(accelerator, "note_commit", recording)
        rules = small_acl_ruleset.rules()
        wildcard_best = min(
            (rule for rule in rules if rule.src_port == PortRange(0, 0xFFFF)),
            key=lambda rule: rule.priority,
        )
        ports = [(rule.dst_port.low, rule.dst_port.high) for rule in rules]
        widened = next(
            rule for rule, span in zip(rules, ports)
            if ports.count(span) == 1 and span[1] - span[0] < 0xFF00
        )
        template = next(rule for rule in rules if rule.rule_id != wildcard_best.rule_id)
        narrow = dataclasses.replace(
            template,
            rule_id=80_001,
            priority=max(rule.priority for rule in rules) + 1,
            src_prefix=Prefix(trace[len(edges)].src_ip & 0xFFFFFF00, 24),
        )
        commits = [
            lambda txn: txn.remove(wildcard_best.rule_id),
            lambda txn: txn.remove(widened.rule_id).insert(dataclasses.replace(
                widened,
                rule_id=80_000,
                dst_port=PortRange(widened.dst_port.low, widened.dst_port.high + 0xFF),
            )),
            lambda txn: txn.insert(narrow),
        ]
        assert list(classifier.classify_batch(trace).results) == [
            classifier.classify(packet) for packet in trace
        ]
        for number, commit in enumerate(commits, 1):
            before = {name: _filled(accelerator._field_tables[name]) for name in DIMENSIONS}
            for name, domain in DIMENSION_DOMAINS.items():
                assert {0, domain - 1} <= set(before[name])
            entries = accelerator.cache_stats()["field_entries"]
            assert entries == sum(map(len, before.values()))
            commit(classifier.control.begin()).commit()
            assert len(scopes) == number
            assert accelerator.cache_stats()["scoped_commits"] == number
            spans = scopes[-1].field_spans
            widths = [high - low for low, high in chain.from_iterable(spans.values())]
            if number == 1:
                assert (0, 0xFFFF) in spans["src_port"]
            elif number == 2:
                dst = sorted(spans["dst_port"])
                assert any(a[1] >= b[0] for a, b in zip(dst, dst[1:]))  # overlap
            else:  # at most the first-level trie subtree holding the prefix
                assert widths and max(widths) < 1 << 12
            cleared = 0
            for name in DIMENSIONS:
                table = accelerator._field_tables[name]
                for low, high in spans.get(name, ()):
                    assert table[low:high + 1].count(None) == high + 1 - low
                inside = {
                    value for value in before[name]
                    if any(low <= value <= high for low, high in spans.get(name, ()))
                }
                cleared += len(inside)
                after = _filled(table)
                assert after == {
                    value: field_id for value, field_id in before[name].items()
                    if value not in inside
                }
            assert cleared > 0
            assert accelerator.cache_stats()["field_entries"] == entries - cleared
            fast = classifier.classify_batch(trace)
            assert accelerator.cache_stats()["epoch_flushes"] == 0
            assert list(fast.results) == [classifier.classify(packet) for packet in trace]

    def test_disable_detaches_listeners(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        accelerator = classifier._fast_path
        classifier.classify_batch(small_trace[:20])
        classifier.disable_fast_path()
        assert not classifier.fast_path_enabled
        assert accelerator.cache_stats()["field_entries"] == 0
        # Updates after detach must not fire stale hooks (would repopulate/clear).
        classifier.install(self._probe_rule())
        assert classifier.classify_batch(small_trace[:20]).packets == 20


class TestVectorizedMode:
    def test_block_walk_fallback_bit_exact(self, small_acl_ruleset, small_trace, monkeypatch):
        """Products beyond STAGE_CAP stream through the block walk, same results."""
        from repro.core.label_combiner import LabelCombiner

        baseline = create_classifier("configurable", small_acl_ruleset).classify_batch(
            small_trace
        )
        monkeypatch.setattr(LabelCombiner, "STAGE_CAP", 0)
        classifier = create_classifier("configurable", small_acl_ruleset, vectorized=True)
        assert list(classifier.classify_batch(small_trace).results) == list(
            baseline.results
        )

    def test_install_remove_invalidate(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, vectorized=True)
        classifier.classify_batch(small_trace)  # warm every cache
        probe = Rule.build(
            9999, 0, src="10.0.0.0/8", dst="0.0.0.0/0", src_port="0:65535",
            dst_port="0:65535", protocol=None, action=RuleAction.DROP,
        )
        classifier.install(probe)
        fast = classifier.classify_batch(small_trace)
        classifier.disable_fast_path()
        slow = classifier.classify_batch(small_trace)
        assert list(fast.results) == list(slow.results)

    def test_truncation_preserved(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        classifier.combiner.probe_budget = 1
        slow = classifier.classify_batch([web_packet, web_packet])
        classifier.enable_fast_path(vectorized=True)
        fast = classifier.classify_batch([web_packet, web_packet])
        assert list(fast.results) == list(slow.results)
        assert fast.truncated_lookups == slow.truncated_lookups == 2

    def test_enable_switches_modes(self, small_acl_ruleset):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        plain = classifier._fast_path
        assert not plain.vectorized
        assert classifier.enable_fast_path() is plain  # same mode: untouched
        vectorized = classifier.enable_fast_path(vectorized=True)
        assert vectorized is not plain and vectorized.vectorized
        assert classifier.enable_fast_path(vectorized=True) is vectorized
        assert classifier.stats().details["fast_path_vectorized"]

    def test_reconfigure_preserves_vectorized_mode(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, vectorized=True)
        classifier.classify_batch(small_trace)
        classifier.reconfigure(IpAlgorithm.BST)
        assert classifier.fast_path_enabled
        assert classifier._fast_path.vectorized
        reference = ConfigurableClassifier.from_ruleset(
            small_acl_ruleset, classifier.config
        ).classify_batch(small_trace)
        assert list(classifier.classify_batch(small_trace).results) == list(
            reference.results
        )

    def test_generator_input(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, vectorized=True)
        batch = classifier.classify_batch(packet for packet in small_trace)
        assert batch.packets == len(small_trace)


def _filled(table):
    """``{value: result id}`` of a field table's filled slots."""
    values = list(compress(range(len(table)), map(is_not, table, repeat(None))))
    return dict(zip(values, map(table.__getitem__, values)))


def _row_ids(walker):
    """The result ids an array walker's flat rows name (orphaned trie rows too)."""
    if isinstance(walker, TrieBatchWalker):
        return set(chain.from_iterable(walker._node_ids))
    return set(walker._interval_ids)


def _unique_flow(index: int) -> "PacketHeader":
    """An adversarial flow: every dimension value changes every packet."""
    from repro.rules.packet import PacketHeader

    segment = index & 0xFFFF
    return PacketHeader(
        src_ip=(segment << 16) | (0xFFFF - segment),
        dst_ip=((0xFFFF - segment) << 16) | segment,
        src_port=segment,
        dst_port=0xFFFF - segment,
        protocol=index % 251,
    )


class TestAdversarialStream:
    """Satellite regression: all-unique-flow streams must hold memory flat."""

    LIMITS = dict(
        header_cache_limit=64,
        combiner_cache_limit=48,
        probe_cache_limit=96,
    )

    @pytest.fixture(scope="class")
    def adversarial_stream(self, small_acl_ruleset):
        """Unique-flow stream that also exercises varied rule matches.

        Ruleset-biased packets (so label combinations vary, pressuring the
        combiner layer) plus synthetic never-repeating flows (so field and
        header values never repeat either); every header is unique.
        """
        stream = []
        seen = set()
        for packet in generate_trace(small_acl_ruleset, count=4000, seed=5, locality=0.0):
            if packet not in seen:
                seen.add(packet)
                stream.append(packet)
        stream.extend(_unique_flow(index) for index in range(500))
        assert len(stream) > 1000
        return stream

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_caches_stay_bounded_and_exact(self, small_acl_ruleset, adversarial_stream, vectorized):
        classifier = ConfigurableClassifier.from_ruleset(small_acl_ruleset)
        stream = adversarial_stream
        baseline = classifier.classify_batch(stream)
        accelerator = FastPathAccelerator(
            classifier, vectorized=vectorized, **self.LIMITS
        )
        fast = accelerator.classify_batch(stream)
        assert list(fast.results) == list(baseline.results)
        stats = accelerator.cache_stats()
        assert stats["header_entries"] <= self.LIMITS["header_cache_limit"]
        # The field tables are bounded by their domains and never evict: they
        # hold each distinct value of the stream once.
        assert stats["field_entries"] == len({
            pair for packet in stream for pair in packet_dimension_values(packet).items()
        })
        assert stats["combiner_entries"] <= self.LIMITS["combiner_cache_limit"]
        assert stats["probe_entries"] <= self.LIMITS["probe_cache_limit"]
        # The stream overflows every bound, so eviction must have happened —
        # the unbounded-growth regression this test pins down.
        assert stats["header_evictions"] > 0
        assert stats["combiner_evictions"] > 0
        accelerator.detach()

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_dependency_maps_stay_within_budget(
        self, small_acl_ruleset, adversarial_stream, vectorized
    ):
        """The scoped-invalidation maps overflow to a wholesale flush, not growth.

        Single-op commits every few batches keep the maps alive across
        commits; each commit is either scoped or, after an overflow, ends in
        exactly one wholesale flush, and results stay bit-exact either way.
        """
        classifier = ConfigurableClassifier.from_ruleset(small_acl_ruleset)
        accelerator = FastPathAccelerator(classifier, vectorized=vectorized, **self.LIMITS)
        classifier._fast_path = accelerator  # control-plane commits reach it
        budget = 4 * self.LIMITS["header_cache_limit"]
        table_size = classifier.rule_filter.hash_unit.table_size
        victim = small_acl_ruleset.rules()[0]
        outcomes = set()
        for index, start in enumerate(range(0, len(adversarial_stream), 32)):
            batch = adversarial_stream[start:start + 32]
            committed = index % 4 == 3
            if committed:
                before = accelerator.cache_stats()
                txn = classifier.control.begin()
                if index % 8 == 3:
                    txn.remove(victim.rule_id)
                else:
                    txn.insert(victim)
                txn.commit()
            fast = accelerator.classify_batch(batch)
            stats = accelerator.cache_stats()
            assert stats["dependency_registrations"] <= budget
            assert len(accelerator._combos_by_home) <= table_size
            held = sum(map(len, accelerator._combos_by_home.values()))
            held += sum(map(len, accelerator._results_by_combo.values()))
            held += len(accelerator._combo_keys)
            assert held <= budget
            if not committed:
                continue
            # Overflowed maps cannot scope a commit: it skips the scoped pass
            # and the next batch flushes wholesale, once.
            overflowed = before["dependency_overflow"]
            assert stats["epoch_flushes"] == before["epoch_flushes"] + overflowed
            assert stats["scoped_commits"] == before["scoped_commits"] + 1 - overflowed
            outcomes.add(overflowed)
            assert list(fast.results) == [classifier.classify(packet) for packet in batch]
        assert outcomes == {0, 1}  # both scoped and overflowed commits happened

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_intern_tables_stay_within_domain(
        self, small_acl_ruleset, adversarial_stream, vectorized
    ):
        """The walkers' intern tables stay bounded over 200 scoped commits.

        Each commit inserts a fresh copy of one rule (new dst port range and
        dst prefix, so new field results) or removes the last copy, and
        replaces a wildcard-protocol rule with one of a better priority: the
        protocol labels take a new best priority, so every protocol value
        takes a new result, at every commit (the rule set's priorities are
        lifted to leave room below them).  A scalar walker's table (every
        dimension in plain mode, the protocol LUT in vectorized mode)
        holding as many results as its dimension has values is pruned to the
        results its filled slots name, so the live entries survive; the
        protocol results pass the 256 protocol values many times over.  An
        array walker's table holds every result its flat rows name and at
        most as many retired ones: a rebuild prunes it to the named results
        once it holds more than twice as many.  Every filled slot resolves
        through ``result()`` to the engine's answer, and the ids issued after
        a prune are larger than every id issued before, so a result key
        naming a forgotten id can only miss.
        """
        lift = 1000
        ruleset = RuleSet(
            [rule.with_priority(rule.priority + lift) for rule in small_acl_ruleset.rules()],
            name="lifted",
        )
        classifier = ConfigurableClassifier.from_ruleset(ruleset)
        # A header bound whose dependency budget the run never exhausts, so
        # the commits stay scoped and the field tables persist across batches.
        limits = dict(self.LIMITS, header_cache_limit=8192)
        accelerator = FastPathAccelerator(classifier, vectorized=vectorized, **limits)
        classifier._fast_path = accelerator  # control-plane commits reach it
        batches = [adversarial_stream[start:start + 8] for start in range(0, 1600, 8)]
        template = ruleset.rules()[0]
        rng = random.Random(21)
        issued = {name: -1 for name in DIMENSIONS}  # largest id seen so far
        held = {name: set() for name in DIMENSIONS}
        prunes = {"scalar": 0, "array": 0}
        for index, batch in enumerate(batches):
            txn = classifier.control.begin()
            if index % 2:
                txn.remove(60_000 + index - 1)
            else:
                low = rng.randrange(0xFF00)
                txn.insert(dataclasses.replace(
                    template,
                    rule_id=60_000 + index,
                    dst_port=PortRange(low, low + rng.randrange(0x100)),
                    dst_prefix=Prefix(rng.getrandbits(32), rng.randint(8, 32)),
                ))
            txn.insert(Rule.build(
                70_000 + index, lift - 1 - index, src="10.1.2.3/32", dst="10.4.5.6/32",
                src_port="1:1", dst_port="2:2", protocol=None,
            ))
            if index:
                txn.remove(70_000 + index - 1)
            txn.commit()
            fast = accelerator.classify_batch(batch)
            assert list(fast.results) == [classifier.classify(packet) for packet in batch]
            stats = accelerator.cache_stats()
            assert stats["field_hits"] + stats["field_misses"] == 7 * stats["header_misses"]
            for name in DIMENSIONS:
                walker = accelerator._walkers[name]
                ids = set(walker._results)
                assert set(walker._ids.values()) == ids
                scalar = isinstance(walker, ScalarBatchWalker)
                if scalar:
                    assert len(ids) <= DIMENSION_DOMAINS[name]
                else:
                    named = _row_ids(walker)
                    assert named <= ids
                    assert len(ids) <= 2 * len(named)
                filled = _filled(accelerator._field_tables[name])
                lookup = classifier.engines[name].lookup
                for value, field_id in filled.items():
                    assert walker.result(field_id) == lookup(value)
                # The batch's own values stay filled: a prune is no miss storm.
                assert {packet_dimension_values(packet)[name] for packet in batch} <= set(filled)
                assert all(field_id > issued[name] for field_id in ids - held[name])
                prunes["scalar" if scalar else "array"] += not ids >= held[name]
                issued[name] = max(ids | {issued[name]})
                held[name] = ids
        assert len(batches) == 200
        assert accelerator.cache_stats()["scoped_commits"] > 150
        # The protocol LUT's scalar table really reached its 256 values, in
        # both modes; in vectorized mode the array walkers' rebuilds really
        # dropped retired results too.
        assert prunes["scalar"] > 0
        if vectorized:
            assert prunes["array"] > 0

    def test_unbounded_defaults_would_have_grown(self, small_acl_ruleset):
        """Sanity check: the stream really is adversarial (all values unique)."""
        stream = [_unique_flow(index) for index in range(200)]
        assert len(set(stream)) == len(stream)
        assert len({packet.src_ip >> 16 for packet in stream}) == len(stream)


class TestAcceleratorInternals:
    def test_header_cache_bounded(self, small_acl_ruleset, small_trace):
        classifier = ConfigurableClassifier.from_ruleset(small_acl_ruleset)
        accelerator = FastPathAccelerator(classifier, header_cache_limit=8)
        baseline = classifier.classify_batch(small_trace)
        fast = accelerator.classify_batch(small_trace)
        assert list(fast.results) == list(baseline.results)
        assert accelerator.cache_stats()["header_entries"] <= 8

    def test_header_cache_evicts_lru_not_wholesale(self, small_acl_ruleset, small_trace):
        """The old limit behaviour cleared the whole cache; LRU keeps the hot set."""
        classifier = ConfigurableClassifier.from_ruleset(small_acl_ruleset)
        accelerator = FastPathAccelerator(classifier, header_cache_limit=8)
        distinct = []
        for packet in small_trace:
            if packet not in distinct:
                distinct.append(packet)
            if len(distinct) == 9:
                break
        accelerator.classify_batch(distinct[:8])
        accelerator.classify_batch([distinct[0]])  # refresh the oldest entry
        accelerator.classify_batch([distinct[8]])  # evicts distinct[1], not everything
        stats = accelerator.cache_stats()
        assert stats["header_entries"] == 8
        assert stats["header_evictions"] == 1
        assert distinct[0] in accelerator._header_cache
        assert distinct[1] not in accelerator._header_cache

    def test_invalid_header_limit(self, small_acl_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(small_acl_ruleset)
        with pytest.raises(ConfigurationError):
            FastPathAccelerator(classifier, header_cache_limit=0)

    def test_cache_stats_counters(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        classifier.classify_batch(small_trace)
        stats = classifier._fast_path.cache_stats()
        assert stats["field_misses"] > 0
        assert stats["field_hits"] > 0  # traces reuse field values constantly
        classifier.classify_batch(small_trace)
        assert classifier._fast_path.cache_stats()["header_hits"] >= len(small_trace)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_field_counts_follow_header_misses(self, small_acl_ruleset, small_trace, vectorized):
        """One field hit or miss per dimension per header miss, in both modes.

        A header repeated within its batch is one miss and then a hit, and
        ``field_results`` counts the walkers' interned results: the distinct
        results the values resolved to for a scalar walker, the distinct
        results of the flat rows for an array walker.
        """
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, vectorized=vectorized
        )
        accelerator = classifier._fast_path
        doubled = list(small_trace) + list(small_trace[:40])
        classifier.classify_batch(doubled)
        classifier.classify_batch(doubled)
        stats = accelerator.cache_stats()
        assert stats["header_misses"] == len(set(small_trace))
        assert stats["header_hits"] == 2 * len(doubled) - len(set(small_trace))
        assert stats["field_hits"] + stats["field_misses"] == 7 * stats["header_misses"]
        values = {
            name: {packet_dimension_values(packet)[name] for packet in small_trace}
            for name in DIMENSIONS
        }
        assert stats["field_misses"] == sum(map(len, values.values()))
        interned = 0
        for name, distinct in values.items():
            walker = accelerator._walkers[name]
            if isinstance(walker, ScalarBatchWalker):
                interned += len({classifier.engines[name].lookup(value) for value in distinct})
            else:
                interned += len({walker.result(field_id) for field_id in _row_ids(walker)})
        assert stats["field_results"] == interned


class TestParallelSession:
    def test_merged_stats_match_single_session(self, small_acl_ruleset, small_trace):
        single = ClassificationSession(
            create_classifier("configurable", small_acl_ruleset, fast=True), chunk_size=64
        ).run(small_trace)
        pool = ParallelSession.from_factory(
            ReplicaSpec("configurable", small_acl_ruleset, {"fast": True}),
            workers=3,
            chunk_size=64,
        )
        with pool:
            merged = pool.run(small_trace)
        assert merged.packets == single.packets
        assert merged.matched == single.matched
        assert merged.chunks == single.chunks
        assert merged.truncated_lookups == single.truncated_lookups
        assert merged.worst_memory_accesses == single.worst_memory_accesses
        assert merged.worst_latency_cycles == single.worst_latency_cycles
        # Both sides divide the same integer sums: the averages are identical.
        assert merged.average_memory_accesses == single.average_memory_accesses
        assert merged.average_latency_cycles == single.average_latency_cycles
        # Replicated structures: the deployment's memory is per-worker memory summed.
        assert merged.memory_bits == 3 * single.memory_bits
        assert merged.classifier == "configurablex3"

    def test_generator_input_and_reset(self, small_acl_ruleset, small_trace):
        pool = ParallelSession.from_factory(
            ReplicaSpec("configurable", small_acl_ruleset), workers=2
        )
        with pool:
            stats = pool.run(packet for packet in small_trace)
            assert stats.packets == len(small_trace)
            pool.reset()
            assert pool.stats().packets == 0

    def test_invalid_worker_counts(self, small_acl_ruleset):
        with pytest.raises(ConfigurationError):
            ParallelSession.from_factory(lambda: None, workers=0)
        with pytest.raises(ConfigurationError):
            ParallelSession([], workers=1)


def _counters(**fields) -> RunningCounters:
    """A :class:`RunningCounters` holding the given totals."""
    counters = RunningCounters()
    for name, value in fields.items():
        setattr(counters, name, value)
    return counters


class TestSessionStatsMerge:
    """Session statistics merge through the one fold: ``merge`` plus ``to_stats``."""

    def test_weighted_merge(self):
        a = _counters(
            packets=10, matched=8, chunks=1, truncated=1,
            access_sum=40, access_worst=9,
            latency_sum=100, latency_count=10, latency_worst=12,
        )
        b = _counters(
            packets=30, matched=15, chunks=2,
            access_sum=240, access_worst=7,
            latency_sum=600, latency_count=30, latency_worst=25,
        )
        a.merge(b)
        merged = a.to_stats("configurablex2", 200)
        assert merged.packets == 40
        assert merged.matched == 23
        assert merged.chunks == 3
        assert merged.average_memory_accesses == 7.0
        assert merged.worst_memory_accesses == 9
        assert merged.average_latency_cycles == 17.5
        assert merged.worst_latency_cycles == 25
        assert merged.memory_bits == 200
        assert merged.truncated_lookups == 1

    def test_latency_none_handling(self):
        a = _counters(packets=5, matched=1, chunks=1, access_sum=5, access_worst=1)
        a.merge(_counters(packets=5, matched=1, chunks=1, access_sum=5, access_worst=1))
        merged = a.to_stats("x", 2)
        assert merged.average_memory_accesses == 1.0
        assert merged.average_latency_cycles is None
        assert merged.worst_latency_cycles is None


class TestTruncationSignal:
    def test_truncated_flag_reaches_session_stats(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        # web_packet matches rules 0, 1, 3 and 4: the cross product has more
        # than one candidate combination, so a one-probe budget truncates.
        classifier.combiner.probe_budget = 1
        result = classifier.classify(web_packet)
        assert result.truncated
        assert result.detail.truncated
        session = ClassificationSession(classifier)
        stats = session.run([web_packet])
        assert stats.truncated_lookups == 1

    def test_fast_path_preserves_truncation(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        classifier.combiner.probe_budget = 1
        slow = classifier.classify_batch([web_packet, web_packet])
        classifier.enable_fast_path()
        fast = classifier.classify_batch([web_packet, web_packet])
        assert list(fast.results) == list(slow.results)
        assert fast.truncated_lookups == slow.truncated_lookups == 2

    # The one-probe walk over this rule set tries only (src 10/8, dst 2/8),
    # which holds no rule, so the packet's match is left to the scan.
    SCAN_PACKET = PacketHeader.from_strings("10.1.1.1", "2.2.2.2", 1000, 80, 6)
    SCAN_RULES = (
        Rule.build(0, 0, src="10.0.0.0/8", dst="1.0.0.0/8"),
        Rule.build(1, 1, src="11.0.0.0/8", dst="2.0.0.0/8"),
        Rule.build(2, 2, src="12.0.0.0/8"),
        Rule.build(5, 5),
    )

    def _scan_classifier(self, **options):
        classifier = create_classifier(
            "configurable", RuleSet(list(self.SCAN_RULES), name="scan"), **options
        )
        classifier.combiner.probe_budget = 1
        return classifier

    def test_truncated_lookup_stays_exact(self):
        classifier = self._scan_classifier()
        result = classifier.classify(self.SCAN_PACKET)
        assert result.truncated and result.rule_id == 5
        for vectorized in (False, True):
            classifier.enable_fast_path(vectorized=vectorized)
            assert classifier.classify_batch([self.SCAN_PACKET])[0] == result

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_scoped_commit_drops_scan_finished_outcome(self, vectorized):
        """A scoped commit reaches an outcome that a Rule Filter scan decided.

        The inserted rule reuses labels whose priorities it does not change,
        so the packet's label lists and the combiner key stay the same, and
        its key was never probed: only the scan's dependency on every slot
        drops the cached outcome.
        """
        classifier = self._scan_classifier(fast=True, vectorized=vectorized)
        before = classifier.classify_batch([self.SCAN_PACKET])[0]
        assert before.truncated and before.rule_id == 5
        classifier.control.begin().insert(Rule.build(3, 3, src="10.0.0.0/8")).commit()
        assert classifier._fast_path.cache_stats()["scoped_commits"] == 1
        after = classifier.classify_batch([self.SCAN_PACKET])[0]
        assert after.truncated and after.rule_id == 3
        classifier.disable_fast_path()
        assert classifier.classify_batch([self.SCAN_PACKET])[0] == after

    def test_untruncated_lookup_flag_false(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        result = classifier.classify(web_packet)
        assert not result.truncated
        assert ClassificationSession(classifier).run([web_packet]).truncated_lookups == 0
