"""Unit battery for the exact-match flow-cache tier (repro.perf.flowcache).

Covers the timeout policies (idle / hard / hybrid) on the packets-observed
virtual clock, capacity-pressure eviction with and without predictors,
surgical invalidation by control-plane commits, the wholesale epoch flush on
untracked mutations, the rule -> keys index behind it, prewarming, the
flow-churn trace generator, and the flow counters read from their owner
(FlowCache.stats / ParallelSession.flow_cache_stats) beside the cache_stats
ratios.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.control import Txn
from repro.api.registry import create_classifier
from repro.api.session import ClassificationSession
from repro.core.classifier import ConfigurableClassifier
from repro.exceptions import ConfigurationError, ExperimentError
from repro.perf.flowcache import (
    _PACKET,
    _RECORD,
    DEFAULT_FLOW_CAPACITY,
    FLOW_POLICIES,
    FlowCache,
    FrequencyPredictor,
    RecencyPredictor,
    resolve_predictor,
)
from repro.fields.prefix import Prefix
from repro.fields.range_utils import PortRange
from repro.perf.transport import HEADER_BYTES, pack_header, pack_headers
from repro.rules.rule import ProtocolMatch, Rule
from repro.rules.trace import generate_flow_churn_trace, generate_trace

pytestmark = pytest.mark.flowcache


def _flow_classifier(ruleset, **flow_options) -> ConfigurableClassifier:
    classifier = create_classifier("configurable", ruleset)
    classifier.enable_flow_cache(**flow_options)
    return classifier


# ---------------------------------------------------------------------------
# Construction & configuration
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_defaults(self):
        cache = FlowCache()
        assert cache.capacity == DEFAULT_FLOW_CAPACITY
        assert cache.policy == "idle"
        assert cache.predictor is None
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"capacity": -3},
            {"policy": "wall_clock"},
            {"idle_timeout": 0},
            {"hard_timeout": -1},
            {"idle_timeout": 100, "hard_timeout": 50},
            {"predictor": "oracle"},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FlowCache(**kwargs)

    def test_predictor_resolution(self):
        assert isinstance(resolve_predictor("frequency"), FrequencyPredictor)
        assert isinstance(resolve_predictor("recency"), RecencyPredictor)
        assert resolve_predictor(None) is None
        instance = FrequencyPredictor()
        assert resolve_predictor(instance) is instance

    def test_enable_flow_cache_rejects_instance_plus_options(self, handcrafted_ruleset):
        classifier = create_classifier("configurable", handcrafted_ruleset)
        with pytest.raises(ConfigurationError):
            classifier.enable_flow_cache(FlowCache(), capacity=8)

    def test_enable_fast_path_flow_cache_shorthand(self, handcrafted_ruleset):
        classifier = create_classifier("configurable", handcrafted_ruleset)
        classifier.enable_fast_path(vectorized=True, flow_cache=True)
        assert classifier.flow_cache is not None
        custom = FlowCache(capacity=32, policy="hard", idle_timeout=8, hard_timeout=8)
        classifier.enable_fast_path(vectorized=True, flow_cache=custom)
        assert classifier.flow_cache is custom
        classifier.disable_flow_cache()
        assert classifier.flow_cache is None

    def test_stats_details_expose_flow_cache(self, handcrafted_ruleset):
        classifier = _flow_classifier(handcrafted_ruleset, policy="hybrid")
        details = classifier.stats().details
        assert details["flow_cache"] is True
        assert details["flow_cache_policy"] == "hybrid"
        classifier.disable_flow_cache()
        assert classifier.stats().details["flow_cache"] is False

    def test_factory_flow_knobs(self, handcrafted_ruleset):
        classifier = create_classifier(
            "configurable",
            handcrafted_ruleset,
            flow_cache=True,
            flow_policy="hybrid",
            flow_capacity=16,
            flow_predictor="recency",
            flow_idle_timeout=4,
            flow_hard_timeout=64,
        )
        cache = classifier.flow_cache
        assert cache.policy == "hybrid"
        assert cache.capacity == 16
        assert isinstance(cache.predictor, RecencyPredictor)
        assert cache.idle_timeout == 4
        assert cache.hard_timeout == 64


# ---------------------------------------------------------------------------
# Timeout policies on the virtual clock
# ---------------------------------------------------------------------------


class TestTimeoutPolicies:
    def test_idle_timeout_expires_quiet_flow(
        self, handcrafted_ruleset, web_packet, dns_packet
    ):
        classifier = _flow_classifier(
            handcrafted_ruleset, policy="idle", idle_timeout=5, hard_timeout=100
        )
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet])
        # Six dns packets push the clock 6 ticks past web's last hit.
        classifier.classify_batch([dns_packet] * 6)
        result = classifier.classify_batch([web_packet])
        assert cache.timeout_evictions == 1
        assert cache.misses == 3  # web, dns, web-after-expiry
        assert result[0].rule_id == 0

    def test_idle_timeout_hot_flow_lives_forever(self, handcrafted_ruleset, web_packet):
        classifier = _flow_classifier(
            handcrafted_ruleset, policy="idle", idle_timeout=3, hard_timeout=100
        )
        cache = classifier.flow_cache
        for _ in range(20):
            classifier.classify_batch([web_packet])
        assert cache.timeout_evictions == 0
        assert cache.misses == 1
        assert cache.hits == 19

    def test_hard_timeout_expires_hot_flow(self, handcrafted_ruleset, web_packet):
        classifier = _flow_classifier(
            handcrafted_ruleset, policy="hard", idle_timeout=6, hard_timeout=6
        )
        cache = classifier.flow_cache
        # The flow is hit on every tick, yet dies 6 ticks after installation.
        classifier.classify_batch([web_packet] * 20)
        assert cache.timeout_evictions >= 2
        assert cache.misses >= 3

    def test_hybrid_budget_growth_earns_residency(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        classifier = _flow_classifier(
            handcrafted_ruleset, policy="hybrid", idle_timeout=2, hard_timeout=64
        )
        cache = classifier.flow_cache
        # web earns budget 2 -> 4 -> 8 over two hits; dns stays at 2.
        classifier.classify_batch([web_packet, web_packet, web_packet, dns_packet])
        # A 5-tick gap of unrelated traffic: within web's earned budget (8),
        # beyond dns's untouched budget (2).
        classifier.classify_batch([miss_packet] * 5)
        classifier.classify_batch([web_packet, dns_packet])
        # 2 in-batch web hits + 4 in-batch miss repeats + web surviving the gap
        assert cache.hits == 7
        assert cache.timeout_evictions == 1  # dns idled out
        assert cache.misses == 4  # web, dns, miss, dns-after-expiry

    def test_hybrid_budget_capped_at_hard_timeout(self, handcrafted_ruleset, web_packet):
        classifier = _flow_classifier(
            handcrafted_ruleset, policy="hybrid", idle_timeout=4, hard_timeout=16
        )
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet] * 10)
        entry = next(iter(cache._entries.values()))
        assert entry[5] == 16  # budget doubled up to, and clamped at, the cap

    def test_explicit_expire_sweep(self, handcrafted_ruleset, web_packet, dns_packet):
        classifier = _flow_classifier(
            handcrafted_ruleset, policy="idle", idle_timeout=3, hard_timeout=100
        )
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet])
        classifier.classify_batch([dns_packet] * 5)
        assert len(cache) == 2
        dead = cache.expire()
        assert dead == 1  # web idled out; dns is still fresh
        assert len(cache) == 1
        assert cache.timeout_evictions == 1


# ---------------------------------------------------------------------------
# Capacity pressure & predictors
# ---------------------------------------------------------------------------


class TestCapacityPressure:
    def test_lru_eviction_under_pressure(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        classifier = _flow_classifier(handcrafted_ruleset, capacity=2)
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, dns_packet, miss_packet])
        assert len(cache) == 2
        assert cache.capacity_evictions == 1
        # web was the least recently used of the three: it went first.
        classifier.classify_batch([miss_packet, dns_packet])
        assert cache.hits == 2
        classifier.classify_batch([web_packet])
        assert cache.misses == 4  # web, dns, miss + web again after eviction

    def test_frequency_predictor_keeps_hot_flow(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        classifier = _flow_classifier(
            handcrafted_ruleset, capacity=2, predictor="frequency"
        )
        cache = classifier.flow_cache
        # web is hot (2 hits) but least recent; dns is cold but fresher.
        classifier.classify_batch([web_packet, web_packet, web_packet, dns_packet])
        classifier.classify_batch([miss_packet])
        assert cache.capacity_evictions == 1
        before = cache.hits
        classifier.classify_batch([web_packet])  # survived: hit
        assert cache.hits == before + 1
        classifier.classify_batch([dns_packet])  # evicted: miss
        assert cache.misses == 4

    def test_recency_predictor_reproduces_lru(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        classifier = _flow_classifier(
            handcrafted_ruleset, capacity=2, predictor="recency"
        )
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, web_packet, web_packet, dns_packet])
        classifier.classify_batch([miss_packet])
        before = cache.misses
        classifier.classify_batch([web_packet])  # LRU victim despite its hits
        assert cache.misses == before + 1

    def test_capacity_sweep_prefers_expired_entries(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        classifier = _flow_classifier(
            handcrafted_ruleset, capacity=2, policy="idle", idle_timeout=2, hard_timeout=50
        )
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet])
        classifier.classify_batch([dns_packet, dns_packet, dns_packet])
        # web has idled out; installing a third flow reclaims it as a
        # timeout eviction, not a capacity eviction of a live entry.
        classifier.classify_batch([miss_packet])
        assert cache.timeout_evictions == 1
        assert cache.capacity_evictions == 0

    def test_stats_shape(self, handcrafted_ruleset, web_packet):
        classifier = _flow_classifier(handcrafted_ruleset, policy="hybrid")
        classifier.classify_batch([web_packet, web_packet])
        stats = classifier.flow_cache.stats()
        assert stats["policy"] == "hybrid"
        assert stats["lookups"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["evictions"] == 0
        assert stats["entries"] == 1


# ---------------------------------------------------------------------------
# Invalidation: surgical on commit, wholesale on untracked mutations
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_commit_remove_drops_only_decided_entries(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        classifier = _flow_classifier(handcrafted_ruleset)
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, dns_packet, miss_packet])
        assert len(cache) == 3
        # Rule 2 decided the dns entry; web (rule 0) and miss (rule 4) stay.
        classifier.control.apply_delta(Txn().remove(2).delta())
        assert len(cache) == 2
        assert cache.surgical_drops == 1
        assert cache.invalidations == 0
        before = cache.hits
        result = classifier.classify_batch([web_packet, dns_packet])
        assert cache.hits == before + 1  # web still resident
        assert result[1].rule_id == 4  # dns re-resolved to the catch-all

    def test_commit_insert_drops_matching_entries(
        self, handcrafted_ruleset, web_packet, dns_packet, miss_packet
    ):
        from repro.rules.rule import Rule, RuleAction

        classifier = _flow_classifier(handcrafted_ruleset)
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, dns_packet, miss_packet])
        # A new top-priority rule covering exactly the miss flow.
        new_rule = Rule.build(
            10, 0, src="172.16.0.1/32", dst="8.8.8.8/32", src_port="1234:1234",
            dst_port="4444:4444", protocol=17, action=RuleAction.FORWARD,
        )
        classifier.control.apply_delta(Txn().insert(new_rule).delta())
        assert cache.surgical_drops == 1
        assert cache.invalidations == 0
        assert len(cache) == 2
        result = classifier.classify_batch([miss_packet, web_packet])
        assert result[0].rule_id == 10  # re-resolved through the new rule
        assert result[1].rule_id == 0  # untouched entry replayed

    def test_commit_reconfigure_flushes_wholesale(
        self, handcrafted_ruleset, web_packet, dns_packet
    ):
        classifier = _flow_classifier(handcrafted_ruleset)
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, dns_packet])
        classifier.control.apply_delta(Txn().reconfigure(ip_algorithm="bst").delta())
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.surgical_drops == 0
        # Post-flush decisions match a never-cached reference.
        reference = create_classifier("configurable", handcrafted_ruleset, ip_algorithm="bst")
        assert list(classifier.classify_batch([web_packet, dns_packet])) == list(
            reference.classify_batch([web_packet, dns_packet])
        )

    def test_first_label_commit_flushes_wholesale(
        self, handcrafted_ruleset, web_packet, dns_packet
    ):
        # Under the approximate first_label combiner an unrelated rule can
        # change probe order for untouched flows, so surgical keeps are off.
        classifier = create_classifier(
            "configurable", handcrafted_ruleset, combiner="first_label"
        )
        classifier.enable_flow_cache()
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, dns_packet])
        classifier.control.apply_delta(Txn().remove(2).delta())
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.surgical_drops == 0

    def test_untracked_install_flushes_via_epochs(
        self, handcrafted_ruleset, web_packet, miss_packet
    ):
        from repro.rules.rule import Rule, RuleAction

        classifier = _flow_classifier(handcrafted_ruleset)
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet, miss_packet])
        assert len(cache) == 2
        # Direct engine mutation, bypassing the control plane: the epoch
        # safety net must flush everything at the next batch.
        classifier.install_rule(
            Rule.build(
                11, 0, src="172.16.0.1/32", dst="8.8.8.8/32", src_port="1234:1234",
                dst_port="4444:4444", protocol=17, action=RuleAction.FORWARD,
            )
        )
        result = classifier.classify_batch([miss_packet, web_packet])
        assert cache.invalidations == 1
        assert result[0].rule_id == 11
        assert result[1].rule_id == 0

    def test_set_combiner_mode_flushes(self, handcrafted_ruleset, web_packet):
        from repro.core.config import CombinerMode

        classifier = _flow_classifier(handcrafted_ruleset)
        cache = classifier.flow_cache
        classifier.classify_batch([web_packet])
        classifier.set_combiner_mode(CombinerMode.FIRST_LABEL)
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_commit_equivalence_on_generated_workload(self, small_acl_ruleset):
        """A mid-trace commit keeps the cached path equal to an uncached one."""
        trace = generate_flow_churn_trace(
            small_acl_ruleset, count=400, seed=11, flows=32, churn=0.05
        )
        cached = create_classifier(
            "configurable", small_acl_ruleset, vectorized=True,
            flow_cache=True, flow_capacity=64,
        )
        reference = create_classifier("configurable", small_acl_ruleset)
        first = cached.classify_batch(trace[:200])
        assert list(first) == list(reference.classify_batch(trace[:200]))
        victims = sorted({r.rule_id for r in first if r.rule_id is not None})[:2]
        delta = Txn().remove(victims[0]).remove(victims[1]).delta()
        cached.control.apply_delta(delta)
        reference.control.apply_delta(delta)
        cached_out = cached.classify_batch(trace[200:])
        reference_out = reference.classify_batch(trace[200:])
        assert [r.rule_id for r in cached_out] == [r.rule_id for r in reference_out]
        assert cached.flow_cache.surgical_drops > 0 or cached.flow_cache.invalidations > 0


@st.composite
def _rules_near(draw, packets):
    """Random rules, each field drawn around a resident flow or at random."""
    anchor = draw(st.sampled_from(packets))

    def prefix(point):
        value = point if draw(st.booleans()) else draw(st.integers(0, (1 << 32) - 1))
        return Prefix(value, draw(st.integers(0, 32)))

    def ports(point):
        low = draw(st.integers(0, point))
        return PortRange(low, draw(st.integers(max(low, point - 1), 0xFFFF)))

    protocol = draw(
        st.sampled_from(
            [ProtocolMatch.any(), ProtocolMatch.exact(anchor.protocol), ProtocolMatch.exact(17)]
        )
    )
    return Rule(
        rule_id=10_000,
        priority=0,
        src_prefix=prefix(anchor.src_ip),
        dst_prefix=prefix(anchor.dst_ip),
        src_port=ports(anchor.src_port),
        dst_port=ports(anchor.dst_port),
        protocol=protocol,
    )


class TestInsertScan:
    """The insert-commit victim scan over packed keys against ``Rule.matches``."""

    @pytest.fixture(scope="class")
    def resident(self, small_acl_ruleset):
        classifier = _flow_classifier(small_acl_ruleset)
        packets = generate_trace(small_acl_ruleset, count=400, seed=91)
        classifier.classify_batch(packets)
        return classifier.flow_cache, packets

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_victims_equal_rule_matches(self, resident, data):
        cache, packets = resident
        rule = data.draw(_rules_near(packets))
        expected = [
            key for key, entry in cache._entries.items() if rule.matches(entry[_PACKET])
        ]
        assert cache._matching_keys(rule) == expected


class TestByRuleIndex:
    """``_by_rule`` stays exactly the rule -> resident keys index of ``_entries``."""

    @staticmethod
    def _check(cache):
        rebuilt = {}
        for key, entry in cache._entries.items():
            rebuilt.setdefault(entry[_RECORD].rule_id, set()).add(key)
        assert cache._by_rule == rebuilt
        assert sum(map(len, cache._by_rule.values())) == len(cache)

    @pytest.mark.parametrize("policy", FLOW_POLICIES)
    @pytest.mark.parametrize("stream", ["unique", "zipf"])
    def test_index_follows_every_change(self, small_acl_ruleset, policy, stream):
        """Checked after every serve, ``expire()``, commit and ``invalidate()``.

        A capacity of 48 evicts on both streams (a 64-packet batch of new
        flows overflows it alone, so evictions interleave with one batch's
        installs), and the zipf stream's flows also time out.  The commits
        remove and re-insert the rule deciding the most resident flows.
        """
        if stream == "unique":
            trace = list(dict.fromkeys(
                generate_trace(small_acl_ruleset, count=2400, seed=17, locality=0.0)
            ))
        else:
            trace = generate_flow_churn_trace(
                small_acl_ruleset, count=2400, seed=17, flows=400, churn=0.05
            )
        classifier = _flow_classifier(
            small_acl_ruleset, capacity=48, policy=policy, idle_timeout=128, hard_timeout=192
        )
        cache = classifier.flow_cache
        removed = None
        start = 0
        for step, size in enumerate([8, 64, 24] * 100):
            batch = trace[start:start + size]
            if not batch:
                break
            start += size
            classifier.classify_batch(batch)
            self._check(cache)
            if step % 3 == 1:
                cache.expire()
                self._check(cache)
            if step % 4 == 2:
                txn = classifier.control.begin()
                if removed is None:
                    decided = [rule for rule in cache._by_rule if rule is not None]
                    if not decided:
                        continue
                    victim = max(decided, key=lambda rule: (len(cache._by_rule[rule]), rule))
                    removed = classifier.update_engine.rules[victim]
                    txn.remove(victim)
                else:
                    txn.insert(removed)
                    removed = None
                txn.commit()
                self._check(cache)
            if step % 10 == 9:
                cache.invalidate()
                self._check(cache)
        stats = cache.stats()
        assert stats["capacity_evictions"] > 0
        if stream == "zipf":  # never-repeating flows are evicted before they idle out
            assert stats["timeout_evictions"] > 0
        assert stats["surgical_drops"] > 0


# ---------------------------------------------------------------------------
# Prewarm
# ---------------------------------------------------------------------------


class TestPrewarm:
    def test_prewarm_installs_without_serving_stats(self, small_acl_ruleset):
        trace = generate_flow_churn_trace(small_acl_ruleset, count=300, seed=5, flows=24)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, vectorized=True, flow_cache=True
        )
        cache = classifier.flow_cache
        installed = cache.prewarm(trace, classifier._classify_batch_uncached)
        assert installed == len({p for p in trace})
        assert cache.lookups == 0 and cache.hits == 0 and cache.misses == 0
        assert cache.insertions == installed
        result = classifier.classify_batch(trace)
        assert cache.hits == len(trace)  # every flow already resident
        reference = create_classifier("configurable", small_acl_ruleset)
        assert list(result) == list(reference.classify_batch(trace))

    def test_prewarm_is_idempotent(self, small_acl_ruleset):
        trace = generate_flow_churn_trace(small_acl_ruleset, count=100, seed=5, flows=16)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, flow_cache=True
        )
        cache = classifier.flow_cache
        first = cache.prewarm(trace, classifier._classify_batch_uncached)
        assert first > 0
        assert cache.prewarm(trace, classifier._classify_batch_uncached) == 0


# ---------------------------------------------------------------------------
# Stats plumbing: flow counters read from their owner, cache_stats ratios
# ---------------------------------------------------------------------------


class TestStatsPlumbing:
    def test_session_stats_flow_fields(self, small_acl_ruleset):
        """A session's flow counters are read from the cache that owns them."""
        trace = generate_flow_churn_trace(small_acl_ruleset, count=300, seed=9, flows=20)
        classifier = create_classifier(
            "configurable", small_acl_ruleset, fast=True, flow_cache=True
        )
        stats = ClassificationSession(classifier).run(trace)
        flow = classifier.flow_cache.stats()
        assert stats.packets == flow["lookups"] == len(trace)
        assert 0.0 < flow["hit_rate"] <= 1.0
        assert flow["hits"] == classifier.flow_cache.hits
        assert flow["hits"] + flow["misses"] == flow["lookups"]
        assert not hasattr(stats, "flow_lookups")

    def test_session_stats_flow_fields_default_zero(self, small_acl_ruleset, small_trace):
        """Without a flow cache there are no flow counters to read."""
        classifier = create_classifier("configurable", small_acl_ruleset)
        stats = ClassificationSession(classifier).run(small_trace)
        assert classifier.flow_cache is None
        assert stats.packets == len(small_trace)

    def test_parallel_session_merged_flow_stats(self, small_acl_ruleset):
        from repro.perf import ParallelSession, ReplicaSpec

        trace = generate_flow_churn_trace(small_acl_ruleset, count=240, seed=3, flows=16)
        spec = ReplicaSpec(
            "configurable", small_acl_ruleset,
            {"fast": True, "flow_cache": True, "flow_capacity": 64},
        )
        with ParallelSession.from_factory(spec, 2, chunk_size=32) as session:
            session.run(trace)
            merged = session.flow_cache_stats()
            assert merged is not None
            assert merged["replicas"] == 2
            assert merged["lookups"] == len(trace)
            assert 0.0 < merged["hit_rate"] <= 1.0
            assert merged["hit_rate"] == merged["hits"] / merged["lookups"]
            assert merged["hits"] + merged["misses"] == merged["lookups"]
            assert session.stats().packets == merged["lookups"]

    def test_parallel_session_without_flow_cache_reports_none(self, small_acl_ruleset):
        from repro.perf import ParallelSession, ReplicaSpec

        spec = ReplicaSpec("configurable", small_acl_ruleset, {"fast": True})
        with ParallelSession.from_factory(spec, 2) as session:
            assert session.flow_cache_stats() is None

    def test_cache_stats_derived_hit_rates(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        classifier.classify_batch(small_trace)
        classifier.classify_batch(small_trace)
        stats = classifier._fast_path.cache_stats()
        for layer in ("header", "field", "combiner", "result"):
            rate = stats[f"{layer}_hit_rate"]
            hits = stats[f"{layer}_hits"]
            misses = stats[f"{layer}_misses"]
            assert 0.0 <= rate <= 1.0
            assert rate == (hits / (hits + misses) if hits + misses else 0.0)
        # The second pass re-served every header from the header cache.
        assert stats["header_hit_rate"] >= 0.5


# ---------------------------------------------------------------------------
# Flow-churn trace generator
# ---------------------------------------------------------------------------


class TestFlowChurnGenerator:
    def test_deterministic_given_seed(self, small_acl_ruleset):
        a = generate_flow_churn_trace(small_acl_ruleset, count=200, seed=42, churn=0.1)
        b = generate_flow_churn_trace(small_acl_ruleset, count=200, seed=42, churn=0.1)
        c = generate_flow_churn_trace(small_acl_ruleset, count=200, seed=43, churn=0.1)
        assert a == b
        assert a != c

    def test_flow_population_bound_without_churn(self, small_acl_ruleset):
        trace = generate_flow_churn_trace(
            small_acl_ruleset, count=500, seed=1, flows=12, churn=0.0
        )
        assert len(set(trace)) <= 12

    def test_churn_introduces_fresh_flows(self, small_acl_ruleset):
        quiet = generate_flow_churn_trace(
            small_acl_ruleset, count=500, seed=1, flows=12, churn=0.0
        )
        churned = generate_flow_churn_trace(
            small_acl_ruleset, count=500, seed=1, flows=12, churn=0.2
        )
        assert len(set(churned)) > len(set(quiet))

    def test_zipf_skews_toward_head_flows(self, small_acl_ruleset):
        from collections import Counter

        zipf = generate_flow_churn_trace(
            small_acl_ruleset, count=2000, seed=2, flows=50, popularity="zipf"
        )
        uniform = generate_flow_churn_trace(
            small_acl_ruleset, count=2000, seed=2, flows=50, popularity="uniform"
        )
        zipf_top = Counter(zipf).most_common(1)[0][1]
        uniform_top = Counter(uniform).most_common(1)[0][1]
        # Rank-1 under Zipf(1.2) carries a large constant share; under
        # uniform it hovers near count/flows.  A 2x gap is a safe oracle.
        assert zipf_top > 2 * uniform_top

    def test_hit_ratio_bias(self, small_acl_ruleset):
        from repro.rules.trace import trace_stats

        trace = generate_flow_churn_trace(
            small_acl_ruleset, count=400, seed=3, flows=40, hit_ratio=1.0
        )
        assert trace_stats(small_acl_ruleset, trace).hit_ratio == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": -1},
            {"flows": 0},
            {"popularity": "pareto"},
            {"zipf_exponent": 0.0},
            {"churn": 1.0},
            {"hit_ratio": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, small_acl_ruleset, kwargs):
        options = {"count": 10}
        options.update(kwargs)
        with pytest.raises(ExperimentError):
            generate_flow_churn_trace(small_acl_ruleset, **options)


# ---------------------------------------------------------------------------
# Packed-key codec helper
# ---------------------------------------------------------------------------


class TestPackHeader:
    def test_single_header_matches_batch_codec(self, web_packet, dns_packet):
        assert pack_header(web_packet) == pack_headers([web_packet])
        assert len(pack_header(dns_packet)) == HEADER_BYTES
        assert pack_header(web_packet) != pack_header(dns_packet)
