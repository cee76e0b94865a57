"""Tests for the unified classification API (repro.api).

Covers the tentpole redesign: registry round-trips over every registered
engine, protocol conformance, batch/single-packet equivalence against the
linear-search ground truth, the fluent config builder, the streaming session
runner and the baseline factory path.
"""

from __future__ import annotations

import pytest

from repro.api import (
    BaselineAdapter,
    BatchResult,
    Classification,
    ClassificationSession,
    PacketClassifier,
    SessionStats,
    UnknownClassifierError,
    available_classifiers,
    classifier_description,
    create_classifier,
    register_classifier,
)
from repro.baselines.base import BaselineClassifier, ClassificationOutcome
from repro.baselines.linear_search import LinearSearchClassifier
from repro.core.config import ClassifierConfig, CombinerMode, IpAlgorithm
from repro.exceptions import ConfigurationError
from repro.rules.rule import Rule, RuleAction
from repro.rules.trace import generate_trace

#: Names the issue requires: the architecture plus the five Table I baselines.
REQUIRED_NAMES = ("configurable", "linear_search", "hypercuts", "rfc", "dcfl", "bitvector")


@pytest.fixture(scope="module")
def kilo_trace(small_acl_ruleset):
    """A 1000-packet trace over the shared small ACL rule set."""
    return generate_trace(small_acl_ruleset, count=1000, seed=99)


@pytest.fixture(scope="module")
def ground_truth(small_acl_ruleset, kilo_trace):
    """Linear-scan HPMR ids for every packet of the kilo trace."""
    return [
        match.rule_id if (match := small_acl_ruleset.highest_priority_match(p)) else None
        for p in kilo_trace
    ]


class TestRegistry:
    def test_required_names_registered(self):
        names = available_classifiers()
        for name in REQUIRED_NAMES:
            assert name in names

    def test_unknown_name_raises(self, small_acl_ruleset):
        with pytest.raises(UnknownClassifierError):
            create_classifier("tcam", small_acl_ruleset)

    def test_double_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_classifier("configurable")(lambda ruleset: None)

    def test_descriptions_available(self):
        for name in available_classifiers():
            assert isinstance(classifier_description(name), str)

    def test_baseline_options_forwarded(self, small_acl_ruleset):
        shallow = create_classifier("hypercuts", small_acl_ruleset, binth=64)
        deep = create_classifier("hypercuts", small_acl_ruleset, binth=4)
        assert deep.engine.node_count >= shallow.engine.node_count

    def test_configurable_options_forwarded(self, small_acl_ruleset):
        classifier = create_classifier(
            "configurable", small_acl_ruleset, ip_algorithm="bst", combiner="first_label"
        )
        assert classifier.config.ip_algorithm is IpAlgorithm.BST
        assert classifier.config.combiner_mode is CombinerMode.FIRST_LABEL

    def test_configurable_accepts_full_config(self, small_acl_ruleset):
        config = ClassifierConfig.builder().clock_mhz(200.0).build()
        classifier = create_classifier("configurable", small_acl_ruleset, config=config)
        assert classifier.config.clock_mhz == 200.0


@pytest.mark.parametrize("name", sorted(set(REQUIRED_NAMES) | {"efficuts", "option1", "option2"}))
class TestProtocolConformance:
    def test_round_trip(self, name, small_acl_ruleset, small_trace):
        classifier = create_classifier(name, small_acl_ruleset)
        assert isinstance(classifier, PacketClassifier)
        assert classifier.name == name
        stats = classifier.stats()
        assert stats.rules == len(small_acl_ruleset)
        assert classifier.memory_bits() > 0
        result = classifier.classify(small_trace[0])
        assert isinstance(result, Classification)
        assert result.memory_accesses > 0


@pytest.mark.parametrize("name", sorted(set(REQUIRED_NAMES) | {"efficuts", "option1", "option2"}))
def test_batch_equals_single_and_ground_truth(name, small_acl_ruleset, kilo_trace, ground_truth):
    """Acceptance: 1k-packet classify_batch == per-packet classify, == linear scan."""
    classifier = create_classifier(name, small_acl_ruleset)
    batch = classifier.classify_batch(kilo_trace)
    assert isinstance(batch, BatchResult)
    assert batch.packets == len(kilo_trace)
    singles = [classifier.classify(packet) for packet in kilo_trace]
    assert list(batch.results) == singles
    assert [result.rule_id for result in batch] == ground_truth


class TestUnifiedUpdates:
    """Install/remove through the protocol, on a ruleset with priority 0 free."""

    def _probe_rule(self):
        return Rule.build(
            9999, 0, src="10.0.0.0/8", dst="192.168.0.0/16", src_port="0:65535",
            dst_port="80:80", protocol=6, action=RuleAction.REDIRECT_GROUP,
        )

    def _base(self, handcrafted_ruleset):
        return handcrafted_ruleset.filter(lambda rule: rule.rule_id != 0, name="trimmed")

    def test_configurable_install_remove(self, handcrafted_ruleset, web_packet):
        classifier = create_classifier("configurable", self._base(handcrafted_ruleset))
        assert classifier.classify(web_packet).rule_id == 1
        classifier.install(self._probe_rule())
        assert classifier.classify(web_packet).rule_id == 9999
        classifier.remove(9999)
        assert classifier.classify(web_packet).rule_id == 1

    def test_baseline_install_remove_rebuilds(self, handcrafted_ruleset, web_packet):
        base = self._base(handcrafted_ruleset)
        classifier = create_classifier("linear_search", base)
        assert classifier.classify(web_packet).rule_id == 1
        classifier.install(self._probe_rule())
        assert classifier.classify(web_packet).rule_id == 9999
        assert classifier.stats().rules == len(base) + 1
        classifier.remove(9999)
        assert classifier.classify(web_packet).rule_id == 1

    def test_baseline_rebuild_preserves_options(self, small_acl_ruleset):
        classifier = create_classifier("hypercuts", small_acl_ruleset, binth=4)
        rules = small_acl_ruleset.rules()
        classifier.remove(rules[-1].rule_id)
        assert classifier.engine.binth == 4

    def test_direct_wrap_rebuild_preserves_options(self, small_acl_ruleset):
        """Constructor options are recorded even off the create() path."""
        from repro.baselines.hypercuts import HyperCutsClassifier

        adapter = BaselineAdapter(HyperCutsClassifier(small_acl_ruleset, binth=4))
        adapter.remove(small_acl_ruleset.rules()[-1].rule_id)
        assert adapter.engine.binth == 4


class TestConfigBuilder:
    def test_fluent_chain(self):
        config = (
            ClassifierConfig.builder()
            .ip_algorithm("bst")
            .combiner("first_label")
            .clock_mhz(150.0)
            .min_packet_bytes(64)
            .provisioning(rule_filter_entries=4096)
            .build()
        )
        assert config.ip_algorithm is IpAlgorithm.BST
        assert config.combiner_mode is CombinerMode.FIRST_LABEL
        assert config.clock_mhz == 150.0
        assert config.min_packet_bytes == 64
        assert config.provisioning.rule_filter_entries == 4096

    def test_accepts_enums(self):
        config = ClassifierConfig.builder().ip_algorithm(IpAlgorithm.BST).build()
        assert config.ip_algorithm is IpAlgorithm.BST

    def test_seeded_from_base(self):
        base = ClassifierConfig(clock_mhz=99.0)
        config = ClassifierConfig.builder(base).combiner("first_label").build()
        assert config.clock_mhz == 99.0
        assert config.combiner_mode is CombinerMode.FIRST_LABEL

    def test_invalid_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig.builder().ip_algorithm("tcam")
        with pytest.raises(ConfigurationError):
            ClassifierConfig.builder().combiner("serial")

    def test_invalid_values_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig.builder().mbt_strides((5, 5))
        with pytest.raises(ConfigurationError):
            ClassifierConfig.builder().clock_mhz(-1.0)


class TestClassificationSession:
    def test_chunked_stream_matches_batch(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("linear_search", small_acl_ruleset)
        session = ClassificationSession(classifier, chunk_size=16)
        stats = session.run(small_trace)
        assert isinstance(stats, SessionStats)
        batch = classifier.classify_batch(small_trace)
        assert stats.packets == batch.packets
        assert stats.chunks == (len(small_trace) + 15) // 16
        assert stats.hit_ratio == batch.hit_ratio
        assert stats.average_memory_accesses == batch.average_memory_accesses
        assert stats.memory_bits == classifier.memory_bits()

    def test_generator_input(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("configurable", small_acl_ruleset)
        session = ClassificationSession(classifier, chunk_size=32)
        stats = session.run(packet for packet in small_trace)
        assert stats.packets == len(small_trace)
        assert stats.average_latency_cycles is not None

    def test_feeds_accumulate_and_reset(self, small_acl_ruleset, small_trace):
        classifier = create_classifier("linear_search", small_acl_ruleset)
        session = ClassificationSession(classifier, chunk_size=64)
        session.feed(small_trace[:40])
        session.feed(small_trace[40:80])
        assert session.stats().packets == 80
        session.reset()
        assert session.stats().packets == 0

    def test_invalid_chunk_size(self, small_acl_ruleset):
        classifier = create_classifier("linear_search", small_acl_ruleset)
        with pytest.raises(ConfigurationError):
            ClassificationSession(classifier, chunk_size=0)


class TestBaselineFactoryPath:
    def test_init_no_longer_builds(self, handcrafted_ruleset):
        classifier = LinearSearchClassifier(handcrafted_ruleset)
        assert not classifier.built
        classifier.ensure_built()
        assert classifier.built

    def test_create_builds(self, handcrafted_ruleset):
        classifier = LinearSearchClassifier.create(handcrafted_ruleset)
        assert classifier.built

    def test_subclass_options_after_super_init(self, handcrafted_ruleset):
        """Regression: build() must not run before subclass attributes exist."""

        class LateOptionClassifier(BaselineClassifier):
            name = "LateOption"

            def __init__(self, ruleset, scale=2):
                super().__init__(ruleset)  # before setting options — now safe
                self.scale = scale

            def build(self):
                self._cost = self.scale * len(self.ruleset)

            def _match(self, packet):
                return ClassificationOutcome(rule=None, memory_accesses=self._cost)

            def _memory_bits(self):
                return self._cost

        classifier = LateOptionClassifier.create(handcrafted_ruleset, scale=3)
        assert classifier.memory_bits() == 3 * len(handcrafted_ruleset)

    def test_direct_construction_builds_lazily_on_use(self, handcrafted_ruleset, web_packet):
        """A directly constructed baseline must not crash on first use."""
        classifier = LinearSearchClassifier(handcrafted_ruleset)
        assert classifier.match_packet(web_packet).rule_id == 0
        assert LinearSearchClassifier(handcrafted_ruleset).memory_bits() > 0

    def test_adapter_over_custom_engine(self, handcrafted_ruleset, web_packet):
        adapter = BaselineAdapter(LinearSearchClassifier(handcrafted_ruleset))
        assert adapter.name == "LinearSearch"
        assert adapter.classify(web_packet).rule_id == 0


class TestClassificationRecord:
    def test_equality_ignores_detail(self):
        a = Classification(rule_id=1, priority=0, action="forward", memory_accesses=3, detail="x")
        b = Classification(rule_id=1, priority=0, action="forward", memory_accesses=3, detail="y")
        assert a == b

    def test_matched_property(self):
        miss = Classification(rule_id=None, priority=None, action=None, memory_accesses=1)
        assert not miss.matched
        hit = Classification(rule_id=7, priority=1, action="drop", memory_accesses=1)
        assert hit.matched

    def test_batch_aggregates(self):
        batch = BatchResult(
            (
                Classification(rule_id=1, priority=0, action="forward", memory_accesses=4,
                               latency_cycles=10),
                Classification(rule_id=None, priority=None, action=None, memory_accesses=8,
                               latency_cycles=20),
            )
        )
        assert batch.packets == 2
        assert batch.matched == 1
        assert batch.hit_ratio == 0.5
        assert batch.average_memory_accesses == 6.0
        assert batch.worst_memory_accesses == 8
        assert batch.average_latency_cycles == 15.0
        assert batch.worst_latency_cycles == 20
