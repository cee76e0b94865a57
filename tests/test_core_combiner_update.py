"""Unit tests for the label combiner and the incremental update engine."""

from __future__ import annotations

import pytest

from repro.core.classifier import ConfigurableClassifier
from repro.core.config import ClassifierConfig, CombinerMode, IpAlgorithm
from repro.core.dimensions import DIMENSIONS, rule_dimension_specs
from repro.core.label_combiner import LabelCombiner
from repro.core.update_engine import HASH_CYCLES, RULE_UPLOAD_CYCLES
from repro.exceptions import ConfigurationError, UpdateError
from repro.hardware.hash_unit import LabelKeyLayout
from repro.hardware.rule_filter import RuleFilterMemory
from repro.rules.rule import Rule


def _matches(**labels):
    """Build a full per-dimension match mapping with defaults of one label."""
    base = {name: ((0, 0),) for name in DIMENSIONS}
    base.update(labels)
    return base


class TestLabelCombiner:
    def make_combiner(self, mode=CombinerMode.CROSS_PRODUCT, probe_budget=4096):
        layout = LabelKeyLayout()
        rule_filter = RuleFilterMemory(capacity=64)
        return LabelCombiner(rule_filter, layout, mode=mode, probe_budget=probe_budget), layout, rule_filter

    def test_missing_dimension_rejected(self):
        combiner, _, _ = self.make_combiner()
        with pytest.raises(ConfigurationError):
            combiner.combine({"src_ip_hi": ((0, 0),)})

    def test_empty_field_list_is_a_miss(self):
        combiner, _, _ = self.make_combiner()
        outcome = combiner.combine(_matches(protocol=()))
        assert outcome.entry is None
        assert outcome.probes == 0

    def test_cross_product_finds_best_priority(self):
        combiner, layout, rule_filter = self.make_combiner()
        # Two rules share every label except dst_port.
        key_a = layout.pack((1, 0, 0, 0, 0, 5, 0))
        key_b = layout.pack((1, 0, 0, 0, 0, 6, 0))
        rule_filter.insert(key_a, Rule.build(10, 10))
        rule_filter.insert(key_b, Rule.build(3, 3))
        outcome = combiner.combine(
            _matches(src_ip_hi=((1, 3),), dst_port=((5, 10), (6, 3)))
        )
        assert outcome.entry is not None and outcome.entry.rule_id == 3
        assert outcome.probes >= 1

    def test_cross_product_prunes_with_priority_bound(self):
        combiner, layout, rule_filter = self.make_combiner()
        best_key = layout.pack((1, 0, 0, 0, 0, 0, 0))
        rule_filter.insert(best_key, Rule.build(0, 0))
        # Many worse-priority candidate labels on dst_port: once the priority-0
        # rule is found, combinations whose bound is >= 0 are skipped.
        matches = _matches(
            src_ip_hi=((1, 0),),
            dst_port=tuple((label, label) for label in range(0, 30)),
        )
        outcome = combiner.combine(matches)
        assert outcome.entry.rule_id == 0
        assert outcome.probes < 30

    def test_probe_budget_caps_work(self):
        combiner, _, _ = self.make_combiner(probe_budget=5)
        matches = _matches(dst_port=tuple((label, 10 + label) for label in range(50)))
        outcome = combiner.combine(matches)
        assert outcome.probes <= 5

    def test_probe_budget_truncation_is_flagged(self):
        combiner, _, _ = self.make_combiner(probe_budget=5)
        matches = _matches(dst_port=tuple((label, 10 + label) for label in range(50)))
        outcome = combiner.combine(matches)
        assert outcome.truncated

    def test_truncated_walk_finishes_with_a_filter_scan(self):
        # The only stored rule sits past the budget: the walk misses it, the
        # scan of every Rule Filter slot finds it, and its reads are charged.
        combiner, layout, rule_filter = self.make_combiner(probe_budget=5)
        rule_filter.insert(layout.pack((0, 0, 0, 0, 0, 40, 0)), Rule.build(50, 50))
        matches = _matches(dst_port=tuple((label, 10 + label) for label in range(50)))
        outcome = combiner.combine(matches)
        assert outcome.truncated
        assert outcome.probes == 5
        assert outcome.entry is not None and outcome.entry.rule_id == 50
        depth = rule_filter.memory.depth
        assert outcome.memory_accesses == 5 + depth
        assert outcome.cycles == 1 + 5 + depth

    def test_prunable_tail_after_budget_not_flagged(self):
        # The budget is hit after three probes, but every remaining
        # combination is pruned by the priority bound of the found rule:
        # the result is provably exact, so no truncation warning.
        combiner, layout, rule_filter = self.make_combiner(probe_budget=3)
        rule_filter.insert(layout.pack((0, 0, 0, 0, 0, 10, 0)), Rule.build(3, 3))
        matches = _matches(
            dst_port=((10, 0), (11, 1), (12, 2), (13, 10), (14, 11), (15, 12))
        )
        outcome = combiner.combine(matches)
        assert outcome.probes == 3
        assert outcome.entry.rule_id == 3
        assert not outcome.truncated

    def test_candidate_tail_after_budget_is_flagged(self):
        # Same walk, but one unvisited combination could still beat the best
        # entry found: that is a real truncation.
        combiner, layout, rule_filter = self.make_combiner(probe_budget=3)
        rule_filter.insert(layout.pack((0, 0, 0, 0, 0, 10, 0)), Rule.build(5, 5))
        matches = _matches(
            dst_port=((10, 0), (11, 1), (12, 2), (13, 4), (14, 11), (15, 12))
        )
        outcome = combiner.combine(matches)
        assert outcome.probes == 3
        assert outcome.truncated

    def test_exact_budget_exhaustion_not_flagged(self):
        # Three combinations, budget of exactly three: every combination is
        # probed, so the outcome is exact and must not carry the warning.
        combiner, _, _ = self.make_combiner(probe_budget=3)
        matches = _matches(dst_port=tuple((label, 10 + label) for label in range(3)))
        outcome = combiner.combine(matches)
        assert outcome.probes == 3
        assert not outcome.truncated

    def test_untruncated_walk_not_flagged(self):
        combiner, layout, rule_filter = self.make_combiner()
        rule_filter.insert(layout.pack((1, 0, 0, 0, 0, 0, 0)), Rule.build(1, 1))
        outcome = combiner.combine(_matches(src_ip_hi=((1, 1),)))
        assert not outcome.truncated

    def test_first_label_single_probe(self):
        combiner, layout, rule_filter = self.make_combiner(mode=CombinerMode.FIRST_LABEL)
        key = layout.pack((2, 0, 0, 0, 0, 0, 0))
        rule_filter.insert(key, Rule.build(1, 1))
        outcome = combiner.combine(_matches(src_ip_hi=((2, 1), (3, 2))))
        assert outcome.probes == 1
        assert outcome.entry.rule_id == 1

    def test_first_label_can_miss_real_match(self):
        combiner, layout, rule_filter = self.make_combiner(mode=CombinerMode.FIRST_LABEL)
        # The stored rule uses the SECOND-best src label, so the fast path misses.
        key = layout.pack((3, 0, 0, 0, 0, 0, 0))
        rule_filter.insert(key, Rule.build(1, 1))
        outcome = combiner.combine(_matches(src_ip_hi=((2, 1), (3, 2))))
        assert outcome.entry is None

    def test_invalid_probe_budget(self):
        with pytest.raises(ConfigurationError):
            self.make_combiner(probe_budget=0)


class TestUpdateEngine:
    def make_classifier(self, **kwargs):
        return ConfigurableClassifier(ClassifierConfig(**kwargs))

    def test_insert_returns_per_dimension_labels(self, handcrafted_ruleset):
        classifier = self.make_classifier()
        result = classifier.install_rule(handcrafted_ruleset.get(0))
        assert set(result.labels) == set(DIMENSIONS)
        assert result.operation == "insert"
        assert all(created for _, created in result.labels.values())
        assert result.structural

    def test_second_rule_reuses_labels(self, handcrafted_ruleset):
        classifier = self.make_classifier()
        classifier.install_rule(handcrafted_ruleset.get(0))
        result = classifier.install_rule(handcrafted_ruleset.get(1))
        # Rule 1 shares src prefix, dst prefix, src port and protocol with rule 0.
        assert not result.labels["src_ip_hi"][1]
        assert not result.labels["protocol"][1]
        assert result.labels["dst_port"][1]  # 0:1023 is a new port value

    def test_fixed_upload_cost_constants(self):
        assert RULE_UPLOAD_CYCLES == 2
        assert HASH_CYCLES == 1

    def test_insert_cycles_include_upload_and_hash(self, handcrafted_ruleset):
        classifier = self.make_classifier()
        result = classifier.install_rule(handcrafted_ruleset.get(0))
        assert result.cycles.phases["rule_upload"] == RULE_UPLOAD_CYCLES
        assert result.cycles.phases["hash"] == HASH_CYCLES

    def test_duplicate_insert_rejected(self, handcrafted_ruleset):
        classifier = self.make_classifier()
        classifier.install_rule(handcrafted_ruleset.get(0))
        with pytest.raises(UpdateError):
            classifier.install_rule(handcrafted_ruleset.get(0))

    def test_delete_unknown_rejected(self):
        with pytest.raises(UpdateError):
            self.make_classifier().remove_rule(5)

    def test_delete_releases_labels_only_at_zero(self, handcrafted_ruleset):
        classifier = self.make_classifier()
        classifier.install_rule(handcrafted_ruleset.get(0))
        classifier.install_rule(handcrafted_ruleset.get(1))
        first = classifier.remove_rule(0)
        # src prefix 10.0.0.0/8 is still used by rule 1: counter-only delete.
        assert not first.labels["src_ip_hi"][1]
        second = classifier.remove_rule(1)
        # now the label disappears for good
        assert second.labels["src_ip_hi"][1]

    def test_delete_then_lookup_matches_reference(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        classifier.remove_rule(0)
        result = classifier.classify(web_packet)
        remaining = handcrafted_ruleset.filter(lambda rule: rule.rule_id != 0)
        assert result.rule_id == remaining.highest_priority_match(web_packet).rule_id

    def test_reinsert_after_delete(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        rule = handcrafted_ruleset.get(0)
        classifier.remove_rule(0)
        classifier.install_rule(rule)
        assert classifier.classify(web_packet).rule_id == 0

    def test_capacity_enforced(self, handcrafted_ruleset):
        tiny = ClassifierConfig()
        from dataclasses import replace

        provisioning = replace(tiny.provisioning, rule_filter_entries=2)
        config = replace(tiny, provisioning=provisioning)
        classifier = ConfigurableClassifier(config)
        classifier.install_rule(handcrafted_ruleset.get(0))
        classifier.install_rule(handcrafted_ruleset.get(1))
        with pytest.raises(UpdateError):
            classifier.install_rule(handcrafted_ruleset.get(2))

    def test_priority_improvement_reorders_hpml(self):
        classifier = self.make_classifier()
        low_priority = Rule.build(10, 10, src="10.0.0.0/8", protocol=6)
        high_priority = Rule.build(1, 1, src="10.0.0.0/8", protocol=6, dst="1.2.3.0/24")
        classifier.install_rule(low_priority)
        classifier.install_rule(high_priority)
        # The shared src_ip_hi label must now carry priority 1 as its best.
        spec = rule_dimension_specs(high_priority)["src_ip_hi"]
        table = classifier.label_tables["src_ip_hi"]
        assert table.best_priority_of(table.label_of(spec)) == 1

    def test_delete_recomputes_best_priority(self):
        classifier = self.make_classifier()
        high = Rule.build(1, 1, src="10.0.0.0/8", protocol=6)
        low = Rule.build(10, 10, src="10.0.0.0/8", protocol=17)
        classifier.install_rule(high)
        classifier.install_rule(low)
        classifier.remove_rule(1)
        spec = rule_dimension_specs(low)["src_ip_hi"]
        table = classifier.label_tables["src_ip_hi"]
        assert table.best_priority_of(table.label_of(spec)) == 10

    def test_rule_key_round_trip(self, handcrafted_ruleset):
        classifier = self.make_classifier()
        classifier.install_rule(handcrafted_ruleset.get(0))
        key = classifier.update_engine.rule_key(0)
        assert classifier.rule_filter.lookup(key).entry.rule_id == 0
        with pytest.raises(UpdateError):
            classifier.update_engine.rule_key(77)

    def test_installed_rule_ids(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        assert classifier.update_engine.installed_rule_ids() == [0, 1, 2, 3, 4]

    def test_update_statistics_structure(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        stats = classifier.update_engine.update_statistics()
        assert set(stats) == set(DIMENSIONS)
        assert stats["src_port"]["structural_inserts"] == 1

    def test_bst_configuration_updates_work(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(
            handcrafted_ruleset, ClassifierConfig(ip_algorithm=IpAlgorithm.BST)
        )
        classifier.remove_rule(0)
        classifier.install_rule(handcrafted_ruleset.get(0))
        assert classifier.classify(web_packet).rule_id == 0


class TestInsertAtomicity:
    """A failed insert must leave the classifier exactly as it found it.

    Regression tests for the Fig. 4 update path: a CapacityError out of the
    Rule Filter (or an engine refusing a value mid-way through the seven
    dimensions) used to leave the label tables, engines and reference sets
    permanently corrupted.
    """

    def _snapshot(self, classifier, packets):
        return {
            "stats": classifier.stats(),
            "update_stats": classifier.update_engine.update_statistics(),
            "installed": classifier.update_engine.installed_rule_ids(),
            "memory": classifier.memory_bits_used(),
            "label_entries": {
                dimension: [
                    (value, entry.label, entry.counter, entry.best_priority)
                    for value, entry in classifier.label_tables[dimension].entries()
                ]
                for dimension in DIMENSIONS
            },
            "value_users": {
                dimension: {
                    value: set(users)
                    for value, users in classifier.update_engine._value_users[dimension].items()
                }
                for dimension in DIMENSIONS
            },
            "lookups": [classifier.classify(packet) for packet in packets],
        }

    def test_rule_filter_capacity_error_rolls_back(self, handcrafted_ruleset, web_packet):
        from repro.exceptions import CapacityError

        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        before = self._snapshot(classifier, [web_packet])

        def full(key, rule):
            raise CapacityError("rule filter probing exhausted (simulated)")

        classifier.rule_filter.insert = full
        probe = Rule.build(99, 0, src="10.9.0.0/16", dst="172.16.0.0/12",
                           src_port="1000:2000", dst_port="443:443", protocol=6)
        try:
            with pytest.raises(CapacityError):
                classifier.install_rule(probe)
        finally:
            del classifier.rule_filter.insert  # restore the real method
        assert self._snapshot(classifier, [web_packet]) == before
        # The classifier is still fully functional: the same rule installs
        # cleanly once capacity is available again.
        result = classifier.install_rule(probe)
        assert result.rule_id == 99
        assert classifier.installed_rules == len(handcrafted_ruleset) + 1

    def test_rollback_restores_shared_value_priority(self, web_packet):
        """A failed insert must undo the HPML reordering of shared values."""
        from repro.core.dimensions import packet_dimension_values
        from repro.exceptions import CapacityError

        classifier = ConfigurableClassifier()
        low = Rule.build(10, 10, src="10.0.0.0/8", protocol=6)
        classifier.install_rule(low)
        before = self._snapshot(classifier, [web_packet])
        values = packet_dimension_values(web_packet)
        engine_before = classifier.engines["src_ip_hi"].lookup(values["src_ip_hi"])

        classifier.rule_filter.insert = lambda key, rule: (_ for _ in ()).throw(
            CapacityError("simulated full filter")
        )
        better = Rule.build(1, 1, src="10.0.0.0/8", protocol=6, dst="1.2.3.0/24")
        try:
            with pytest.raises(CapacityError):
                classifier.install_rule(better)
        finally:
            del classifier.rule_filter.insert
        assert self._snapshot(classifier, [web_packet]) == before
        assert classifier.engines["src_ip_hi"].lookup(values["src_ip_hi"]) == engine_before

    def test_engine_failure_mid_insert_rolls_back(self, web_packet):
        """Port register exhaustion on dimension six unwinds dimensions 1-5."""
        from dataclasses import replace

        from repro.exceptions import FieldLookupError

        config = ClassifierConfig()
        config = replace(config, provisioning=replace(config.provisioning, port_registers=1))
        classifier = ConfigurableClassifier(config)
        classifier.install_rule(Rule.build(0, 0, src="10.0.0.0/8", dst_port="80:80", protocol=6))
        before = self._snapshot(classifier, [web_packet])
        overflow = Rule.build(1, 1, src="10.2.0.0/16", dst_port="53:53", protocol=17)
        with pytest.raises(FieldLookupError):
            classifier.install_rule(overflow)
        assert self._snapshot(classifier, [web_packet]) == before
