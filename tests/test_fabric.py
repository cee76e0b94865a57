"""Unit tests for the multi-switch fabric: topology, placement, fabric sync.

The differential battery (``-m fabric`` in test_differential_scenarios.py)
sweeps the fabric against the linear oracle at scale; these tests pin the
individual mechanisms — deterministic routing, overlap-component placement,
version-exact rollback, all-or-nothing fabric commits, per-switch serving —
on small hand-checkable inputs, so they run with the tier-1 suite.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.depindex import DependencyIndex
from repro.api.control import RuleProgram
from repro.controller import SdnController
from repro.controller.fabric import (
    FabricController,
    Topology,
    plan_placement,
)
from repro.core.classifier import ConfigurableClassifier
from repro.core.config import ClassifierConfig
from repro.exceptions import ControlPlaneError, ExperimentError, UpdateError
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.rules.trace import FabricPacket, generate_fabric_trace, generate_trace


def disjoint_rule(rule_id: int) -> Rule:
    """Rules on disjoint dst_port windows: no overlaps, one component each."""
    low = rule_id * 100
    return Rule.build(rule_id=rule_id, priority=rule_id, dst_port=f"{low}:{low + 99}")


def disjoint_ruleset(count: int) -> RuleSet:
    return RuleSet([disjoint_rule(index) for index in range(count)], name=f"disjoint{count}")


class TestTopology:
    def test_line_routes_and_paths(self):
        topo = Topology.line(4)
        assert topo.switches == (0, 1, 2, 3)
        assert topo.ingresses() == (0, 1, 2, 3)
        assert topo.route_path(0).hops == (0, 1, 2, 3)
        assert topo.route_path(1).hops == (1, 2, 3)
        assert topo.route_path(2).hops == (2, 1, 0)
        assert topo.route_path(3).hops == (3, 2, 1, 0)
        assert topo.min_path_length == 3

    def test_single_switch_line(self):
        topo = Topology.line(1)
        assert topo.route_path(0).hops == (0,)
        assert topo.min_path_length == 1

    def test_fattree_shape(self):
        topo = Topology.fattree(7)
        # edges home alternately into the two aggregation switches
        assert topo.neighbors(3) == (1,)
        assert topo.neighbors(4) == (2,)
        assert topo.neighbors(0) == (1, 2)
        # cross-pod paths cross the core; all served paths here are cross-pod
        assert topo.route_path(3).hops == (3, 1, 0, 2, 4)
        assert topo.min_path_length == 5
        assert topo.ingresses() == (3, 4, 5, 6)

    def test_routing_is_deterministic(self):
        first = Topology.fattree(9)
        second = Topology.fattree(9)
        assert [p.hops for p in first.served_paths()] == [
            p.hops for p in second.served_paths()
        ]

    def test_shape_validation(self):
        with pytest.raises(ControlPlaneError):
            Topology.line(0)
        with pytest.raises(ControlPlaneError):
            Topology.fattree(4)
        with pytest.raises(ControlPlaneError):
            Topology([1, 1], [], {1: 1})
        with pytest.raises(ControlPlaneError):
            Topology([1, 2], [(1, 3)], {1: 2})
        with pytest.raises(ControlPlaneError):
            Topology([1, 2], [(1, 2)], {1: 9})
        with pytest.raises(ControlPlaneError):  # disconnected route
            Topology([1, 2, 3], [(1, 2)], {1: 3})
        with pytest.raises(ControlPlaneError):  # no routes at all
            Topology([1, 2], [(1, 2)], {})

    def test_unknown_ingress(self):
        topo = Topology.line(3)
        topo.route_path(2)
        with pytest.raises(ControlPlaneError):
            topo.route_path(9)


class TestOverlapComponents:
    def test_catch_all_merges_everything(self, handcrafted_ruleset):
        index = DependencyIndex(handcrafted_ruleset.rules())
        # rule 4 is a catch-all: it overlaps every other rule
        assert index.components() == [(0, 1, 2, 3, 4)]

    def test_disjoint_rules_are_singletons(self):
        index = DependencyIndex(disjoint_ruleset(5).rules())
        assert index.components() == [(0,), (1,), (2,), (3,), (4,)]

    def test_empty_index(self):
        assert DependencyIndex().components() == []

    def test_components_partition_the_rules(self, small_fw_ruleset):
        index = DependencyIndex(small_fw_ruleset.rules())
        components = index.components()
        seen = [rid for component in components for rid in component]
        assert sorted(seen) == sorted(rule.rule_id for rule in small_fw_ruleset.rules())
        assert len(seen) == len(set(seen))


class TestPlacement:
    def test_disjoint_rules_partition_mod_k(self):
        plan = plan_placement(tuple(disjoint_ruleset(6).rules()), Topology.line(3))
        assert plan.k == 2
        assert plan.groups == ((0, 2, 4), (1, 3, 5))
        assert plan.hosts == ((0, 1), (2,))
        assert plan.switches_for_rule(0) == (0, 1)
        assert plan.switches_for_rule(3) == (2,)

    def test_every_path_covers_every_group(self, small_acl_ruleset):
        for topo in (Topology.line(4), Topology.fattree(6)):
            plan = plan_placement(tuple(small_acl_ruleset.rules()), topo)
            for path in topo.served_paths():
                covered = set()
                for dpid in path.hops:
                    covered.update(rule.rule_id for rule in plan.rules_for(dpid))
                assert covered == {rule.rule_id for rule in small_acl_ruleset.rules()}

    def test_partitioned_not_replicated(self, small_acl_ruleset):
        rules = tuple(small_acl_ruleset.rules())
        plan = plan_placement(rules, Topology.line(4))
        full = len(rules) * 4
        assert plan.total_rule_slots < full
        assert plan.max_switch_rules < len(rules)
        assert 1.0 <= plan.replication_factor < 4.0

    def test_subsets_keep_install_order_and_priorities(self, small_fw_ruleset):
        rules = tuple(small_fw_ruleset.rules())
        position = {rule.rule_id: index for index, rule in enumerate(rules)}
        by_id = {rule.rule_id: rule for rule in rules}
        plan = plan_placement(rules, Topology.line(3))
        for subset in plan.switch_rules.values():
            positions = [position[rule.rule_id] for rule in subset]
            assert positions == sorted(positions)
            for rule in subset:
                assert rule == by_id[rule.rule_id]  # never renumbered

    def test_assignment_is_stable_under_singleton_growth(self):
        topo = Topology.line(3)
        before = plan_placement(tuple(disjoint_ruleset(6).rules()), topo)
        after = plan_placement(tuple(disjoint_ruleset(7).rules()), topo)
        # adding rule 6 (bucket 0) moves nothing that was already placed
        assert before.hosts == after.hosts
        for bucket, ids in enumerate(before.groups):
            assert set(ids) <= set(after.groups[bucket])

    def test_empty_program(self):
        plan = plan_placement((), Topology.line(3))
        assert plan.total_rule_slots == 0
        assert plan.replication_factor == 0.0
        assert plan.rules_for(0) == ()
        with pytest.raises(ControlPlaneError):
            plan.switches_for_rule(0)


class TestRollback:
    def test_rollback_restores_pre_commit_version(self):
        classifier = ConfigurableClassifier()
        plane = classifier.control
        plane.begin().insert(disjoint_rule(0)).commit()
        snapshot = plane.program()
        commit = plane.begin().insert(disjoint_rule(1)).remove(0).commit()
        assert plane.version == snapshot.version + 1
        epoch_after_commit = plane.epoch
        plane.rollback(commit)
        assert plane.version == snapshot.version
        assert plane.program().rule_ids() == snapshot.rule_ids()
        assert plane.epoch > epoch_after_commit  # engines mutated: caches must notice

    def test_only_latest_commit_is_undoable(self):
        plane = ConfigurableClassifier().control
        first = plane.begin().insert(disjoint_rule(0)).commit()
        plane.begin().insert(disjoint_rule(1)).commit()
        with pytest.raises(UpdateError):
            plane.rollback(first)

    def test_empty_commit_rollback_is_a_noop(self):
        plane = ConfigurableClassifier().control
        commit = plane.apply_delta(RuleProgram(0, ()).diff(RuleProgram(0, ())))
        version, epoch = plane.version, plane.epoch
        plane.rollback(commit)
        assert (plane.version, plane.epoch) == (version, epoch)


class TestFabricController:
    def test_install_places_subsets(self, small_acl_ruleset):
        fabric = FabricController(Topology.line(4))
        fabric.install(small_acl_ruleset)
        assert fabric.version == 1
        assert fabric.commits == 1
        for switch in fabric.switches():
            planned = fabric.plan.rules_for(switch.datapath_id)
            assert switch.classifier.installed_rules == len(planned)
            assert switch.classifier.control.program().rules == planned

    def test_serve_matches_linear_oracle(self, small_acl_ruleset):
        topo = Topology.line(4)
        fabric = FabricController(topo)
        fabric.install(small_acl_ruleset)
        trace = generate_fabric_trace(
            small_acl_ruleset, topo.ingresses(), 150, seed=5, churn=0.05
        )
        result = fabric.serve(trace)
        assert result.packets == len(trace)
        for packet, record in zip(trace, result.results):
            truth = small_acl_ruleset.highest_priority_match(packet.header)
            if truth is None:
                assert not record.matched
            else:
                assert record.rule_id == truth.rule_id
                assert record.priority == truth.priority
                assert record.action == truth.action.value

    def test_per_switch_accounting_sums(self, small_acl_ruleset):
        topo = Topology.line(3)
        fabric = FabricController(topo)
        fabric.install(small_acl_ruleset)
        trace = generate_fabric_trace(small_acl_ruleset, topo.ingresses(), 90, seed=9)
        result = fabric.serve(trace)
        assert result.hop_lookups == sum(s.packets for s in result.per_switch.values())
        assert result.hop_lookups == sum(
            len(topo.route_path(packet.ingress)) for packet in trace
        )
        for dpid, stats in result.per_switch.items():
            switch = fabric.switch(dpid)
            assert switch.stats.packets_classified == stats.packets
            assert switch.stats.packets_matched == stats.hits

    def test_serve_reads_no_footprint(self, small_acl_ruleset, monkeypatch):
        """A serve counts what it served; it walks no switch's memory."""
        topo = Topology.line(4)
        fabric = FabricController(topo, vectorized=True)
        fabric.install(small_acl_ruleset)
        trace = generate_fabric_trace(small_acl_ruleset, topo.ingresses(), 200, seed=21)

        def refuse(self):
            raise AssertionError("serve() read a switch's memory footprint")

        monkeypatch.setattr(ConfigurableClassifier, "memory_bits", refuse)
        result = fabric.serve(trace)
        assert result.packets == len(trace)
        assert result.hop_lookups == sum(len(topo.route_path(p.ingress)) for p in trace)
        assert [record.rule_id for record in result.results] == [
            fabric.classify(packet).rule_id for packet in trace
        ]

    def test_commit_converges_only_affected_switches(self):
        fabric = FabricController(Topology.line(3))
        fabric.install(disjoint_ruleset(6))
        versions = {s.datapath_id: s.classifier.control.version for s in fabric.switches()}
        # rule 6 lands in bucket 0, hosted on switches 0 and 1 only
        fabric.begin().insert(disjoint_rule(6)).commit()
        assert fabric.switch(0).classifier.control.version == versions[0] + 1
        assert fabric.switch(1).classifier.control.version == versions[1] + 1
        assert fabric.switch(2).classifier.control.version == versions[2]

    def test_duplicate_insert_and_unknown_remove_fail_cleanly(self):
        fabric = FabricController(Topology.line(2))
        fabric.install(disjoint_ruleset(4))
        with pytest.raises(UpdateError):
            fabric.begin().insert(disjoint_rule(0)).commit()
        with pytest.raises(UpdateError):
            fabric.begin().remove(99).commit()
        assert fabric.version == 1
        assert fabric.rolled_back_commits == 0  # rejected before any switch delta

    def test_remove_and_reinsert_same_txn_is_a_switch_noop(self):
        fabric = FabricController(Topology.line(3))
        fabric.install(disjoint_ruleset(6))
        versions = {s.datapath_id: s.classifier.control.version for s in fabric.switches()}
        # per-switch programs are content-compared, so remove+reinsert in one
        # transaction diffs to empty per-switch deltas (the fabric's own
        # version still advances: the logical delta was non-empty)
        fabric.begin().remove(0).insert(disjoint_rule(0)).commit()
        assert fabric.version == 2
        assert {
            s.datapath_id: s.classifier.control.version for s in fabric.switches()
        } == versions

    def test_single_switch_fabric_pins_single_switch_behavior(self, small_acl_ruleset):
        """Regression: a 1-switch fabric is exactly the old single-switch sync."""
        fabric = FabricController(Topology.line(1))
        fabric.install(small_acl_ruleset)
        reference = ConfigurableClassifier()
        for rule in small_acl_ruleset.rules():
            reference.install_rule(rule)
        assert fabric.plan.replication_factor == 1.0
        switch = fabric.switch(0)
        assert switch.classifier.control.program().rules == tuple(
            small_acl_ruleset.rules()
        )
        trace = generate_trace(small_acl_ruleset, count=80, seed=21)
        for header in trace:
            via_fabric = fabric.classify(FabricPacket(0, header))
            direct = reference.classify(header)
            assert via_fabric == direct

    def test_serve_rejects_unknown_ingress_and_empty_trace(self, small_acl_ruleset):
        fabric = FabricController(Topology.line(2))
        fabric.install(small_acl_ruleset)
        with pytest.raises(ControlPlaneError):
            fabric.serve([])
        header = generate_trace(small_acl_ruleset, count=1, seed=3)[0]
        with pytest.raises(ControlPlaneError):
            fabric.serve([FabricPacket(7, header)])


class TestSyncRulesetAtomicity:
    def _tiny_capacity_config(self, entries: int) -> ClassifierConfig:
        base = ClassifierConfig()
        provisioning = replace(base.provisioning, rule_filter_entries=entries)
        return replace(base, provisioning=provisioning)

    def test_oversized_sync_rejects_whole_delta(self):
        controller = SdnController()
        switch = controller.add_switch(1, config=self._tiny_capacity_config(2))
        controller.push_ruleset(1, disjoint_ruleset(2))
        before = switch.classifier.control.program()
        # the fix: the old per-op sync would land a partial prefix of this
        # delta; the fabric commit path rejects it atomically
        report = controller.sync_ruleset(1, disjoint_ruleset(5))
        assert report.requested == 3
        assert report.rejected == report.requested
        assert report.accepted == 0
        assert not report.success
        assert report.errors and "capacity" in report.errors[0]
        after = switch.classifier.control.program()
        assert after.version == before.version
        assert after.rules == before.rules
        assert switch.stats.flow_mods_failed == 3

    def test_successful_sync_is_minimal_and_counted(self, small_acl_ruleset):
        controller = SdnController()
        switch = controller.add_switch(1)
        rules = small_acl_ruleset.rules()
        controller.push_ruleset(1, RuleSet(rules[:10], name="first"))
        target = RuleSet(rules[5:15], name="second")
        report = controller.sync_ruleset(1, target)
        assert report.success
        assert report.requested == report.accepted == 10  # 5 removals + 5 inserts
        assert switch.stats.flow_mods_applied == 10 + 10  # push + sync
        assert switch.classifier.control.program().rule_ids() == tuple(
            rule.rule_id for rule in target.rules()
        )
        again = controller.sync_ruleset(1, target)
        assert again.requested == 0 and again.success


class TestFabricTrace:
    def test_deterministic_and_ingress_tagged(self, small_acl_ruleset):
        ingresses = (0, 2, 5)
        first = generate_fabric_trace(small_acl_ruleset, ingresses, 120, seed=4, churn=0.1)
        second = generate_fabric_trace(small_acl_ruleset, ingresses, 120, seed=4, churn=0.1)
        assert first == second
        assert all(packet.ingress in ingresses for packet in first)
        assert len(first) == 120

    def test_flows_stick_to_their_ingress(self, small_acl_ruleset):
        trace = generate_fabric_trace(small_acl_ruleset, (0, 1, 2, 3), 300, seed=8)
        by_header = {}
        for packet in trace:
            by_header.setdefault(packet.header, set()).add(packet.ingress)
        # every repeated flow enters the fabric at one fixed switch
        assert all(len(ingresses) == 1 for ingresses in by_header.values())
        assert any(ingresses for ingresses in by_header.values())

    def test_validation(self, small_acl_ruleset):
        with pytest.raises(ExperimentError):
            generate_fabric_trace(small_acl_ruleset, (), 10)
        with pytest.raises(ExperimentError):
            generate_fabric_trace(small_acl_ruleset, (0,), -1)
        with pytest.raises(ExperimentError):
            generate_fabric_trace(small_acl_ruleset, (0,), 10, churn=1.5)
