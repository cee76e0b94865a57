"""Failure-injection tests: capacity limits, exhaustion and error propagation.

The paper's architecture has hard resource limits (label widths, rule filter
capacity, register counts).  These tests drive the system into those limits on
purpose and check that the failure is loud, precise and does not corrupt the
surviving state.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.controller import FlowMod, FlowModCommand, SdnController
from repro.core.classifier import ConfigurableClassifier
from repro.core.config import ClassifierConfig, IpAlgorithm
from repro.exceptions import LabelError, UpdateError
from repro.hardware.hash_unit import LabelKeyLayout
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


def _narrow_config(**kwargs) -> ClassifierConfig:
    """A configuration with deliberately tiny label/memory budgets."""
    base = ClassifierConfig(**kwargs)
    return base


class TestRuleCapacityExhaustion:
    def _tiny_capacity_config(self, entries: int) -> ClassifierConfig:
        base = ClassifierConfig()
        provisioning = replace(base.provisioning, rule_filter_entries=entries)
        return replace(base, provisioning=provisioning)

    def test_insert_beyond_capacity_fails_loudly(self):
        classifier = ConfigurableClassifier(self._tiny_capacity_config(3))
        for index in range(3):
            classifier.install_rule(Rule.build(index, index, dst_port=f"{80 + index}:{80 + index}"))
        with pytest.raises(UpdateError):
            classifier.install_rule(Rule.build(9, 9, dst_port="99:99"))
        # the three installed rules keep working
        assert classifier.installed_rules == 3

    def test_bst_reclaim_raises_the_ceiling(self):
        mbt = self._tiny_capacity_config(3)
        bst = mbt.with_ip_algorithm(IpAlgorithm.BST)
        assert bst.rule_capacity() > mbt.rule_capacity()

    def test_controller_reports_rejections_without_crashing(self):
        controller = SdnController()
        switch = controller.add_switch(1, config=self._tiny_capacity_config(2))
        ruleset = RuleSet(
            [Rule.build(index, index, dst_port=f"{1000 + index}:{1000 + index}") for index in range(5)],
            name="overflow",
        )
        report = controller.push_ruleset(1, ruleset)
        assert report.accepted == 2
        assert report.rejected == 3
        assert report.errors and "capacity" in report.errors[0]
        assert switch.stats.flow_mods_failed == 3
        assert switch.classifier.installed_rules == 2


class TestLabelSpaceExhaustion:
    def test_narrow_protocol_labels_exhaust(self):
        config = replace(ClassifierConfig(), label_layout=LabelKeyLayout(protocol_label_bits=1))
        classifier = ConfigurableClassifier(config)
        classifier.install_rule(Rule.build(0, 0, protocol=6, dst_port="1:1"))
        classifier.install_rule(Rule.build(1, 1, protocol=17, dst_port="2:2"))
        with pytest.raises(LabelError):
            classifier.install_rule(Rule.build(2, 2, protocol=1, dst_port="3:3"))

    def test_narrow_port_labels_exhaust(self):
        config = replace(ClassifierConfig(), label_layout=LabelKeyLayout(port_label_bits=2))
        classifier = ConfigurableClassifier(config)
        for index in range(4):
            classifier.install_rule(Rule.build(index, index, dst_port=f"{index}:{index}"))
        with pytest.raises(LabelError):
            classifier.install_rule(Rule.build(9, 9, dst_port="9:9"))

    def test_deleting_frees_label_space(self):
        config = replace(ClassifierConfig(), label_layout=LabelKeyLayout(port_label_bits=2))
        classifier = ConfigurableClassifier(config)
        for index in range(4):
            classifier.install_rule(Rule.build(index, index, dst_port=f"{index}:{index}"))
        classifier.remove_rule(0)
        # the freed label value can be reused by a new unique port value
        classifier.install_rule(Rule.build(9, 9, dst_port="9:9"))
        assert classifier.installed_rules == 4


class TestPortRegisterExhaustion:
    def test_register_file_overflow_surfaces_as_update_failure(self):
        base = ClassifierConfig()
        provisioning = replace(base.provisioning, port_registers=2)
        classifier = ConfigurableClassifier(replace(base, provisioning=provisioning))
        classifier.install_rule(Rule.build(0, 0, dst_port="1:1"))
        classifier.install_rule(Rule.build(1, 1, dst_port="2:2"))
        with pytest.raises(Exception):
            classifier.install_rule(Rule.build(2, 2, dst_port="3:3"))


class TestSwitchErrorHandling:
    def test_failed_flow_mod_does_not_poison_later_ones(self, handcrafted_ruleset):
        controller = SdnController()
        switch = controller.add_switch(1)
        channel = controller.channel(1)
        channel.send_to_switch(FlowMod(command=FlowModCommand.DELETE, rule_id=77, xid=1))
        channel.send_to_switch(FlowMod(command=FlowModCommand.ADD, rule=handcrafted_ruleset.get(0), xid=2))
        switch.process_control_messages()
        replies = channel.drain_from_switch()
        assert [reply.success for reply in replies] == [False, True]
        assert switch.classifier.installed_rules == 1

    def test_duplicate_push_keeps_first_copy_working(self, handcrafted_ruleset, web_packet):
        controller = SdnController()
        switch = controller.add_switch(1)
        controller.push_ruleset(1, handcrafted_ruleset)
        controller.push_ruleset(1, handcrafted_ruleset)  # all rejected as duplicates
        result = switch.classify(web_packet)
        assert result.rule_id == 0


# ---------------------------------------------------------------------------
# Fabric fault injection: mid-commit switch failures and poisoned replicas.
# ---------------------------------------------------------------------------


def _fabric_disjoint_rule(rule_id: int) -> Rule:
    low = rule_id * 100
    return Rule.build(rule_id=rule_id, priority=rule_id, dst_port=f"{low}:{low + 99}")


@pytest.mark.fabric
class TestFabricCommitFailure:
    """A switch rejecting its delta mid-commit must leave *every* switch at
    its pre-commit ``program_version`` — the all-or-nothing guarantee."""

    def _poisoned_fabric(self):
        """A line(3) fabric where switch 2 rejects inserts of rule 7.

        With six disjoint rules installed, placement is two singleton
        buckets — ids (0, 2, 4) hosted on switches 0 and 1, ids (1, 3, 5)
        on switch 2 — so one transaction inserting rules 6 and 7 commits
        switches 0 and 1 first (ascending dpid order) before switch 2
        rejects rule 7: the rollback path genuinely has work to undo.
        """
        from repro.controller.fabric import FabricController, Topology

        fabric = FabricController(Topology.line(3))
        fabric.install(RuleSet([_fabric_disjoint_rule(i) for i in range(6)], name="seed"))
        assert fabric.plan.groups == ((0, 2, 4), (1, 3, 5))
        assert fabric.plan.hosts == ((0, 1), (2,))
        victim = fabric.switch(2).classifier
        real_insert = victim.update_engine.insert_rule

        def poisoned(rule, *args, **kwargs):
            if rule.rule_id == 7:
                raise UpdateError("injected: switch 2 refuses rule 7")
            return real_insert(rule, *args, **kwargs)

        victim.update_engine.insert_rule = poisoned
        return fabric, victim, real_insert

    def test_mid_commit_failure_restores_every_switch(self):
        from repro.controller.fabric import FabricCommitError

        fabric, victim, real_insert = self._poisoned_fabric()
        versions = {
            s.datapath_id: s.classifier.control.version for s in fabric.switches()
        }
        programs = {
            s.datapath_id: s.classifier.control.program().rules
            for s in fabric.switches()
        }
        fabric_version = fabric.version

        with pytest.raises(FabricCommitError) as excinfo:
            fabric.begin().insert(_fabric_disjoint_rule(6)).insert(
                _fabric_disjoint_rule(7)
            ).commit()

        error = excinfo.value
        assert error.failed_switch == 2
        assert error.rolled_back == (1, 0)  # undone in reverse commit order
        assert error.rollback_failures == ()
        # Every switch is back at its pre-commit program version and content.
        for switch in fabric.switches():
            dpid = switch.datapath_id
            assert switch.classifier.control.version == versions[dpid]
            assert switch.classifier.control.program().rules == programs[dpid]
        assert fabric.version == fabric_version
        assert 6 not in {r.rule_id for r in fabric.program().rules}
        assert fabric.rolled_back_commits == 1
        assert fabric.partial_commits == 0

        # The fabric is not wedged: unpoison and the same transaction lands.
        victim.update_engine.insert_rule = real_insert
        fabric.begin().insert(_fabric_disjoint_rule(6)).insert(
            _fabric_disjoint_rule(7)
        ).commit()
        assert {6, 7} <= {r.rule_id for r in fabric.program().rules}
        assert fabric.rolled_back_commits == 1  # unchanged

    def test_first_switch_failure_rolls_back_nothing(self):
        from repro.controller.fabric import FabricCommitError, FabricController, Topology

        fabric = FabricController(Topology.line(3))
        fabric.install(RuleSet([_fabric_disjoint_rule(i) for i in range(6)], name="seed"))
        first = fabric.switch(0).classifier

        def always_fails(rule, *args, **kwargs):
            raise UpdateError("injected: switch 0 is down")

        first.update_engine.insert_rule = always_fails
        with pytest.raises(FabricCommitError) as excinfo:
            fabric.begin().insert(_fabric_disjoint_rule(6)).commit()
        assert excinfo.value.failed_switch == 0
        assert excinfo.value.rolled_back == ()
        assert fabric.rolled_back_commits == 1
        assert fabric.partial_commits == 0


@pytest.mark.fabric
class TestFabricServeFailure:
    """A switch failing mid-serve cancels the whole serve with no partial
    statistics — the data-plane analogue of the commit guarantee."""

    def _served_fabric(self):
        from repro.controller.fabric import FabricController, Topology
        from repro.rules.classbench import ClassBenchGenerator, FilterFlavor
        from repro.rules.trace import generate_fabric_trace

        ruleset = ClassBenchGenerator(FilterFlavor.ACL, seed=11).generate(60)
        topology = Topology.line(3)
        fabric = FabricController(topology)
        fabric.install(ruleset)
        trace = generate_fabric_trace(ruleset, topology.ingresses(), 90, seed=12)
        return fabric, trace

    def test_poisoned_switch_aborts_serve_without_partial_stats(self):
        fabric, trace = self._served_fabric()

        poisoned = fabric.switch(2).classifier

        def explode(chunk, *args, **kwargs):
            raise RuntimeError("injected: switch 2 lost its datapath")

        original = poisoned.classify_batch
        poisoned.classify_batch = explode
        with pytest.raises(RuntimeError, match="injected"):
            fabric.serve(trace)
        # No switch recorded any share of the cancelled serve.
        for switch in fabric.switches():
            assert switch.stats.packets_classified == 0
            assert switch.stats.packets_matched == 0

        # Un-poison: the identical trace then serves fully and consistently.
        poisoned.classify_batch = original
        result = fabric.serve(trace)
        assert result.packets == len(trace)
        total_lookups = sum(s.packets for s in result.per_switch.values())
        assert total_lookups == result.hop_lookups
        for switch in fabric.switches():
            expected = result.per_switch[switch.datapath_id]
            assert switch.stats.packets_classified == expected.packets
            assert switch.stats.packets_matched == expected.hits

    def test_serve_starts_no_worker_threads(self, monkeypatch):
        """Serving calls each switch directly: no thread or pool to start or lose."""
        import threading

        def refuse(*args, **kwargs):
            raise RuntimeError("injected: no threads available")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        fabric, trace = self._served_fabric()
        result = fabric.serve(trace)
        assert result.packets == len(trace)
        expected = [fabric.classify(packet) for packet in trace]
        assert [record.rule_id for record in result.results] == [
            record.rule_id for record in expected
        ]


class TestPoolWorkerDeath:
    """A killed pool worker closes the session with a typed error.

    The session must never keep serving (or stay half-committed) without
    one of its replicas: whichever call meets the dead worker raises a
    :class:`~repro.exceptions.ReproError` and leaves the session closed.
    """

    @staticmethod
    def _pool_with_dead_worker(ruleset):
        import os
        import signal

        from repro.perf import ParallelSession, ReplicaSpec

        spec = ReplicaSpec("configurable", ruleset, {"vectorized": True, "flow_cache": True})
        pool = ParallelSession.from_factory(spec, workers=2, chunk_size=16)
        pool.stats()  # both workers up, replicas built
        (process,) = pool._workers[1]._executor._processes.values()
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        return pool

    def test_run_after_worker_death_closes_with_typed_error(self, small_acl_ruleset, small_trace):
        from repro.exceptions import ReproError

        pool = self._pool_with_dead_worker(small_acl_ruleset)
        try:
            with pytest.raises(ReproError, match="worker process died"):
                pool.run(small_trace)
            assert pool.closed
        finally:
            pool.close()

    def test_apply_after_worker_death_keeps_version_and_closes(self, small_acl_ruleset):
        from repro.api.control import Txn
        from repro.exceptions import ConfigurationError, ReproError

        pool = self._pool_with_dead_worker(small_acl_ruleset)
        victim = small_acl_ruleset.rules()[0]
        try:
            with pytest.raises(ReproError, match="worker process died"):
                pool.apply(Txn().remove(victim.rule_id))
            assert pool.closed
            assert pool.control.version == 0
            # The surviving worker's program is unreachable, never served.
            with pytest.raises(ConfigurationError, match="closed"):
                pool.control.program()
        finally:
            pool.close()
