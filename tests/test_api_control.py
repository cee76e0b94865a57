"""Unit tests of the transactional control plane (repro.api.control).

Covers the Txn lifecycle, all-or-nothing commits with journalled rollback,
inverse deltas, RuleProgram diffing, the rebuild plane of the baselines,
epoch-stamped cache invalidation, delta-file parsing and the ParallelSession
broadcast path.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import create_classifier
from repro.api.control import (
    Delta,
    RuleProgram,
    Txn,
    TxnOp,
    parse_delta_lines,
)
from repro.core.classifier import ConfigurableClassifier
from repro.core.config import CombinerMode, IpAlgorithm
from repro.exceptions import UpdateError
from repro.perf import ParallelSession, ReplicaSpec
from repro.rules.rule import Rule, RuleAction
from repro.rules.ruleset import RuleSet


def _rule_ids(plane) -> set:
    return {rule.rule_id for rule in plane.program().rules}


class TestTxnLifecycle:
    def test_stage_and_commit(self, handcrafted_ruleset, web_packet):
        rules = handcrafted_ruleset.rules()
        classifier = ConfigurableClassifier.from_ruleset(
            RuleSet(rules[1:], name="partial")
        )
        plane = classifier.control
        assert plane.version == 0 and plane.epoch == 0
        txn = plane.begin()
        assert txn.state == "open"
        commit = txn.insert(rules[0]).remove(rules[-1].rule_id).commit()
        assert txn.state == "committed"
        assert commit.version == plane.version == 1
        assert commit.epoch == plane.epoch == 1
        assert len(commit.results) == 2
        # The HPMR for the web packet is now rule 0.
        assert classifier.classify(web_packet).rule_id == 0

    def test_committed_txn_is_terminal(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        txn = classifier.control.begin().remove(4)
        txn.commit()
        with pytest.raises(UpdateError, match="committed"):
            txn.commit()
        with pytest.raises(UpdateError, match="committed"):
            txn.insert(handcrafted_ruleset.get(4))

    def test_abort_discards(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        txn = classifier.control.begin().remove(0)
        txn.abort()
        assert txn.state == "aborted"
        with pytest.raises(UpdateError, match="aborted"):
            txn.commit()
        assert 0 in _rule_ids(classifier.control)

    def test_free_standing_txn_needs_a_plane(self, handcrafted_ruleset):
        txn = Txn().remove(0)
        with pytest.raises(UpdateError, match="no control plane"):
            txn.commit()

    def test_reconfigure_validates_at_staging(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        txn = classifier.control.begin()
        with pytest.raises(ValueError):
            txn.reconfigure(ip_algorithm="nonsense")
        with pytest.raises(UpdateError, match="needs an ip_algorithm"):
            txn.reconfigure()

    def test_empty_commit_is_a_noop(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        commit = classifier.control.begin().commit()
        assert commit.version == 0 and commit.epoch == 0
        assert classifier.control.version == 0

    def test_delta_is_picklable(self, handcrafted_ruleset):
        delta = (
            Txn()
            .insert(handcrafted_ruleset.get(0))
            .remove(3)
            .reconfigure(ip_algorithm=IpAlgorithm.BST, combiner="first_label")
            .delta()
        )
        clone = pickle.loads(pickle.dumps(delta))
        assert clone == delta


class TestAtomicity:
    def test_failing_op_unwinds_the_prefix(self, handcrafted_ruleset, web_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        reference = classifier.classify(web_packet)
        before_ids = _rule_ids(classifier.control)
        txn = classifier.control.begin()
        # Op 1 (remove 0) applies, op 2 (remove 0 again) must fail and
        # unwind op 1.
        txn.remove(0).remove(0)
        with pytest.raises(UpdateError):
            txn.commit()
        assert classifier.control.version == 0
        assert _rule_ids(classifier.control) == before_ids
        assert classifier.classify(web_packet) == reference

    def test_failed_reconfigure_sequence_restores_algorithm(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        txn = classifier.control.begin().reconfigure(ip_algorithm="bst").remove(999)
        with pytest.raises(UpdateError):
            txn.commit()
        assert classifier.config.ip_algorithm is IpAlgorithm.MBT

    def test_inverse_delta_round_trips(self, handcrafted_ruleset, web_packet, dns_packet):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        ref = [classifier.classify(web_packet), classifier.classify(dns_packet)]
        commit = (
            classifier.control.begin()
            .remove(0)
            .reconfigure(ip_algorithm="bst", combiner=CombinerMode.FIRST_LABEL)
            .commit()
        )
        classifier.control.apply_delta(commit.inverse)
        assert classifier.config.ip_algorithm is IpAlgorithm.MBT
        assert classifier.config.combiner_mode is CombinerMode.CROSS_PRODUCT
        assert [classifier.classify(web_packet), classifier.classify(dns_packet)] == ref

    def test_fast_path_caches_track_commits(self, small_acl_ruleset, small_trace):
        """Epoch-stamped commits invalidate the memo layers, no listeners."""
        classifier = create_classifier("configurable", small_acl_ruleset, fast=True)
        classifier.classify_batch(small_trace)  # warm every cache
        victims = [rule.rule_id for rule in small_acl_ruleset.rules()[:5]]
        txn = classifier.control.begin()
        for rule_id in victims:
            txn.remove(rule_id)
        txn.commit()
        fast = classifier.classify_batch(small_trace)
        fresh = create_classifier(
            "configurable",
            RuleSet(
                (r for r in small_acl_ruleset.rules() if r.rule_id not in set(victims)),
                name="survivors",
            ),
        )
        assert [r.rule_id for r in fast] == [
            fresh.classify(p).rule_id for p in small_trace
        ]


class TestRuleProgram:
    def test_program_snapshot(self, handcrafted_ruleset):
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        program = classifier.control.program()
        assert program.version == 0
        assert program.rule_ids() == tuple(r.rule_id for r in handcrafted_ruleset)
        assert program.settings == {
            "ip_algorithm": "mbt",
            "combiner_mode": "cross_product",
        }

    def test_diff_produces_converging_delta(self, handcrafted_ruleset):
        rules = handcrafted_ruleset.rules()
        classifier = ConfigurableClassifier.from_ruleset(handcrafted_ruleset)
        target = RuleProgram(
            version=0,
            rules=tuple(rules[2:]),
            config=(("combiner_mode", "cross_product"), ("ip_algorithm", "bst")),
        )
        delta = classifier.control.program().diff(target)
        kinds = [op.kind for op in delta.ops]
        assert kinds.count("remove") == 2
        assert "reconfigure" in kinds
        classifier.control.apply_delta(delta)
        after = classifier.control.program()
        assert set(after.rule_ids()) == {r.rule_id for r in rules[2:]}
        assert after.settings["ip_algorithm"] == "bst"
        # Converged: diffing again is empty.
        assert not after.diff(target).ops

    def test_diff_ignores_descriptive_config_keys(self, handcrafted_ruleset):
        """Identity keys (a baseline's algorithm name) must not fabricate a
        reconfigure op no plane could apply."""
        a = create_classifier("bitvector", handcrafted_ruleset)
        b = create_classifier("dcfl", handcrafted_ruleset)
        delta = a.control.program().diff(b.control.program())
        assert not delta.ops
        # And an applicable delta still converges across engine kinds.
        a.control.begin().extend(delta).commit()

    def test_diff_replaces_changed_rule(self, handcrafted_ruleset):
        rules = handcrafted_ruleset.rules()
        changed = Rule.build(
            rules[0].rule_id, rules[0].priority, dst_port="443:443",
            protocol=6, action=RuleAction.FORWARD,
        )
        base = RuleProgram(version=0, rules=tuple(rules))
        target = RuleProgram(version=0, rules=(changed,) + tuple(rules[1:]))
        delta = base.diff(target)
        assert [op.kind for op in delta.ops] == ["remove", "insert"]
        assert delta.ops[0].rule_id == rules[0].rule_id
        assert delta.ops[1].rule.dst_port.low == 443


class TestRebuildControl:
    def test_multi_op_commit_rebuilds_once(self, handcrafted_ruleset, web_packet):
        adapter = create_classifier("linear_search", handcrafted_ruleset)
        plane = adapter.control
        engine_before = adapter.engine
        extra = Rule.build(99, 99, action=RuleAction.DROP)
        commit = plane.begin().insert(extra).remove(2).commit()
        assert commit.version == 1
        assert adapter.engine is not engine_before
        ids = _rule_ids(plane)
        assert 99 in ids and 2 not in ids
        assert adapter.classify(web_packet).rule_id == 0

    def test_reconfigure_rejected_without_side_effects(self, handcrafted_ruleset):
        adapter = create_classifier("linear_search", handcrafted_ruleset)
        engine_before = adapter.engine
        txn = adapter.control.begin().remove(0).reconfigure(ip_algorithm="bst")
        with pytest.raises(UpdateError, match="no\\s+runtime reconfiguration"):
            txn.commit()
        assert adapter.engine is engine_before
        assert 0 in _rule_ids(adapter.control)

    def test_staging_failure_leaves_engine_untouched(self, handcrafted_ruleset):
        adapter = create_classifier("linear_search", handcrafted_ruleset)
        engine_before = adapter.engine
        with pytest.raises(Exception):
            adapter.control.begin().insert(handcrafted_ruleset.get(0)).commit()
        assert adapter.engine is engine_before
        assert adapter.control.version == 0


class TestDeltaFiles:
    def test_parse_round_trip(self, handcrafted_ruleset):
        program = RuleProgram(version=0, rules=tuple(handcrafted_ruleset.rules()))
        delta = parse_delta_lines(
            [
                "# comment",
                "",
                "- 3",
                "+ @10.0.0.0/8 192.168.0.0/16 0 : 65535 80 : 80 0x06/0xFF",
                "! ip_algorithm=bst",
                "! combiner=first_label",
            ],
            program,
        )
        kinds = [op.kind for op in delta.ops]
        assert kinds == ["remove", "insert", "reconfigure", "reconfigure"]
        inserted = delta.ops[1].rule
        # Fresh id/priority beyond everything installed.
        assert inserted.rule_id == 5 and inserted.priority == 5

    def test_parse_rejects_garbage(self, handcrafted_ruleset):
        program = RuleProgram(version=0, rules=tuple(handcrafted_ruleset.rules()))
        with pytest.raises(UpdateError, match="line 1"):
            parse_delta_lines(["? what"], program)
        with pytest.raises(UpdateError, match="bad rule id"):
            parse_delta_lines(["- notanumber"], program)
        with pytest.raises(UpdateError, match="unknown setting"):
            parse_delta_lines(["! colour=blue"], program)
        with pytest.raises(UpdateError, match="line 1: bad ip_algorithm"):
            parse_delta_lines(["! ip_algorithm=typo"], program)
        with pytest.raises(UpdateError, match="line 1: bad combiner"):
            parse_delta_lines(["! combiner=typo"], program)


class TestSessionBroadcast:
    @staticmethod
    def _pool(ruleset, workers: int = 1, **options) -> ParallelSession:
        spec = ReplicaSpec("configurable", ruleset, options)
        return ParallelSession.from_factory(spec, workers=workers, chunk_size=4)

    def test_commit_result_rebroadcast(self, handcrafted_ruleset, web_packet):
        """A commit on a primary propagates to a pool via apply()."""
        primary = create_classifier("configurable", handcrafted_ruleset)
        commit = primary.control.begin().remove(0).commit()
        with self._pool(handcrafted_ruleset, workers=2, fast=True) as pool:
            pool.apply(commit)
            assert pool.control.version == 1
            fed = pool.feed([web_packet])
            assert fed.results[0].rule_id == primary.classify(web_packet).rule_id

    def test_apply_rejects_foreign_types(self, handcrafted_ruleset):
        from repro.exceptions import ConfigurationError

        with self._pool(handcrafted_ruleset) as pool:
            with pytest.raises(ConfigurationError, match="Txn, Delta or CommitResult"):
                pool.apply(["not", "a", "delta"])

    def test_closed_session_refuses_transactions(self, handcrafted_ruleset):
        from repro.exceptions import ConfigurationError

        pool = self._pool(handcrafted_ruleset)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.begin()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.apply(Delta((TxnOp(kind="remove", rule_id=0),)))

    def test_pre_close_txn_cannot_resurrect_workers(self, handcrafted_ruleset):
        """close() is terminal: a transaction opened before it must not
        restart worker pools when committed afterwards."""
        from repro.exceptions import ConfigurationError

        pool = self._pool(handcrafted_ruleset)
        txn = pool.begin().remove(0)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            txn.commit()
        # Nothing was applied and no worker process was re-created.
        assert pool.control.version == 0
        assert all(worker._executor is None for worker in pool._workers)

    def test_free_standing_txn_rolls_out_to_several_pools(self, handcrafted_ruleset):
        """apply() snapshots an unbound Txn instead of consuming it."""
        txn = Txn().remove(0)
        pools = [self._pool(handcrafted_ruleset) for _ in range(2)]
        try:
            for pool in pools:
                pool.apply(txn)
                assert 0 not in {
                    rule.rule_id for rule in pool.control.program().rules
                }
            assert txn.state == "open"  # still the caller's to reuse or abort
        finally:
            for pool in pools:
                pool.close()

    def test_txn_bound_elsewhere_rejected(self, handcrafted_ruleset):
        from repro.exceptions import ConfigurationError

        primary = create_classifier("configurable", handcrafted_ruleset)
        foreign = primary.control.begin().remove(0)
        with self._pool(handcrafted_ruleset) as pool:
            with pytest.raises(ConfigurationError, match="another control plane"):
                pool.apply(foreign)


class TestSwitchIntegration:
    def test_flow_mod_failure_keeps_program_version(self, handcrafted_ruleset):
        from repro.controller.channel import ControlChannel
        from repro.controller.openflow import FlowMod, FlowModCommand
        from repro.controller.switch import Switch

        switch = Switch(datapath_id=1, channel=ControlChannel("t"))
        for rule in handcrafted_ruleset:
            switch.classifier.install(rule)
        channel = switch.channel
        channel.send_to_switch(
            FlowMod(command=FlowModCommand.DELETE, rule_id=12345, xid=7)
        )
        switch.process_control_messages()
        reply = channel.receive_from_switch()
        assert not reply.success
        assert switch.stats.flow_mods_failed == 1
        assert switch.classifier.control.version == 0

    def test_stats_reply_carries_program_version(self, handcrafted_ruleset):
        from repro.controller.controller import SdnController

        controller = SdnController()
        controller.add_switch(1)
        controller.push_ruleset(1, handcrafted_ruleset)
        stats = controller.request_stats(1)
        assert stats["program_version"] == len(handcrafted_ruleset)
        assert stats["program_epoch"] == len(handcrafted_ruleset)

    def test_sync_ruleset_converges_minimal(self, handcrafted_ruleset):
        from repro.controller.controller import SdnController

        controller = SdnController()
        controller.add_switch(1)
        controller.push_ruleset(1, handcrafted_ruleset)
        target = RuleSet(handcrafted_ruleset.rules()[1:4], name="target")
        report = controller.sync_ruleset(1, target)
        # 2 removals (rules 0 and 4), nothing re-pushed for the survivors.
        assert report.requested == 2
        assert report.accepted == 2
        program = controller.switch(1).classifier.control.program()
        assert set(program.rule_ids()) == {1, 2, 3}
        # Converged: a second sync sends nothing.
        assert controller.sync_ruleset(1, target).requested == 0
