"""SDN switch (data-plane device) hosting the configurable classifier.

The switch owns one :class:`~repro.core.classifier.ConfigurableClassifier`
instance, consumes control messages from its channel (FlowMod, ConfigMod,
Barrier, StatsRequest) and classifies data-plane packets with the installed
rule set — the Infrastructure-layer box of the paper's Fig. 1.

Control messages land through the classifier's transactional control plane
(:mod:`repro.api.control`): each FlowMod/ConfigMod becomes a single-op
transaction committed all-or-nothing, so the device's rule program advances
in epoch-stamped versions and a rejected message leaves it bit-exact where
it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.controller.channel import ControlChannel
from repro.controller.openflow import (
    BarrierReply,
    BarrierRequest,
    ConfigMod,
    FlowMod,
    FlowModCommand,
    FlowModReply,
    StatsReply,
    StatsRequest,
)
from repro.core.classifier import ConfigurableClassifier
from repro.core.config import ClassifierConfig
from repro.core.result import BatchResult, Classification
from repro.exceptions import ControlPlaneError, ReproError
from repro.rules.packet import PacketHeader

__all__ = ["SwitchStats", "Switch"]


@dataclass
class SwitchStats:
    """Data-plane and control-plane counters of one switch."""

    packets_classified: int = 0
    packets_matched: int = 0
    flow_mods_applied: int = 0
    flow_mods_failed: int = 0
    reconfigurations: int = 0

    @property
    def match_ratio(self) -> float:
        """Fraction of classified packets that hit an installed rule."""
        if not self.packets_classified:
            return 0.0
        return self.packets_matched / self.packets_classified


class Switch:
    """A data-plane device: classifier + control channel endpoint."""

    def __init__(
        self,
        datapath_id: int,
        channel: ControlChannel,
        config: Optional[ClassifierConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.datapath_id = datapath_id
        self.name = name or f"switch-{datapath_id}"
        self.channel = channel
        self.classifier = ConfigurableClassifier(config)
        self.stats = SwitchStats()

    # -- control plane -----------------------------------------------------------
    def process_control_messages(self, limit: Optional[int] = None) -> int:
        """Apply pending controller messages in order; returns how many were handled."""
        handled = 0
        while limit is None or handled < limit:
            message = self.channel.receive_from_controller()
            if message is None:
                break
            self._dispatch(message)
            handled += 1
        return handled

    def _dispatch(self, message) -> None:
        if isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, ConfigMod):
            self._handle_config_mod(message)
        elif isinstance(message, BarrierRequest):
            self.channel.send_to_controller(BarrierReply(xid=message.xid))
        elif isinstance(message, StatsRequest):
            self._handle_stats_request(message)
        else:
            raise ControlPlaneError(
                f"{self.name} received an unexpected control message: {type(message).__name__}"
            )

    def _handle_flow_mod(self, message: FlowMod) -> None:
        try:
            txn = self.classifier.control.begin()
            if message.command is FlowModCommand.ADD:
                txn.insert(message.rule)
            else:
                txn.remove(message.target_rule_id)
            commit = txn.commit()
            self.stats.flow_mods_applied += 1
            reply = FlowModReply(
                xid=message.xid,
                rule_id=message.target_rule_id,
                success=True,
                structural=commit.structural,
                cycles=commit.update_cycles,
            )
        except ReproError as exc:
            self.stats.flow_mods_failed += 1
            reply = FlowModReply(
                xid=message.xid,
                rule_id=message.target_rule_id,
                success=False,
                error=str(exc),
            )
        self.channel.send_to_controller(reply)

    def _handle_config_mod(self, message: ConfigMod) -> None:
        if message.ip_algorithm is not None or message.combiner_mode is not None:
            txn = self.classifier.control.begin().reconfigure(
                ip_algorithm=message.ip_algorithm, combiner=message.combiner_mode
            )
            txn.commit()
            if message.ip_algorithm is not None:
                self.stats.reconfigurations += 1
        self.channel.send_to_controller(BarrierReply(xid=message.xid))

    def _handle_stats_request(self, message: StatsRequest) -> None:
        report = self.classifier.report()
        stats: Dict[str, object] = {
            "datapath_id": self.datapath_id,
            "rules_installed": report.rules_installed,
            "rule_capacity": report.rule_capacity,
            "ip_algorithm": report.ip_algorithm,
            "throughput_gbps": report.throughput_gbps,
            "memory_bits_used": report.total_memory_bits_used,
            "packets_classified": self.stats.packets_classified,
            "match_ratio": self.stats.match_ratio,
            "program_version": self.classifier.control.version,
            "program_epoch": self.classifier.control.epoch,
        }
        self.channel.send_to_controller(StatsReply(xid=message.xid, stats=stats))

    # -- data plane -----------------------------------------------------------------
    def classify(self, packet: PacketHeader) -> Classification:
        """Classify one data-plane packet with the installed rules (unified API)."""
        result = self.classifier.classify(packet)
        self.stats.packets_classified += 1
        if result.matched:
            self.stats.packets_matched += 1
        return result

    def classify_batch(self, trace) -> BatchResult:
        """Classify a whole packet trace (unified API)."""
        return BatchResult(tuple(self.classify(packet) for packet in trace))

    def __repr__(self) -> str:
        return (
            f"Switch(dpid={self.datapath_id}, rules={self.classifier.installed_rules}, "
            f"ip={self.classifier.config.ip_algorithm.value})"
        )
