"""SDN control plane: controller, switches and the OpenFlow-lite channel.

The paper's architecture splits responsibilities between a software controller
(algorithm selection, label-table maintenance, incremental update computation)
and the hardware device (parallel lookup).  This package provides the
software half:

* :class:`~repro.controller.controller.SdnController` — algorithm selection
  policy, rule pushing, statistics collection;
* :class:`~repro.controller.switch.Switch` — a data-plane device hosting one
  :class:`~repro.core.classifier.ConfigurableClassifier`;
* :class:`~repro.controller.channel.ControlChannel` — ordered in-process
  message transport with byte accounting;
* :mod:`~repro.controller.openflow` — the FlowMod/ConfigMod/Barrier/Stats
  message vocabulary;
* :mod:`~repro.controller.fabric` — the multi-switch fabric: topology +
  shortest-path routing, overlap-component rule placement, topology-wide
  transactional commits and per-switch serving.
"""

from repro.controller.channel import ChannelStats, ControlChannel
from repro.controller.controller import ApplicationRequirements, PushReport, SdnController
from repro.controller.fabric import (
    FabricCommitError,
    FabricController,
    FabricPath,
    FabricServeResult,
    PlacementPlan,
    SwitchCommit,
    SwitchServeStats,
    Topology,
    commit_switch_deltas,
    plan_placement,
)
from repro.controller.openflow import (
    BarrierReply,
    BarrierRequest,
    ConfigMod,
    FlowMod,
    FlowModCommand,
    FlowModReply,
    MessageType,
    StatsReply,
    StatsRequest,
    decode_message,
    encode_message,
)
from repro.controller.switch import Switch, SwitchStats

__all__ = [
    "SdnController",
    "ApplicationRequirements",
    "PushReport",
    "Switch",
    "SwitchStats",
    "ControlChannel",
    "ChannelStats",
    "FlowMod",
    "FlowModCommand",
    "FlowModReply",
    "ConfigMod",
    "BarrierRequest",
    "BarrierReply",
    "StatsRequest",
    "StatsReply",
    "MessageType",
    "encode_message",
    "decode_message",
    "Topology",
    "FabricPath",
    "PlacementPlan",
    "plan_placement",
    "FabricController",
    "FabricCommitError",
    "commit_switch_deltas",
    "SwitchCommit",
    "SwitchServeStats",
    "FabricServeResult",
]
