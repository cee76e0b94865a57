"""Dimension mapping between rules/packets and the seven lookup engines.

The architecture searches seven dimensions in parallel: the high and low
16-bit segments of both IP addresses, the two port fields and the protocol
field.  This module is the single place where a :class:`~repro.rules.rule.Rule`
or a :class:`~repro.rules.packet.PacketHeader` is translated into per-dimension
specifications / lookup keys, so every component (update engine, lookup path,
analysis) agrees on the encoding.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.label_combiner import DIMENSIONS
from repro.fields.prefix import prefix_range, split_prefix_segments
from repro.rules.packet import PROTOCOL_WIDTH, PacketHeader
from repro.rules.rule import Rule

__all__ = [
    "DIMENSIONS",
    "IP_DIMENSIONS",
    "PORT_DIMENSIONS",
    "DIMENSION_DOMAINS",
    "rule_dimension_specs",
    "packet_dimension_values",
    "dimension_label_width",
    "spec_interval",
]

#: The four IP-segment dimensions (13-bit labels).
IP_DIMENSIONS: Tuple[str, ...] = ("src_ip_hi", "src_ip_lo", "dst_ip_hi", "dst_ip_lo")
#: The two port dimensions (7-bit labels).
PORT_DIMENSIONS: Tuple[str, ...] = ("src_port", "dst_port")
#: Number of lookup values of each dimension: 2^16 for the IP segments and
#: the ports, 2^8 for the protocol.  Every lookup value lies in
#: ``range(DIMENSION_DOMAINS[name])``.
DIMENSION_DOMAINS: Dict[str, int] = {
    **{name: 1 << 16 for name in IP_DIMENSIONS + PORT_DIMENSIONS},
    "protocol": 1 << PROTOCOL_WIDTH,
}


def rule_dimension_specs(rule: Rule) -> Dict[str, Hashable]:
    """Return the per-dimension match specification of a rule.

    * IP segments: ``(value, length)`` 16-bit prefixes obtained by splitting
      the 32-bit rule prefix (section IV.C);
    * ports: ``(low, high)`` inclusive ranges;
    * protocol: ``(wildcard, value)``.
    """
    src_hi, src_lo = split_prefix_segments(rule.src_prefix.value, rule.src_prefix.length)
    dst_hi, dst_lo = split_prefix_segments(rule.dst_prefix.value, rule.dst_prefix.length)
    return {
        "src_ip_hi": src_hi,
        "src_ip_lo": src_lo,
        "dst_ip_hi": dst_hi,
        "dst_ip_lo": dst_lo,
        "src_port": (rule.src_port.low, rule.src_port.high),
        "dst_port": (rule.dst_port.low, rule.dst_port.high),
        "protocol": rule.protocol.key(),
    }


def packet_dimension_values(packet: PacketHeader) -> Dict[str, int]:
    """Return the per-dimension lookup key of a packet header."""
    return {name: column[0] for name, column in packet_dimension_columns((packet,)).items()}


def packet_dimension_columns(packets: Sequence[PacketHeader]) -> Dict[str, List[int]]:
    """Return the per-dimension lookup keys of many headers, one column each.

    Column ``name`` holds dimension ``name``'s key of every packet, in input
    order, read straight from the header fields one pass per field: the high
    and low 16-bit segments of each IP address, then the ports and protocol.
    """
    src = [packet.src_ip for packet in packets]
    dst = [packet.dst_ip for packet in packets]
    return {
        "src_ip_hi": [ip >> 16 for ip in src],
        "src_ip_lo": [ip & 0xFFFF for ip in src],
        "dst_ip_hi": [ip >> 16 for ip in dst],
        "dst_ip_lo": [ip & 0xFFFF for ip in dst],
        "src_port": [packet.src_port for packet in packets],
        "dst_port": [packet.dst_port for packet in packets],
        "protocol": [packet.protocol for packet in packets],
    }


def spec_interval(dimension: str, spec: Hashable) -> Tuple[int, int]:
    """Inclusive interval of lookup values a dimension spec matches.

    This is the *exact* set of points whose lookup result lists the spec's
    label: IP segments expand their 16-bit prefix, ports are already ranges
    and the protocol is either the full 8-bit space (wildcard) or one value.
    The scoped-invalidation path uses it as the blast radius of a label
    reprioritization, which changes lookup results exactly on this interval.
    """
    if dimension in IP_DIMENSIONS:
        value, length = spec  # type: ignore[misc]
        return prefix_range(int(value), int(length), 16)
    if dimension in PORT_DIMENSIONS:
        low, high = spec  # type: ignore[misc]
        return int(low), int(high)
    if dimension == "protocol":
        wildcard, value = spec  # type: ignore[misc]
        return (0, DIMENSION_DOMAINS[dimension] - 1) if wildcard else (int(value), int(value))
    raise KeyError(f"unknown dimension {dimension!r}")


def dimension_label_width(dimension: str, ip_bits: int, port_bits: int, protocol_bits: int) -> int:
    """Label width of one dimension under a given label layout."""
    if dimension in IP_DIMENSIONS:
        return ip_bits
    if dimension in PORT_DIMENSIONS:
        return port_bits
    if dimension == "protocol":
        return protocol_bits
    raise KeyError(f"unknown dimension {dimension!r}")
