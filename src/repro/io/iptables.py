"""Bidirectional iptables-save ↔ internal rule model translation.

Real firewall configurations live in ``iptables-save`` dumps; this module
imports the supported subset of that format into
:class:`~repro.rules.ruleset.RuleSet` objects and exports any rule source
(:class:`~repro.rules.ruleset.RuleSet`, a
:class:`~repro.api.control.RuleProgram` snapshot, or a plain rule iterable)
back to loadable iptables-save text — the interop layer the ROADMAP's
real-workload item asks for, following the jkoeppeler pcap-utils
ClassBench↔iptables converter (SNIPPETS.md §3), including its
range-expansion pitfalls.

Import (:func:`parse_iptables_save` / :func:`load_iptables_file`):

* ``-s``/``-d`` CIDR prefixes, ``-p`` by name or number (``all`` = wildcard);
* ``--sport``/``--dport`` single ports, ``lo:hi`` ranges and the open-ended
  ``:hi`` / ``lo:`` forms (normalised to ``0:hi`` / ``lo:65535`` — the
  port-range representation pitfall);
* ``-m multiport --sports/--dports`` comma lists — every list element (port
  or range) becomes its own rule, and when both directions carry lists the
  cross product is emitted, exactly the expansion real converters perform;
* ``-j`` targets mapped onto :class:`~repro.rules.rule.RuleAction`
  (table below), ``-m comment`` preserved (``rid:<n>`` comments written by
  the exporter restore the source rule id into ``metadata``);
* everything else — negation, interfaces, conntrack state, tcp flags,
  non-``filter`` tables, unknown matches/targets — rejected with a
  :class:`~repro.exceptions.TraceIOError` naming the line number and the
  offending token.  Rejecting precisely beats importing wrongly.

Export (:func:`format_iptables_save` / :func:`dump_iptables_file`):

=====================  ======================================
internal action        iptables target
=====================  ======================================
``forward``            ``ACCEPT``
``drop``               ``DROP`` (import also accepts ``REJECT``)
``modify``             ``MARK --set-xmark 0x1/0xffffffff``
``redirect_group``     ``REPRO-REDIRECT`` (user-defined chain —
                       the nat-only ``REDIRECT`` target would not
                       load in the filter table; import accepts both)
``send_to_controller`` ``NFQUEUE --queue-num 0``
=====================  ======================================

The one semantic gap: iptables cannot attach port constraints to a
wildcard-protocol rule (``--sport`` needs ``-p tcp``-family).  In the default
``mode="expand"`` such a rule is emitted as a ``-p tcp`` + ``-p udp`` pair
sharing one ``rid`` comment — exact over *realizable* packets (where
non-port protocols carry ports ``(0, 0)``, the transport reading of
:mod:`repro.io.pcap`) unless both port ranges contain 0, which the
:class:`ExportReport` flags as lossy.  Port constraints on an exact non-port
protocol are dropped (ranges containing 0 — vacuous over realizable
packets) or the whole rule omitted (a range excluding 0 — unmatchable over
realizable packets), both reported.  ``mode="strict"`` turns every such
rewrite into an error instead.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import TraceIOError
from repro.fields.prefix import Prefix, format_ipv4_prefix
from repro.fields.range_utils import PORT_MAX, PortRange
from repro.rules.rule import ProtocolMatch, Rule, RuleAction
from repro.rules.ruleset import RuleSet

__all__ = [
    "ExportNote",
    "ExportReport",
    "parse_iptables_save",
    "load_iptables_file",
    "format_iptables_save",
    "dump_iptables_file",
]

#: The chain the exporter writes into (classification rules gate forwarded
#: traffic) and the user-defined chain standing in for ``redirect_group``.
EXPORT_CHAIN = "FORWARD"
_REDIRECT_CHAIN = "REPRO-REDIRECT"

_PROTOCOL_NAMES = {
    "tcp": 6, "udp": 17, "icmp": 1, "gre": 47, "esp": 50, "ah": 51,
    "sctp": 132, "udplite": 136,
}
_PROTOCOL_NUMBERS = {number: name for name, number in _PROTOCOL_NAMES.items()}

#: Protocols iptables lets port options attach to (``-m tcp/udp/...``).
_PORT_CAPABLE = frozenset({6, 17, 132, 136})
#: Protocols the exporter emits port options for (the pair the expansion
#: mode uses; sctp/udplite would need the ``-m sctp`` match extension).
_PORT_EXPORTABLE = frozenset({6, 17})

_TARGET_ACTIONS = {
    "ACCEPT": RuleAction.FORWARD,
    "DROP": RuleAction.DROP,
    "REJECT": RuleAction.DROP,  # lenient import; exported as DROP thereafter
    "MARK": RuleAction.MODIFY,
    "NFQUEUE": RuleAction.SEND_TO_CONTROLLER,
    "REDIRECT": RuleAction.REDIRECT_GROUP,
    _REDIRECT_CHAIN: RuleAction.REDIRECT_GROUP,
}

#: Options we recognise well enough to refuse precisely.
_UNSUPPORTED_OPTIONS = {
    "-i": "input interface matches", "--in-interface": "input interface matches",
    "-o": "output interface matches", "--out-interface": "output interface matches",
    "-f": "fragment matches", "--fragment": "fragment matches",
    "-g": "goto chains", "--goto": "goto chains",
    "--tcp-flags": "tcp flag matches", "--syn": "tcp flag matches",
    "--icmp-type": "icmp type matches",
    "--state": "connection state matches", "--ctstate": "connection state matches",
    "--ports": "multiport --ports (sport-OR-dport disjunction)",
}
_UNSUPPORTED_MATCHES = {
    "state": "stateful tracking", "conntrack": "stateful tracking",
    "limit": "rate limiting", "owner": "process owner matches",
    "mac": "MAC address matches", "set": "ipset matches",
    "iprange": "arbitrary IP ranges",
}


def _error(lineno: int, message: str) -> TraceIOError:
    return TraceIOError(f"line {lineno}: {message}")


def _parse_port_range(token: str, lineno: int, option: str) -> PortRange:
    """Parse ``80`` / ``lo:hi`` / ``:hi`` / ``lo:`` into a PortRange."""
    low_text, sep, high_text = token.partition(":")
    try:
        if not sep:
            value = int(token)
            return PortRange(value, value)
        low = int(low_text) if low_text else 0
        high = int(high_text) if high_text else PORT_MAX
        return PortRange(low, high)
    except (ValueError, TraceIOError):
        raise _error(lineno, f"{option} {token!r} is not a port or port range") from None
    except Exception as exc:  # inverted/out-of-range ranges raise RuleError
        raise _error(lineno, f"{option} {token!r}: {exc}") from None


def _parse_multiport(token: str, lineno: int, option: str) -> List[PortRange]:
    items = [item for item in token.split(",") if item]
    if not items:
        raise _error(lineno, f"{option} got an empty port list")
    return [_parse_port_range(item, lineno, option) for item in items]


def _parse_prefix(token: str, lineno: int, option: str) -> Prefix:
    text = token if "/" in token else token + "/32"
    try:
        return Prefix.parse(text)
    except Exception as exc:
        raise _error(lineno, f"{option} {token!r} is not an IPv4 CIDR: {exc}") from None


def _parse_protocol(token: str, lineno: int) -> ProtocolMatch:
    if token == "all":
        return ProtocolMatch.any()
    if token in _PROTOCOL_NAMES:
        return ProtocolMatch.exact(_PROTOCOL_NAMES[token])
    try:
        value = int(token)
    except ValueError:
        raise _error(lineno, f"unknown protocol {token!r}") from None
    if not 0 <= value <= 255:
        raise _error(lineno, f"protocol number {value} out of 8-bit range")
    return ProtocolMatch.exact(value)


@dataclass
class _PendingRule:
    """One ``-A`` line, parsed but not yet expanded into model rules."""

    lineno: int
    chain: str
    src: Prefix
    dst: Prefix
    protocol: ProtocolMatch
    sports: List[PortRange]
    dports: List[PortRange]
    action: RuleAction
    metadata: Dict[str, str]


def _take_value(tokens: Sequence[str], index: int, lineno: int, option: str) -> str:
    if index + 1 >= len(tokens):
        raise _error(lineno, f"{option} is missing its argument")
    return tokens[index + 1]


def _parse_append_line(tokens: Sequence[str], lineno: int) -> _PendingRule:
    chain = tokens[1] if len(tokens) > 1 else None
    if not chain:
        raise _error(lineno, "-A is missing its chain name")
    src = Prefix.parse("0.0.0.0/0")
    dst = Prefix.parse("0.0.0.0/0")
    protocol = ProtocolMatch.any()
    sports: Optional[List[PortRange]] = None
    dports: Optional[List[PortRange]] = None
    target: Optional[str] = None
    multiport = False
    metadata: Dict[str, str] = {}
    index = 2
    while index < len(tokens):
        token = tokens[index]
        if token == "!":
            raise _error(lineno, "match negation ('!') is not supported")
        if token in _UNSUPPORTED_OPTIONS:
            raise _error(
                lineno, f"{token} is not supported ({_UNSUPPORTED_OPTIONS[token]})"
            )
        if token in ("-s", "--source", "--src"):
            src = _parse_prefix(_take_value(tokens, index, lineno, token), lineno, token)
            index += 2
        elif token in ("-d", "--destination", "--dst"):
            dst = _parse_prefix(_take_value(tokens, index, lineno, token), lineno, token)
            index += 2
        elif token in ("-p", "--protocol"):
            protocol = _parse_protocol(_take_value(tokens, index, lineno, token), lineno)
            index += 2
        elif token in ("-m", "--match"):
            module = _take_value(tokens, index, lineno, token)
            if module in _UNSUPPORTED_MATCHES:
                raise _error(
                    lineno,
                    f"match extension {module!r} is not supported "
                    f"({_UNSUPPORTED_MATCHES[module]})",
                )
            if module == "multiport":
                multiport = True
            elif module not in ("tcp", "udp", "sctp", "udplite", "comment"):
                raise _error(lineno, f"match extension {module!r} is not supported")
            index += 2
        elif token in ("--sport", "--source-port"):
            sports = [_parse_port_range(_take_value(tokens, index, lineno, token), lineno, token)]
            index += 2
        elif token in ("--dport", "--destination-port"):
            dports = [_parse_port_range(_take_value(tokens, index, lineno, token), lineno, token)]
            index += 2
        elif token in ("--sports", "--source-ports"):
            if not multiport:
                raise _error(lineno, f"{token} needs '-m multiport'")
            sports = _parse_multiport(_take_value(tokens, index, lineno, token), lineno, token)
            index += 2
        elif token in ("--dports", "--destination-ports"):
            if not multiport:
                raise _error(lineno, f"{token} needs '-m multiport'")
            dports = _parse_multiport(_take_value(tokens, index, lineno, token), lineno, token)
            index += 2
        elif token == "--comment":
            comment = _take_value(tokens, index, lineno, token)
            if comment.startswith("rid:"):
                metadata["source_rule_id"] = comment[len("rid:"):]
            else:
                metadata["comment"] = comment
            index += 2
        elif token in ("-j", "--jump"):
            target = _take_value(tokens, index, lineno, token)
            index += 2
        elif token in ("--set-mark", "--set-xmark", "--queue-num", "--to-ports",
                       "--reject-with"):
            # Target options: recorded, not modelled (the architecture
            # returns the action, it never executes it).
            metadata[token.lstrip("-").replace("-", "_")] = _take_value(
                tokens, index, lineno, token
            )
            index += 2
        else:
            raise _error(lineno, f"unsupported option {token!r}")
    if target is None:
        raise _error(lineno, "rule has no -j target (counter-only rules carry no action)")
    if target not in _TARGET_ACTIONS:
        raise _error(lineno, f"unsupported target {target!r}")
    if (sports or dports) and protocol.wildcard:
        raise _error(lineno, "port matches need an explicit -p protocol")
    if (sports or dports) and not protocol.wildcard and protocol.value not in _PORT_CAPABLE:
        name = _PROTOCOL_NUMBERS.get(protocol.value, str(protocol.value))
        raise _error(lineno, f"port matches are meaningless for protocol {name}")
    return _PendingRule(
        lineno=lineno,
        chain=chain,
        src=src,
        dst=dst,
        protocol=protocol,
        sports=sports or [PortRange.wildcard()],
        dports=dports or [PortRange.wildcard()],
        action=_TARGET_ACTIONS[target],
        metadata=metadata,
    )


def parse_iptables_save(
    lines: Iterable[str], name: str = "iptables"
) -> RuleSet:
    """Parse iptables-save text into a :class:`RuleSet`.

    Rule priority is file order (earlier lines win, the iptables first-match
    convention).  Multiport lists expand into one rule per list element —
    per direction-pair combination when both directions carry lists — in
    list order, so expanded rules keep their relative position.  Only the
    ``filter`` table is supported; any rule in another table is a precise,
    line-numbered error.
    """
    pending: List[_PendingRule] = []
    table: Optional[str] = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("*"):
            table = line[1:].strip()
            continue
        if line.startswith(":"):
            if not line[1:].split():
                raise _error(lineno, "chain declaration ':' is missing its chain name")
            continue
        if line == "COMMIT":
            table = None
            continue
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise _error(lineno, f"unbalanced quoting: {exc}") from None
        if tokens[0] in ("-A", "--append"):
            if table is not None and table != "filter":
                raise _error(
                    lineno, f"table {table!r} is not supported (only 'filter')"
                )
            pending.append(_parse_append_line(tokens, lineno))
        else:
            raise _error(lineno, f"unsupported directive {tokens[0]!r}")
    ruleset = RuleSet(name=name)
    position = 0
    for entry in pending:
        for sport in entry.sports:
            for dport in entry.dports:
                metadata = dict(entry.metadata)
                metadata["iptables_chain"] = entry.chain
                metadata["iptables_line"] = str(entry.lineno)
                ruleset.add(
                    Rule(
                        rule_id=position,
                        priority=position,
                        src_prefix=entry.src,
                        dst_prefix=entry.dst,
                        src_port=sport,
                        dst_port=dport,
                        protocol=entry.protocol,
                        action=entry.action,
                        metadata=metadata,
                    )
                )
                position += 1
    return ruleset


def load_iptables_file(path: Union[str, Path], name: Optional[str] = None) -> RuleSet:
    """Load an iptables-save dump from disk."""
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise TraceIOError(f"{path}: {exc.strerror or exc}") from None
    with handle:
        return parse_iptables_save(handle, name=name or path.stem)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExportNote:
    """One per-rule export caveat (see :class:`ExportReport`)."""

    rule_id: int
    category: str
    detail: str


@dataclass
class ExportReport:
    """What the exporter did beyond 1:1 translation.

    ``expanded`` lists rules emitted as a ``-p tcp`` + ``-p udp`` pair
    (wildcard protocol with port constraints — exact over realizable
    packets).  ``notes`` carries the caveated rewrites: category ``lossy``
    (an expansion whose port ranges both contain 0, so ports-``(0,0)``
    packets of other protocols are no longer caught), ``ports_dropped``
    (port constraint on a non-port protocol, vacuous over realizable
    packets, dropped) and ``omitted`` (unmatchable over realizable packets,
    not emitted at all).  ``exact`` is True when the export is semantically
    identical over realizable packets.
    """

    rules_in: int = 0
    lines_out: int = 0
    expanded: List[int] = field(default_factory=list)
    notes: List[ExportNote] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return not self.notes


def _rule_source(source) -> List[Rule]:
    """Rules in priority order from a RuleSet, RuleProgram or iterable."""
    rules = getattr(source, "rules", None)
    if callable(rules):  # RuleSet
        ordered = rules()
    elif rules is not None:  # RuleProgram (a tuple attribute)
        ordered = list(rules)
    else:
        ordered = list(source)
    return sorted(ordered, key=lambda rule: rule.priority)


def _format_port(port_range: PortRange) -> str:
    if port_range.is_exact:
        return str(port_range.low)
    return f"{port_range.low}:{port_range.high}"


def _format_line(
    rule: Rule, chain: str, protocol: Optional[int], with_ports: bool
) -> str:
    parts = ["-A", chain]
    if not rule.src_prefix.is_wildcard:
        parts += ["-s", format_ipv4_prefix(rule.src_prefix.value, rule.src_prefix.length)]
    if not rule.dst_prefix.is_wildcard:
        parts += ["-d", format_ipv4_prefix(rule.dst_prefix.value, rule.dst_prefix.length)]
    if protocol is not None:
        parts += ["-p", _PROTOCOL_NUMBERS.get(protocol, str(protocol))]
    if with_ports:
        if not rule.src_port.is_wildcard:
            parts += ["--sport", _format_port(rule.src_port)]
        if not rule.dst_port.is_wildcard:
            parts += ["--dport", _format_port(rule.dst_port)]
    parts += ["-m", "comment", "--comment", f'"rid:{rule.rule_id}"']
    action = rule.action
    if action is RuleAction.FORWARD:
        parts += ["-j", "ACCEPT"]
    elif action is RuleAction.DROP:
        parts += ["-j", "DROP"]
    elif action is RuleAction.MODIFY:
        parts += ["-j", "MARK", "--set-xmark", "0x1/0xffffffff"]
    elif action is RuleAction.SEND_TO_CONTROLLER:
        parts += ["-j", "NFQUEUE", "--queue-num", "0"]
    else:  # REDIRECT_GROUP
        parts += ["-j", _REDIRECT_CHAIN]
    return " ".join(parts)


def format_iptables_save(
    source,
    chain: str = EXPORT_CHAIN,
    mode: str = "expand",
) -> Tuple[str, ExportReport]:
    """Render rules as loadable iptables-save text; returns (text, report).

    ``source`` is a :class:`RuleSet`, a :class:`~repro.api.control.RuleProgram`
    or any iterable of rules; output order is priority order.  ``mode``
    selects what happens to rules iptables cannot express 1:1 (module
    docstring): ``"expand"`` rewrites them exactly-over-realizable-packets
    and reports, ``"strict"`` raises :class:`TraceIOError` instead.
    """
    if mode not in ("expand", "strict"):
        raise TraceIOError(f"unknown export mode {mode!r}; choose 'expand' or 'strict'")
    rules = _rule_source(source)
    report = ExportReport(rules_in=len(rules))
    lines: List[str] = []
    uses_redirect = False
    for rule in rules:
        has_ports = not (rule.src_port.is_wildcard and rule.dst_port.is_wildcard)
        uses_redirect = uses_redirect or rule.action is RuleAction.REDIRECT_GROUP
        if not has_ports:
            protocol = None if rule.protocol.wildcard else rule.protocol.value
            lines.append(_format_line(rule, chain, protocol, with_ports=False))
            continue
        if not rule.protocol.wildcard and rule.protocol.value in _PORT_EXPORTABLE:
            lines.append(_format_line(rule, chain, rule.protocol.value, with_ports=True))
            continue
        if rule.protocol.wildcard:
            # Inexpressible: port matches need a -p protocol.  Expand into a
            # tcp+udp pair (one rid, adjacent lines, order preserved).
            lossy = rule.src_port.contains(0) and rule.dst_port.contains(0)
            if mode == "strict":
                raise TraceIOError(
                    f"rule {rule.rule_id}: wildcard-protocol rules with port "
                    "constraints cannot be expressed in iptables (strict mode)"
                )
            report.expanded.append(rule.rule_id)
            if lossy:
                report.notes.append(
                    ExportNote(
                        rule.rule_id,
                        "lossy",
                        "tcp+udp expansion, but both port ranges contain 0: "
                        "ports-(0,0) packets of other protocols escape it",
                    )
                )
            lines.append(_format_line(rule, chain, 6, with_ports=True))
            lines.append(_format_line(rule, chain, 17, with_ports=True))
            continue
        # Exact non-port protocol with port constraints.  Realizable packets
        # of such protocols carry ports (0, 0) (see repro.io.pcap).
        if rule.src_port.contains(0) and rule.dst_port.contains(0):
            if mode == "strict":
                raise TraceIOError(
                    f"rule {rule.rule_id}: port constraints on a non-port "
                    "protocol cannot be expressed in iptables (strict mode)"
                )
            report.notes.append(
                ExportNote(
                    rule.rule_id,
                    "ports_dropped",
                    "port constraint on a non-port protocol dropped "
                    "(vacuous over realizable packets)",
                )
            )
            lines.append(_format_line(rule, chain, rule.protocol.value, with_ports=False))
        else:
            if mode == "strict":
                raise TraceIOError(
                    f"rule {rule.rule_id}: port constraints on a non-port "
                    "protocol cannot be expressed in iptables (strict mode)"
                )
            report.notes.append(
                ExportNote(
                    rule.rule_id,
                    "omitted",
                    "matches no realizable packet (non-port protocol with a "
                    "port range excluding 0); not emitted",
                )
            )
    report.lines_out = len(lines)
    preamble = ["*filter", f":{chain} ACCEPT [0:0]"]
    if uses_redirect:
        preamble.append(f":{_REDIRECT_CHAIN} - [0:0]")
    text = "\n".join(preamble + lines + ["COMMIT"]) + "\n"
    return text, report


def dump_iptables_file(
    source,
    path: Union[str, Path],
    chain: str = EXPORT_CHAIN,
    mode: str = "expand",
) -> ExportReport:
    """Write an iptables-save dump to disk; returns the :class:`ExportReport`."""
    text, report = format_iptables_save(source, chain=chain, mode=mode)
    Path(path).write_text(text, encoding="utf-8")
    return report
