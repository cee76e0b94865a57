"""Tests for iptables-save import/export (``repro.io.iptables``).

Covers precise line-numbered rejection of the unsupported surface, multiport
expansion semantics (including the open-ended range forms), hypothesis
round-trip properties with exact port-range boundaries, fuzzed input (only a
line-numbered ``TraceIOError`` may escape), and the acceptance oracle: an
exported-then-reimported ClassBench ACL ruleset must classify every
realizable packet identically to the original, rule-for-rule.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TraceIOError
from repro.io.iptables import (
    dump_iptables_file,
    format_iptables_save,
    load_iptables_file,
    parse_iptables_save,
)
from repro.io.pcap import PORT_PROTOCOLS
from repro.rules.classbench import FilterFlavor, generate_ruleset
from repro.rules.packet import PacketHeader
from repro.rules.rule import Rule, RuleAction
from repro.rules.ruleset import RuleSet
from repro.rules.trace import generate_trace


def _parse(text: str) -> RuleSet:
    return parse_iptables_save(text.strip().splitlines())


class TestImport:
    def test_basic_fields(self):
        ruleset = _parse(
            """
            *filter
            :FORWARD ACCEPT [0:0]
            -A FORWARD -s 10.0.0.0/8 -d 192.168.1.0/24 -p tcp --dport 80 -j ACCEPT
            -A FORWARD -p udp --sport 53 -j DROP
            -A FORWARD -j DROP
            COMMIT
            """
        )
        rules = ruleset.rules()
        assert len(rules) == 3
        first = rules[0]
        assert (first.src_prefix.value >> 24, first.src_prefix.length) == (10, 8)
        assert first.dst_prefix.length == 24
        assert (first.dst_port.low, first.dst_port.high) == (80, 80)
        assert first.src_port.is_wildcard
        assert first.protocol.value == 6
        assert first.action is RuleAction.FORWARD
        assert first.metadata["iptables_line"] == "3"
        assert rules[1].action is RuleAction.DROP
        assert (rules[1].src_port.low, rules[1].src_port.high) == (53, 53)
        # Priorities follow file order: earlier lines win.
        assert [rule.priority for rule in rules] == [0, 1, 2]

    def test_host_address_gets_a_32_prefix(self):
        rule = _parse("-A FORWARD -s 10.1.2.3 -j DROP").rules()[0]
        assert rule.src_prefix.length == 32

    @pytest.mark.parametrize(
        "token,low,high",
        [("80", 80, 80), ("80:90", 80, 90), (":90", 0, 90), ("80:", 80, 65535)],
    )
    def test_port_range_forms(self, token, low, high):
        """The open-ended ``:hi`` / ``lo:`` forms normalise exactly."""
        rule = _parse(f"-A FORWARD -p tcp --dport {token} -j ACCEPT").rules()[0]
        assert (rule.dst_port.low, rule.dst_port.high) == (low, high)

    def test_multiport_cross_product_expansion(self):
        ruleset = _parse(
            "-A FORWARD -p tcp -m multiport --sports 10,20:30 "
            "-m multiport --dports 80,443 -j DROP"
        )
        rules = ruleset.rules()
        assert [
            ((r.src_port.low, r.src_port.high), (r.dst_port.low, r.dst_port.high))
            for r in rules
        ] == [
            ((10, 10), (80, 80)),
            ((10, 10), (443, 443)),
            ((20, 30), (80, 80)),
            ((20, 30), (443, 443)),
        ]
        # Expanded rules renumber sequentially (unique id and priority).
        assert [r.rule_id for r in rules] == [0, 1, 2, 3]
        assert {r.metadata["iptables_line"] for r in rules} == {"1"}

    def test_action_mapping(self):
        ruleset = _parse(
            """
            -A FORWARD -j ACCEPT
            -A FORWARD -j DROP
            -A FORWARD -j REJECT --reject-with icmp-port-unreachable
            -A FORWARD -j MARK --set-xmark 0x1/0xffffffff
            -A FORWARD -j NFQUEUE --queue-num 0
            -A FORWARD -j REPRO-REDIRECT
            """
        )
        assert [rule.action for rule in ruleset.rules()] == [
            RuleAction.FORWARD,
            RuleAction.DROP,
            RuleAction.DROP,
            RuleAction.MODIFY,
            RuleAction.SEND_TO_CONTROLLER,
            RuleAction.REDIRECT_GROUP,
        ]

    def test_rid_comment_restores_source_rule_id(self):
        rule = _parse(
            '-A FORWARD -m comment --comment "rid:42" -j ACCEPT'
        ).rules()[0]
        assert rule.metadata["source_rule_id"] == "42"

    @pytest.mark.parametrize(
        "line,lineno,message",
        [
            ("-A FORWARD -i eth0 -j ACCEPT", 1, "interface"),
            ("-A FORWARD -m conntrack --ctstate NEW -j ACCEPT", 1, "conntrack"),
            ("-A FORWARD ! -s 10.0.0.0/8 -j DROP", 1, "negation"),
            ("-A FORWARD -s 10.0.0.0/8", 1, "no -j target"),
            ("-A FORWARD --dport 80 -j ACCEPT", 1, "explicit -p protocol"),
            ("-A FORWARD -p icmp --dport 80 -j ACCEPT", 1, "meaningless"),
            ("-A FORWARD -p tcp --dports 1,2 -j ACCEPT", 1, "multiport"),
            ("-A FORWARD -j SNAT", 1, "unsupported target"),
            ("-A FORWARD -s 10.0.0.0/33 -j DROP", 1, "CIDR"),
            ("-A FORWARD -p tcp --dport 90:80 -j DROP", 1, "90:80"),
            (":", 1, "chain name"),
            ("*filter\n:", 2, "chain name"),
            ("*filter\n:   \nCOMMIT", 2, "chain name"),
        ],
    )
    def test_rejections_carry_the_line_number(self, line, lineno, message):
        with pytest.raises(TraceIOError, match=f"line {lineno}:.*{message}"):
            _parse(line)

    def test_non_filter_table_rejected_with_line_number(self):
        with pytest.raises(TraceIOError, match="line 3:.*'nat'"):
            _parse(
                """
                *nat
                :PREROUTING ACCEPT [0:0]
                -A PREROUTING -j ACCEPT
                COMMIT
                """
            )

    def test_error_line_numbers_count_the_physical_file(self):
        with pytest.raises(TraceIOError, match="line 5:"):
            _parse(
                """
                *filter
                :FORWARD ACCEPT [0:0]
                -A FORWARD -j ACCEPT

                -A FORWARD -j BOGUS
                COMMIT
                """
            )


#: The importer's own vocabulary: directives, options, values and targets,
#: well-formed and not.
_TOKENS = [
    "-A", "--append", "FORWARD", "*filter", "*nat", ":", ":FORWARD", "ACCEPT", "[0:0]",
    "COMMIT", "#", "-s", "-d", "10.0.0.0/8", "10.1.2.3", "300.0.0.0/8", "-p", "tcp",
    "udp", "icmp", "all", "6", "256", "--sport", "--dport", "80", "80:90", ":90", "90:",
    "90:80", "70000", "-m", "multiport", "comment", "conntrack", "--sports", "--dports",
    "1,2:3", ",", "--comment", "rid:7", '"a b"', "'", "!", "-i", "eth0", "-j", "DROP",
    "REJECT", "MARK", "NFQUEUE", "REDIRECT", "SNAT", "--set-xmark", "0x1/0xffffffff",
    "--queue-num",
]

_token_line = st.lists(st.sampled_from(_TOKENS), max_size=10).map(" ".join)
_structure_line = st.sampled_from(
    ["", "# note", "*filter", "*nat", ":FORWARD ACCEPT [0:0]", ":", ":  ", "COMMIT"]
)


def _assert_imports_or_names_a_line(lines):
    """The import succeeds, or fails with a TraceIOError naming an input line."""
    try:
        ruleset = parse_iptables_save(lines)
    except TraceIOError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        assert match and 1 <= int(match.group(1)) <= len(lines), str(exc)
        return
    for rule in ruleset.rules():
        assert 1 <= int(rule.metadata["iptables_line"]) <= len(lines)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.text(max_size=30), max_size=6))
    def test_arbitrary_lines(self, lines):
        _assert_imports_or_names_a_line(lines)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                _structure_line,
                _token_line,
                _token_line.map(lambda line: "-A FORWARD " + line),
            ),
            max_size=6,
        )
    )
    def test_lines_of_importer_tokens(self, lines):
        _assert_imports_or_names_a_line(lines)


class TestExport:
    def test_output_is_reimportable_and_declares_redirect_chain(
        self, handcrafted_ruleset
    ):
        text, report = format_iptables_save(handcrafted_ruleset)
        assert report.exact and not report.expanded
        assert text.startswith("*filter\n:FORWARD ACCEPT [0:0]\n")
        assert ":REPRO-REDIRECT - [0:0]" in text  # rule 2 redirects
        assert text.rstrip().endswith("COMMIT")
        reimported = parse_iptables_save(text.splitlines())
        assert len(reimported) == len(handcrafted_ruleset)
        for original, back in zip(handcrafted_ruleset.rules(), reimported.rules()):
            assert int(back.metadata["source_rule_id"]) == original.rule_id
            assert back.action is original.action
            assert back.src_prefix == original.src_prefix
            assert back.dst_prefix == original.dst_prefix
            assert back.src_port == original.src_port
            assert back.dst_port == original.dst_port
            assert back.protocol == original.protocol

    def test_wildcard_protocol_with_ports_expands_to_tcp_udp_pair(self):
        rule = Rule.build(7, 0, dst_port="80:90", action=RuleAction.DROP)
        text, report = format_iptables_save([rule])
        assert report.expanded == [7]
        assert report.exact  # 0 not in 80:90 -> exact over realizable packets
        lines = [line for line in text.splitlines() if line.startswith("-A")]
        assert len(lines) == 2
        assert "-p tcp" in lines[0] and "-p udp" in lines[1]
        assert all('"rid:7"' in line for line in lines)

    def test_expansion_covering_port_zero_is_flagged_lossy(self):
        rule = Rule.build(3, 0, dst_port="0:90", action=RuleAction.DROP)
        _, report = format_iptables_save([rule])
        assert [note.category for note in report.notes] == ["lossy"]

    def test_ports_on_non_port_protocol_drop_or_omit(self):
        vacuous = Rule.build(1, 0, protocol=47, dst_port="0:90")
        unmatchable = Rule.build(2, 1, protocol=47, dst_port="80:90")
        text, report = format_iptables_save([vacuous, unmatchable])
        assert sorted(note.category for note in report.notes) == [
            "omitted", "ports_dropped",
        ]
        lines = [line for line in text.splitlines() if line.startswith("-A")]
        assert len(lines) == 1 and "--dport" not in lines[0]

    def test_strict_mode_raises_instead_of_rewriting(self):
        rule = Rule.build(0, 0, dst_port="80:90")
        with pytest.raises(TraceIOError, match="strict mode"):
            format_iptables_save([rule], mode="strict")
        with pytest.raises(TraceIOError, match="export mode"):
            format_iptables_save([rule], mode="best_effort")

    def test_file_round_trip(self, tmp_path, handcrafted_ruleset):
        path = tmp_path / "fw.iptables"
        report = dump_iptables_file(handcrafted_ruleset, path)
        assert report.lines_out == len(handcrafted_ruleset)
        assert len(load_iptables_file(path)) == len(handcrafted_ruleset)

    def test_missing_file_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceIOError, match="no-such"):
            load_iptables_file(tmp_path / "no-such.iptables")


# Boundary-heavy port values: hypothesis must hit 0/65535/adjacent exactly.
_ports = st.one_of(
    st.sampled_from([0, 1, 65534, 65535]), st.integers(0, 65535)
)


@given(
    rule_id=st.integers(0, 10_000),
    protocol=st.sampled_from([6, 17]),
    src_ports=st.tuples(_ports, _ports),
    dst_ports=st.tuples(_ports, _ports),
    src_len=st.integers(0, 32),
    dst_len=st.integers(0, 32),
    src_bits=st.integers(0, 2**32 - 1),
    dst_bits=st.integers(0, 2**32 - 1),
    action=st.sampled_from(list(RuleAction)),
)
@settings(max_examples=120, deadline=None)
def test_export_import_round_trip_property(
    rule_id, protocol, src_ports, dst_ports, src_len, dst_len,
    src_bits, dst_bits, action,
):
    """tcp/udp rules survive export -> import with every field bit-exact."""

    def cidr(bits: int, length: int) -> str:
        value = (bits >> (32 - length) << (32 - length)) if length else 0
        return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}/{length}"

    src_lo, src_hi = min(src_ports), max(src_ports)
    dst_lo, dst_hi = min(dst_ports), max(dst_ports)
    rule = Rule.build(
        rule_id, 0,
        src=cidr(src_bits, src_len), dst=cidr(dst_bits, dst_len),
        src_port=f"{src_lo}:{src_hi}", dst_port=f"{dst_lo}:{dst_hi}",
        protocol=protocol, action=action,
    )
    text, report = format_iptables_save([rule])
    assert report.exact and report.lines_out == 1
    back = parse_iptables_save(text.splitlines()).rules()[0]
    assert int(back.metadata["source_rule_id"]) == rule_id
    assert back.src_prefix == rule.src_prefix
    assert back.dst_prefix == rule.dst_prefix
    assert (back.src_port.low, back.src_port.high) == (src_lo, src_hi)
    assert (back.dst_port.low, back.dst_port.high) == (dst_lo, dst_hi)
    assert back.protocol.value == protocol
    # REJECT never appears on export, so every action survives exactly.
    assert back.action is rule.action


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_import_port_ranges_match_like_the_source_text(data):
    """An imported port constraint matches exactly its textual interval."""
    lo = data.draw(_ports, label="lo")
    hi = data.draw(_ports.filter(lambda v: v >= lo), label="hi")
    probe = data.draw(st.integers(0, 65535), label="probe")
    rule = _parse(f"-A FORWARD -p tcp --dport {lo}:{hi} -j DROP").rules()[0]
    packet = PacketHeader(1, 2, 9, probe, 6)
    assert rule.matches(packet) == (lo <= probe <= hi)


def _realize(trace):
    """Realizable reading of a synthetic trace: non-port protocols carry no
    ports — exactly what ``ports="transport"`` yields on a real capture."""
    return [
        p if p.protocol in PORT_PROTOCOLS
        else PacketHeader(p.src_ip, p.dst_ip, 0, 0, p.protocol)
        for p in trace
    ]


def test_acl_export_reimport_is_semantically_identical(tmp_path):
    """Acceptance oracle: exported+reimported ACL classifies like the source.

    For every realizable packet, the highest-priority match of the
    reimported ruleset must map (via its ``rid`` comment) to the same source
    rule — same id, same action — that the original ruleset picks.
    """
    # Seed 1 yields an exact export that still exercises tcp+udp expansion
    # (14 wildcard-protocol rules with 0-free port ranges, zero notes).
    ruleset = generate_ruleset(FilterFlavor.ACL, 200, seed=1)
    path = tmp_path / "acl.iptables"
    report = dump_iptables_file(ruleset, path)
    assert report.exact, [note.detail for note in report.notes]
    assert report.expanded  # the expansion path really ran
    reimported = load_iptables_file(path)
    assert len(reimported) == len(ruleset) + len(report.expanded)

    trace = _realize(generate_trace(ruleset, count=3000, seed=77))
    mismatches = 0
    for packet in trace:
        original = ruleset.highest_priority_match(packet)
        back = reimported.highest_priority_match(packet)
        if original is None:
            mismatches += back is not None
            continue
        if back is None:
            mismatches += 1
            continue
        if int(back.metadata["source_rule_id"]) != original.rule_id:
            mismatches += 1
        elif back.action is not original.action:
            mismatches += 1
    assert mismatches == 0
