"""Tests for the streaming pcap front-end (``repro.io.pcap``).

The golden-bytes tests pin the checked-in captures under ``tests/data/`` to
their generator recipe (``tests/pcap_fixtures.py``): regenerating each
fixture in memory must reproduce the checked-in file byte-for-byte, and
parsing it must yield the expected 5-tuples and frame accounting.  The
round-trip tests close the loop with the writer across every format variant,
and the allocation guard proves the packed read path never materialises a
``PacketHeader``.  The fuzz tests feed the reader arbitrary bytes: only
``TraceIOError`` may escape.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TraceIOError
from repro.io import pcap
from repro.io.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PORT_PROTOCOLS,
    PcapStats,
    read_pcap,
    read_pcap_packed,
    scan_pcap,
    write_pcap,
)
from repro.perf.transport import HEADER_BYTES, pack_headers, unpack_headers
from repro.rules.classbench import FilterFlavor, generate_ruleset
from repro.rules.packet import PacketHeader
from repro.rules.trace import generate_trace

from pcap_fixtures import (
    DATA_DIR,
    FIXTURES,
    GOLDEN_TRANSPORT,
    GOLDEN_TUPLES,
    MIXED_EXPECTED,
    MIXED_SKIPPED,
    MIXED_TRUNCATED,
)


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_checked_in_bytes_match_generator(self, name):
        """The fixture files are exactly what their recipe produces."""
        checked_in = (DATA_DIR / name).read_bytes()
        assert checked_in == FIXTURES[name](), (
            f"{name} drifted from its recipe in tests/pcap_fixtures.py; "
            "regenerate with `python tests/pcap_fixtures.py`"
        )

    @pytest.mark.parametrize(
        "name", ["golden_le_micro.pcap", "golden_be_nano.pcap"]
    )
    def test_golden_word_mode_parses_exact_tuples(self, name):
        stats = PcapStats()
        got = list(scan_pcap(str(DATA_DIR / name), ports="word", stats=stats))
        assert got == GOLDEN_TUPLES
        assert (stats.packets, stats.skipped, stats.truncated) == (6, 0, 0)
        assert stats.frames == 6

    def test_golden_transport_mode_zeroes_portless_protocols(self):
        got = list(
            scan_pcap(str(DATA_DIR / "golden_le_micro.pcap"), ports="transport")
        )
        assert got == GOLDEN_TRANSPORT
        # The two readings differ exactly on the non-port protocols.
        for word, transport in zip(GOLDEN_TUPLES, got):
            if word[4] in PORT_PROTOCOLS:
                assert transport == word
            else:
                assert transport[2] == transport[3] == 0

    def test_mixed_capture_counts_skips_and_truncations(self):
        stats = PcapStats()
        got = list(
            scan_pcap(str(DATA_DIR / "mixed_nonip.pcap"), ports="word", stats=stats)
        )
        assert got == MIXED_EXPECTED
        assert stats.skipped == MIXED_SKIPPED
        assert stats.truncated == MIXED_TRUNCATED
        assert stats.frames == len(MIXED_EXPECTED) + MIXED_SKIPPED + MIXED_TRUNCATED

    def test_torn_tail_ends_scan_gracefully(self):
        stats = PcapStats()
        got = list(
            scan_pcap(str(DATA_DIR / "truncated_tail.pcap"), ports="word", stats=stats)
        )
        assert got == GOLDEN_TUPLES[:-1]
        assert stats.truncated == 1

    def test_read_pcap_materialises_headers(self):
        headers = read_pcap(str(DATA_DIR / "golden_le_micro.pcap"), ports="word")
        assert headers == [PacketHeader(*t) for t in GOLDEN_TUPLES]


class TestRoundTrip:
    @pytest.mark.parametrize("byte_order", ["little", "big"])
    @pytest.mark.parametrize("nanosecond", [False, True])
    @pytest.mark.parametrize("linktype", [LINKTYPE_ETHERNET, LINKTYPE_RAW_IP])
    def test_synthetic_trace_roundtrips_bit_exact(
        self, tmp_path, byte_order, nanosecond, linktype
    ):
        """write -> word-mode read is the identity on every format variant."""
        ruleset = generate_ruleset(FilterFlavor.ACL, 80, seed=5)
        trace = generate_trace(ruleset, count=150, seed=6)
        path = tmp_path / "trace.pcap"
        written = write_pcap(
            str(path), trace, linktype=linktype,
            byte_order=byte_order, nanosecond=nanosecond, seed=9,
        )
        assert written == len(trace)
        stats = PcapStats()
        assert read_pcap(str(path), ports="word", stats=stats) == trace
        assert (stats.packets, stats.skipped, stats.truncated) == (len(trace), 0, 0)

    def test_writer_is_deterministic_given_seed(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.pcap", "b.pcap", "c.pcap"))
        write_pcap(str(a), GOLDEN_TUPLES, seed=3)
        write_pcap(str(b), GOLDEN_TUPLES, seed=3)
        write_pcap(str(c), GOLDEN_TUPLES, seed=4)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_writer_accepts_headers_and_tuples_alike(self, tmp_path):
        mixed = [PacketHeader(*GOLDEN_TUPLES[0]), GOLDEN_TUPLES[1]]
        path = tmp_path / "mixed.pcap"
        write_pcap(str(path), mixed, seed=0)
        assert list(scan_pcap(str(path), ports="word")) == GOLDEN_TUPLES[:2]


class TestPackedPath:
    def test_packed_chunks_equal_codec_output(self, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(str(path), GOLDEN_TUPLES, seed=1)
        chunks = list(read_pcap_packed(str(path), chunk_size=4, ports="word"))
        assert [chunk.count for chunk in chunks] == [4, 2]
        data = b"".join(chunk.data for chunk in chunks)
        assert data == pack_headers([PacketHeader(*t) for t in GOLDEN_TUPLES])
        assert unpack_headers(data, 6) == [PacketHeader(*t) for t in GOLDEN_TUPLES]

    def test_packed_read_path_allocates_no_packet_headers(
        self, tmp_path, monkeypatch
    ):
        """10K-packet acceptance: zero PacketHeader allocations while reading."""
        ruleset = generate_ruleset(FilterFlavor.ACL, 100, seed=11)
        trace = generate_trace(ruleset, count=10_000, seed=12)
        expected = pack_headers(trace)
        path = tmp_path / "big.pcap"
        write_pcap(str(path), trace, seed=13)

        def poisoned(self):
            raise AssertionError("PacketHeader allocated on the packed read path")

        monkeypatch.setattr(PacketHeader, "__post_init__", poisoned)
        stats = PcapStats()
        chunks = list(
            read_pcap_packed(str(path), chunk_size=256, ports="word", stats=stats)
        )
        monkeypatch.undo()
        assert stats.packets == 10_000
        assert sum(chunk.count for chunk in chunks) == 10_000
        assert b"".join(chunk.data for chunk in chunks) == expected
        assert all(len(c.data) == c.count * HEADER_BYTES for c in chunks)


class TestErrorPaths:
    def test_missing_file_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceIOError, match="no-such"):
            list(scan_pcap(str(tmp_path / "no-such.pcap")))

    def test_unknown_magic_rejected_with_offset(self, tmp_path):
        path = tmp_path / "not.pcap"
        path.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)  # pcapng magic
        with pytest.raises(TraceIOError, match="offset 0.*pcapng"):
            list(scan_pcap(str(path)))

    def test_short_global_header_rejected(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(struct.pack("<I", 0xA1B2C3D4) + b"\x00" * 5)
        with pytest.raises(TraceIOError, match="truncated pcap global header"):
            list(scan_pcap(str(path)))

    def test_unsupported_linktype_rejected(self, tmp_path):
        path = tmp_path / "wifi.pcap"
        path.write_bytes(
            struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 105)
        )
        with pytest.raises(TraceIOError, match="linktype 105"):
            list(scan_pcap(str(path)))

    def test_unknown_port_mode_rejected(self):
        with pytest.raises(TraceIOError, match="port mode"):
            list(scan_pcap(str(DATA_DIR / "golden_le_micro.pcap"), ports="l4"))

    def test_writer_rejects_bad_parameters(self, tmp_path):
        path = str(tmp_path / "out.pcap")
        with pytest.raises(TraceIOError, match="linktype"):
            write_pcap(path, [], linktype=105)
        with pytest.raises(TraceIOError, match="byte_order"):
            write_pcap(path, [], byte_order="middle")

    def test_oversized_caplen_rejected_with_offset(self, tmp_path):
        """A record claiming more than libpcap's maximum is corrupt, not torn.

        The scan must raise before it reads (a read sized by the claim would
        allocate it), naming the record's byte offset.
        """
        path = tmp_path / "oversized.pcap"
        write_pcap(str(path), GOLDEN_TUPLES[:1], seed=1)
        offset = path.stat().st_size
        with path.open("ab") as stream:
            stream.write(struct.pack("<IIII", 0, 0, 262_145, 262_145) + b"\x45" * 40)
        stats = PcapStats()
        scanned = []
        with pytest.raises(TraceIOError, match=f"offset {offset} .*caplen 262145"):
            for five in scan_pcap(str(path), ports="word", stats=stats):
                scanned.append(five)
        assert scanned == GOLDEN_TUPLES[:1]
        assert stats.truncated == 0

    def test_caplen_at_the_maximum_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "torn.pcap"
        write_pcap(str(path), GOLDEN_TUPLES[:1], seed=1)
        with path.open("ab") as stream:
            stream.write(struct.pack("<IIII", 0, 0, 262_144, 262_144) + b"\x45" * 40)
        stats = PcapStats()
        assert list(scan_pcap(str(path), ports="word", stats=stats)) == GOLDEN_TUPLES[:1]
        assert (stats.packets, stats.truncated) == (1, 1)


#: The classic pcap magics (microsecond, nanosecond) as read in file order.
MAGICS = (0xA1B2C3D4, 0xA1B23C4D)


def _oversized_record(data: bytes):
    """Offset of the first record the scan reaches that claims too many bytes.

    None when the file has no pcap magic, or when every record the scan
    reaches fits (it then ends cleanly or at a torn tail).
    """
    for order in "<>":
        if len(data) >= 24 and struct.unpack_from(order + "I", data)[0] in MAGICS:
            break
    else:
        return None
    offset = 24
    while offset + 16 <= len(data):
        caplen = struct.unpack_from(order + "I", data, offset + 8)[0]
        if caplen > pcap.MAX_CAPLEN:
            return offset
        offset += 16 + caplen
    return None


def _scan_bytes(path, data: bytes, ports: str = "transport"):
    """Scan ``data`` as a capture: (tuples or the TraceIOError, stats, oversized)."""
    oversized = _oversized_record(data)
    path.write_bytes(data)
    stats = PcapStats()
    try:
        return list(scan_pcap(str(path), ports=ports, stats=stats)), stats, oversized
    except TraceIOError as exc:
        return exc, stats, oversized


FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestFuzz:
    """Arbitrary bytes: only ``TraceIOError`` escapes, and a clean scan's
    tuples are exactly the ones ``stats.packets`` counts."""

    @FUZZ
    @given(
        order=st.sampled_from("<>"),
        magic=st.sampled_from(MAGICS),
        linktype=st.sampled_from([LINKTYPE_ETHERNET, LINKTYPE_RAW_IP]),
        frames=st.lists(st.binary(max_size=80), max_size=4),
        tail=st.binary(max_size=64),
        ports=st.sampled_from(["transport", "word"]),
    )
    def test_valid_header_then_arbitrary_bytes(
        self, tmp_path, order, magic, linktype, frames, tail, ports
    ):
        """Well-framed arbitrary frames, then arbitrary bytes (whose first 16
        form a record header with an arbitrary ``caplen``)."""
        data = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)
        for frame in frames:
            data += struct.pack(order + "IIII", 0, 0, len(frame), len(frame)) + frame
        data += tail
        outcome, stats, oversized = _scan_bytes(tmp_path / "fuzz.pcap", data, ports)
        if isinstance(outcome, TraceIOError):
            assert oversized is not None and f"offset {oversized} " in str(outcome)
        else:
            assert oversized is None
            assert len(outcome) == stats.packets
            assert stats.frames >= len(frames)

    @FUZZ
    @given(
        header=st.one_of(
            st.binary(min_size=24, max_size=24),
            st.builds(
                lambda order, magic, rest: struct.pack(order + "I", magic) + rest,
                st.sampled_from("<>"),
                st.sampled_from(MAGICS),
                st.binary(min_size=20, max_size=20),
            ),
        ),
        tail=st.binary(max_size=64),
    )
    def test_arbitrary_global_header(self, tmp_path, header, tail):
        outcome, stats, oversized = _scan_bytes(tmp_path / "fuzz.pcap", header + tail)
        if isinstance(outcome, TraceIOError):
            return
        assert oversized is None
        assert len(outcome) == stats.packets
