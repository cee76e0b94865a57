"""Streaming classic-pcap trace front-end.

Real capture files are the workload the ROADMAP's ingestion item asks for:
this module streams 5-tuples out of classic pcap (``tcpdump``) files straight
into the packed 104-bit header codec of :mod:`repro.perf.transport` — the
read path never materialises a :class:`~repro.rules.packet.PacketHeader`, it
yields plain integer tuples that :func:`~repro.perf.transport.iter_packed_chunks`
packs into bounded :class:`~repro.perf.transport.PackedChunk` words ready for
:class:`~repro.perf.parallel.ParallelSession` descriptor dispatch.

Format coverage (stdlib-only, ``struct`` over a buffered file):

* all four classic magics — microsecond and nanosecond resolution, either
  byte order (``0xa1b2c3d4`` / ``0xa1b23c4d`` and their swaps);
* linktype 1 (``EN10MB`` ethernet, including stacked 802.1Q/802.1ad VLAN
  tags) and linktype 101 (``RAW`` IP);
* IPv4 with options (IHL honoured) and fragments (non-first fragments carry
  no L4 header, so their ports read as zero);
* TCP/UDP/SCTP/UDP-Lite source/destination ports; other protocols and
  non-IPv4 frames are counted, not errors (see :class:`PcapStats`).

Two port-extraction modes bridge the gap between "what the transport layer
means" and "what a hardware header extractor does":

* ``ports="transport"`` (default) — real L4 ports for the port-bearing
  protocols, zeros otherwise.  The faithful reading of a real capture.
* ``ports="word"`` — the first 4 bytes after the IP header, unconditionally,
  the way a fixed-offset hardware extractor slices the header word.  This is
  the exact inverse of :func:`write_pcap` for *every* protocol, so synthetic
  traces (whose non-port protocols carry nonzero port fields) round-trip to
  capture files bit-exactly.

:func:`write_pcap` is the seeded inverse: it renders any 5-tuple stream as a
loadable capture file (deterministic MACs/timestamps given ``seed``), used
for the checked-in golden fixtures and the ``ingest`` differential column.

pcapng is out of scope here (see ROADMAP follow-ups); classic pcap is what
``tcpdump -w`` and the public trace archives ship.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import TraceIOError
from repro.perf.transport import FiveTuple, PackedChunk, iter_packed_chunks
from repro.rules.packet import PacketHeader

__all__ = [
    "LINKTYPE_ETHERNET",
    "LINKTYPE_RAW_IP",
    "MAX_CAPLEN",
    "PORT_PROTOCOLS",
    "PcapStats",
    "scan_pcap",
    "read_pcap",
    "read_pcap_packed",
    "write_pcap",
]

#: DLT_EN10MB — frames start with a 14-byte ethernet header.
LINKTYPE_ETHERNET = 1
#: DLT_RAW / LINKTYPE_RAW — frames start directly at the IP header.
LINKTYPE_RAW_IP = 101

#: Protocols whose L4 header leads with 16-bit source/destination ports.
PORT_PROTOCOLS = frozenset({6, 17, 132, 136})  # TCP, UDP, SCTP, UDP-Lite

_MAGIC_MICRO = 0xA1B2C3D4
_MAGIC_NANO = 0xA1B23C4D

_MAGICS = frozenset({_MAGIC_MICRO, _MAGIC_NANO})

_ETHERTYPE_IPV4 = 0x0800
#: 802.1Q / 802.1ad / QinQ tag protocol identifiers — each adds 4 bytes.
_VLAN_ETHERTYPES = frozenset({0x8100, 0x88A8, 0x9100})

_GLOBAL_HEADER_REST = 20  # after the 4-byte magic
_RECORD_HEADER_BYTES = 16

#: Largest ``caplen`` a record may claim: libpcap's ``MAXIMUM_SNAPLEN``, over
#: which libpcap rejects the record as invalid.  Checked before the read, so
#: a corrupt length never sizes an allocation.
MAX_CAPLEN = 262_144

_PORT_WORD = struct.Struct(">HH")


@dataclass
class PcapStats:
    """Frame accounting for one pcap scan.

    ``packets`` counts yielded IPv4 5-tuples; ``skipped`` counts whole frames
    that were not IPv4 (ARP, IPv6, LLDP, malformed IP version/IHL);
    ``truncated`` counts records whose captured bytes were too short to reach
    the IP header (snaplen cuts and torn file tails).  A torn tail — a record
    header or body cut off by the end of the file — ends the scan gracefully
    and counts as one truncated record: real captures are routinely torn by
    the capturing process dying.  A record claiming more than
    :data:`MAX_CAPLEN` bytes is not torn but corrupt: the scan raises
    :class:`~repro.exceptions.TraceIOError` naming its offset.
    """

    packets: int = 0
    skipped: int = 0
    truncated: int = 0

    @property
    def frames(self) -> int:
        """Total records seen, whatever became of them."""
        return self.packets + self.skipped + self.truncated


def _open_global_header(stream: IO[bytes], path: str) -> Tuple[str, bool, int]:
    """Validate the 24-byte global header; returns (byte order, ns?, linktype)."""
    raw_magic = stream.read(4)
    if len(raw_magic) < 4:
        raise TraceIOError(f"{path}: not a pcap file (shorter than the magic number)")
    for order in ("<", ">"):
        magic = struct.unpack(order + "I", raw_magic)[0]
        if magic in _MAGICS:
            nanosecond = magic == _MAGIC_NANO
            break
    else:
        raise TraceIOError(
            f"{path}: unknown capture magic 0x{raw_magic.hex()} at offset 0 "
            "(classic pcap expected; pcapng is not supported yet)"
        )
    rest = stream.read(_GLOBAL_HEADER_REST)
    if len(rest) < _GLOBAL_HEADER_REST:
        raise TraceIOError(f"{path}: truncated pcap global header")
    _major, _minor, _zone, _sigfigs, _snaplen, network = struct.unpack(
        order + "HHiIII", rest
    )
    if network not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
        raise TraceIOError(
            f"{path}: unsupported linktype {network} "
            f"(supported: {LINKTYPE_ETHERNET} ethernet, {LINKTYPE_RAW_IP} raw IP)"
        )
    return order, nanosecond, network


def _ip_offset(frame: bytes, linktype: int) -> Optional[int]:
    """Byte offset of the IPv4 header inside ``frame``, or None if not IPv4."""
    if linktype == LINKTYPE_RAW_IP:
        return 0 if frame and frame[0] >> 4 == 4 else None
    offset = 14
    if len(frame) < offset:
        return None
    ethertype = (frame[12] << 8) | frame[13]
    while ethertype in _VLAN_ETHERTYPES:
        # 4-byte tag: 2 bytes TCI, then the encapsulated ethertype.
        if len(frame) < offset + 4:
            return None
        ethertype = (frame[offset + 2] << 8) | frame[offset + 3]
        offset += 4
    return offset if ethertype == _ETHERTYPE_IPV4 else None


def scan_pcap(
    path: str,
    ports: str = "transport",
    stats: Optional[PcapStats] = None,
) -> Iterator[Tuple[int, int, int, int, int]]:
    """Stream plain ``(src_ip, dst_ip, src_port, dst_port, protocol)`` tuples.

    The allocation-free core every other reader builds on: one record is
    held in memory at a time and no :class:`PacketHeader` is ever created.
    ``ports`` selects the extraction mode (module docstring); pass a
    :class:`PcapStats` to receive frame accounting as the scan progresses.
    """
    if ports not in ("transport", "word"):
        raise TraceIOError(f"unknown port mode {ports!r}; choose 'transport' or 'word'")
    if stats is None:
        stats = PcapStats()
    word_mode = ports == "word"
    try:
        stream = open(path, "rb")
    except OSError as exc:
        raise TraceIOError(f"{path}: {exc.strerror or exc}") from None
    with stream:
        order, _nanosecond, linktype = _open_global_header(stream, path)
        record_header = struct.Struct(order + "IIII")
        unpack_port_word = _PORT_WORD.unpack_from
        while True:
            header = stream.read(_RECORD_HEADER_BYTES)
            if not header:
                break  # clean end of capture
            if len(header) < _RECORD_HEADER_BYTES:
                stats.truncated += 1  # torn tail: record header cut off
                break
            _ts_sec, _ts_frac, caplen, _origlen = record_header.unpack(header)
            if caplen > MAX_CAPLEN:
                raise TraceIOError(
                    f"{path}: record at offset {stream.tell() - _RECORD_HEADER_BYTES} "
                    f"claims caplen {caplen}, over the {MAX_CAPLEN}-byte maximum"
                )
            frame = stream.read(caplen)
            if len(frame) < caplen:
                stats.truncated += 1  # torn tail: record body cut off
                break
            ip = _ip_offset(frame, linktype)
            if ip is None:
                stats.skipped += 1
                continue
            if len(frame) < ip + 20:
                stats.truncated += 1
                continue
            version_ihl = frame[ip]
            ihl = (version_ihl & 0x0F) * 4
            if version_ihl >> 4 != 4 or ihl < 20:
                stats.skipped += 1
                continue
            if len(frame) < ip + ihl:
                stats.truncated += 1
                continue
            protocol = frame[ip + 9]
            src_ip = int.from_bytes(frame[ip + 12: ip + 16], "big")
            dst_ip = int.from_bytes(frame[ip + 16: ip + 20], "big")
            fragment_offset = ((frame[ip + 6] << 8) | frame[ip + 7]) & 0x1FFF
            l4 = ip + ihl
            src_port = dst_port = 0
            if (
                fragment_offset == 0
                and len(frame) >= l4 + 4
                and (word_mode or protocol in PORT_PROTOCOLS)
            ):
                src_port, dst_port = unpack_port_word(frame, l4)
            stats.packets += 1
            yield src_ip, dst_ip, src_port, dst_port, protocol


def read_pcap_packed(
    path: str,
    chunk_size: int = 256,
    ports: str = "transport",
    stats: Optional[PcapStats] = None,
) -> Iterator[PackedChunk]:
    """Stream a capture as bounded packed chunks — the zero-allocation path.

    Each yielded :class:`~repro.perf.transport.PackedChunk` holds up to
    ``chunk_size`` packed 104-bit header words; feed them straight to
    :meth:`ParallelSession.run <repro.perf.parallel.ParallelSession.run>` for
    descriptor-only dispatch.  No ``PacketHeader`` is allocated anywhere on
    this path (guarded by a test that poisons the constructor).
    """
    return iter_packed_chunks(scan_pcap(path, ports=ports, stats=stats), chunk_size)


def read_pcap(
    path: str,
    ports: str = "transport",
    stats: Optional[PcapStats] = None,
) -> List[PacketHeader]:
    """Read a capture into header objects — the convenience path.

    Materialises the whole trace; use :func:`read_pcap_packed` (streaming,
    allocation-free) for anything performance-sensitive.
    """
    return [PacketHeader(*five) for five in scan_pcap(path, ports=ports, stats=stats)]


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

#: 2014-06-08 00:00:00 UTC — the paper's publication season, an arbitrary but
#: recognisable fixed capture epoch (timestamps carry no classification
#: meaning; determinism is what matters).
_CAPTURE_EPOCH = 1402185600

_IPV4_HEADER = struct.Struct(">BBHHHBBHII")
_TCP_TAIL = struct.Struct(">IIBBHHH")
_UDP_TAIL = struct.Struct(">HH")


def _ipv4_checksum(header: bytes) -> int:
    total = 0
    for index in range(0, len(header), 2):
        total += (header[index] << 8) | header[index + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _l4_block(src_port: int, dst_port: int, protocol: int) -> bytes:
    """Render the L4 header: the port word always leads, so ``ports="word"``
    reads back exactly what was written for any protocol."""
    ports = _PORT_WORD.pack(src_port, dst_port)
    if protocol == 6:
        # Minimal 20-byte TCP header: seq/ack 0, data offset 5, ACK flag,
        # an open window, checksum left 0 (offline captures tolerate it).
        return ports + _TCP_TAIL.pack(0, 0, 0x50, 0x10, 0xFFFF, 0, 0)
    if protocol == 17:
        return ports + _UDP_TAIL.pack(8, 0)  # UDP length covers the header
    # Generic 8-byte block for everything else (ICMP, GRE, ESP...): the
    # synthetic generators put nonzero "port" fields on these protocols and
    # the word extractor slices them back out of the first 4 bytes.
    return ports + b"\x00\x00\x00\x00"


def write_pcap(
    path: str,
    headers: Iterable[FiveTuple],
    linktype: int = LINKTYPE_ETHERNET,
    byte_order: str = "little",
    nanosecond: bool = False,
    seed: int = 0,
) -> int:
    """Render a 5-tuple stream as a classic pcap file; returns packets written.

    Accepts header objects or plain 5-tuples (anything the packed codec
    accepts), streams — never materialises the trace — and is byte-for-byte
    deterministic given ``seed`` (which picks the ethernet MACs and the
    sub-second timestamp jitter).  ``byte_order``/``nanosecond`` select the
    capture magic so fixtures exist for every reader branch.
    """
    if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
        raise TraceIOError(
            f"unsupported linktype {linktype} "
            f"(supported: {LINKTYPE_ETHERNET} ethernet, {LINKTYPE_RAW_IP} raw IP)"
        )
    if byte_order not in ("little", "big"):
        raise TraceIOError(f"byte_order must be 'little' or 'big', got {byte_order!r}")
    order = "<" if byte_order == "little" else ">"
    magic = _MAGIC_NANO if nanosecond else _MAGIC_MICRO
    frac_modulus = 1_000_000_000 if nanosecond else 1_000_000
    rng = random.Random(seed)
    ether_prefix = b""
    if linktype == LINKTYPE_ETHERNET:
        # Locally-administered unicast MACs, fixed for the whole capture.
        dst_mac = bytes([0x02] + [rng.randrange(256) for _ in range(5)])
        src_mac = bytes([0x02] + [rng.randrange(256) for _ in range(5)])
        ether_prefix = dst_mac + src_mac + _ETHERTYPE_IPV4.to_bytes(2, "big")
    record_header = struct.Struct(order + "IIII")
    count = 0
    with open(path, "wb") as stream:
        stream.write(
            struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)
        )
        for header in headers:
            src_ip, dst_ip, src_port, dst_port, protocol = tuple(header)
            l4 = _l4_block(src_port, dst_port, protocol)
            ip_header = bytearray(
                _IPV4_HEADER.pack(
                    0x45, 0, 20 + len(l4), count & 0xFFFF, 0, 64, protocol,
                    0, src_ip, dst_ip,
                )
            )
            ip_header[10:12] = _ipv4_checksum(ip_header).to_bytes(2, "big")
            frame = ether_prefix + bytes(ip_header) + l4
            ts_sec = _CAPTURE_EPOCH + count // 1000
            ts_frac = rng.randrange(frac_modulus)
            stream.write(record_header.pack(ts_sec, ts_frac, len(frame), len(frame)))
            stream.write(frame)
            count += 1
    return count
