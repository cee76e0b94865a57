"""Packed-header transport: codec properties, ring lifecycle, zero-copy proof.

Three concerns, matching the layers of :mod:`repro.perf.transport`:

* **codec** — encode/decode round-trips over boundary and random values,
  chunk slicing at arbitrary offsets, buffer-protocol inputs, and a
  golden-bytes fixture that freezes the 104-bit wire layout (changing it is
  a wire-format break and must fail here first);
* **ring** — slot accounting, capacity limits, and unlink-on-close of the
  shared-memory segment (nothing may linger in ``/dev/shm``);
* **session lifecycle** — double ``close()`` is idempotent, submitting to a
  closed :class:`~repro.perf.parallel.ParallelSession` raises cleanly on
  every entry point, segments are released on close *and* on poisoned-packet
  abort, and the packed transport is bit-exact with one in-process
  classifier while pickling no :class:`~repro.rules.packet.PacketHeader` at
  all — proven by making ``PacketHeader.__reduce__`` raise during dispatch.
"""

from __future__ import annotations

import array
import os
import random
import struct

import pytest

from repro.exceptions import ConfigurationError
from repro.perf import (
    ParallelSession,
    ReplicaSpec,
    pack_headers,
    shared_memory_available,
    unpack_headers,
)
from repro.perf.transport import (
    HEADER_BYTES,
    SharedChunkRing,
    pack_into,
    read_chunk,
)
from repro.rules.packet import (
    FIVE_TUPLE_WIDTHS,
    HEADER_BITS,
    PacketHeader,
)
from repro.rules.trace import generate_trace

needs_shared_memory = pytest.mark.skipif(
    not shared_memory_available(), reason="platform grants no shared memory"
)

#: Per-field maxima from the canonical widths (32, 32, 16, 16, 8).
FIELD_MAXES = tuple((1 << width) - 1 for width in FIVE_TUPLE_WIDTHS.values())


def random_header(rng: random.Random) -> PacketHeader:
    return PacketHeader(*(rng.randint(0, high) for high in FIELD_MAXES))


# ---------------------------------------------------------------------------
# Codec properties
# ---------------------------------------------------------------------------


class TestPackedCodec:
    def test_layout_constants(self):
        assert HEADER_BITS == 104
        assert HEADER_BYTES == 13
        assert tuple(FIVE_TUPLE_WIDTHS.values()) == (32, 32, 16, 16, 8)

    def test_round_trip_boundary_values(self):
        # All-zero, all-max, and each field individually at its maximum.
        headers = [PacketHeader(0, 0, 0, 0, 0), PacketHeader(*FIELD_MAXES)]
        for position, high in enumerate(FIELD_MAXES):
            values = [0] * len(FIELD_MAXES)
            values[position] = high
            headers.append(PacketHeader(*values))
        packed = pack_headers(headers)
        assert len(packed) == len(headers) * HEADER_BYTES
        assert unpack_headers(packed) == headers

    def test_round_trip_random_headers(self):
        rng = random.Random(0xC0DEC)
        headers = [random_header(rng) for _ in range(256)]
        assert unpack_headers(pack_headers(headers), len(headers)) == headers

    def test_golden_bytes_wire_layout(self):
        """Frozen wire format: big-endian src_ip dst_ip src_port dst_port proto.

        If this test fails, the packed layout changed — that is a wire-format
        break between dispatcher and workers, not a test to update casually.
        """
        golden = [
            (PacketHeader(0, 0, 0, 0, 0), bytes(13)),
            (PacketHeader(*FIELD_MAXES), b"\xff" * 13),
            (
                PacketHeader(0x01020304, 0x05060708, 0x090A, 0x0B0C, 0x0D),
                bytes(range(1, 14)),
            ),
            (
                PacketHeader.from_strings("192.168.1.10", "10.0.0.1", 443, 65535, 17),
                b"\xc0\xa8\x01\x0a\x0a\x00\x00\x01\x01\xbb\xff\xff\x11",
            ),
        ]
        for header, wire in golden:
            assert pack_headers([header]) == wire
            assert unpack_headers(wire) == [header]
        assert pack_headers([h for h, _ in golden]) == b"".join(w for _, w in golden)

    def test_chunk_slicing_at_offsets(self):
        """pack_into/unpack_headers address sub-chunks of one buffer exactly."""
        rng = random.Random(5150)
        headers = [random_header(rng) for _ in range(10)]
        buffer = bytearray(4 + len(headers) * HEADER_BYTES)  # 4-byte gap first
        written = pack_into(buffer, 4, headers)
        assert written == len(headers) * HEADER_BYTES
        assert buffer[:4] == bytes(4)  # the gap is untouched
        # Any (offset, count) window decodes to the matching slice.
        assert unpack_headers(buffer, 3, offset=4) == headers[:3]
        assert (
            unpack_headers(buffer, 4, offset=4 + 5 * HEADER_BYTES) == headers[5:9]
        )
        assert unpack_headers(buffer, 0, offset=4) == []

    def test_buffer_protocol_inputs(self):
        """The codec speaks buffer protocol: array.array and memoryview work."""
        rng = random.Random(7)
        headers = [random_header(rng) for _ in range(8)]
        packed = pack_headers(headers)
        assert unpack_headers(array.array("B", packed)) == headers
        assert unpack_headers(memoryview(packed)) == headers
        # Buffers of multi-byte items measure their length in items, not
        # bytes: whole-buffer decode must still see every header (8 headers
        # = 104 bytes = 26 uint32 items — a silent-truncation regression).
        assert unpack_headers(array.array("I", packed)) == headers
        writable = array.array("B", bytes(len(packed)))
        pack_into(writable, 0, headers)
        assert writable.tobytes() == packed

    def test_numpy_buffer_round_trip(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(11)
        headers = [random_header(rng) for _ in range(8)]
        packed = pack_headers(headers)
        assert unpack_headers(np.frombuffer(packed, dtype=np.uint8)) == headers
        target = np.zeros(len(packed), dtype=np.uint8)
        pack_into(target, 0, headers)
        assert target.tobytes() == packed

    def test_ragged_tail_rejected(self):
        packed = pack_headers([PacketHeader(1, 2, 3, 4, 5)])
        with pytest.raises(ConfigurationError, match="whole number"):
            unpack_headers(packed + b"\x00")


# ---------------------------------------------------------------------------
# Shared-memory ring
# ---------------------------------------------------------------------------


@needs_shared_memory
class TestSharedChunkRing:
    def test_slot_accounting_and_read_back(self):
        rng = random.Random(21)
        ring = SharedChunkRing(slots=2, headers_per_slot=4)
        try:
            assert ring.free_slots == 2
            first, second = ring.acquire(), ring.acquire()
            assert {first, second} == {0, 1}
            assert ring.acquire() is None  # exhausted, never blocks
            chunk = [random_header(rng) for _ in range(4)]
            descriptor = ring.write(second, chunk)
            assert descriptor.segment == ring.name
            assert descriptor.offset == second * ring.slot_bytes
            assert descriptor.count == 4
            # Worker-side decode (attach by segment name) sees the chunk.
            assert read_chunk(*descriptor) == chunk
            ring.release(first)
            assert ring.free_slots == 1
        finally:
            ring.close()

    def test_oversized_chunk_rejected(self):
        ring = SharedChunkRing(slots=1, headers_per_slot=2)
        try:
            slot = ring.acquire()
            with pytest.raises(ConfigurationError, match="exceeds the ring slot"):
                ring.write(slot, [PacketHeader(0, 0, 0, 0, 0)] * 3)
        finally:
            ring.close()

    def test_close_unlinks_segment_and_is_idempotent(self):
        from multiprocessing import shared_memory

        ring = SharedChunkRing(slots=1, headers_per_slot=1)
        name = ring.name
        ring.close()
        assert ring.closed
        ring.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one slot"):
            SharedChunkRing(slots=0, headers_per_slot=4)
        with pytest.raises(ConfigurationError, match="at least one header"):
            SharedChunkRing(slots=4, headers_per_slot=0)


# ---------------------------------------------------------------------------
# ParallelSession lifecycle
# ---------------------------------------------------------------------------


class UnpackableHeader(PacketHeader):
    """A header that passes no wire validation and overflows the codec.

    Models a corrupt capture record: the packed transport must abort the
    run cleanly (and release its ring) when a header cannot be encoded.
    """

    def __post_init__(self) -> None:  # skip the range validation
        pass


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-tmpfs platform: rely on unlink errors
        return set()


@pytest.fixture(scope="module")
def transport_spec(small_acl_ruleset) -> ReplicaSpec:
    return ReplicaSpec("configurable", small_acl_ruleset, {"fast": True})


@pytest.fixture(scope="module")
def transport_trace(small_acl_ruleset):
    return generate_trace(small_acl_ruleset, count=120, seed=99)


class TestSessionLifecycle:
    def test_close_idempotent_and_terminal(self, transport_spec, transport_trace):
        pool = ParallelSession.from_factory(transport_spec, workers=2, chunk_size=16)
        stats = pool.run(transport_trace)
        pool.close()
        pool.close()  # idempotent
        assert pool.closed
        # Committed statistics stay readable after close.
        assert pool.stats() == stats
        for call in (pool.run, pool.feed):
            with pytest.raises(ConfigurationError, match="closed"):
                call(transport_trace)

    def test_process_stats_survive_close_after_feed_only(
        self, transport_spec, transport_trace
    ):
        """feed()-only sessions keep committed stats readable after close().

        feed() never calls stats() while the pool is up, so the replica info
        must be harvested at shutdown — otherwise the committed counters
        exist but are unreachable.
        """
        with ParallelSession.from_factory(
            transport_spec, workers=2, chunk_size=16, backend="process"
        ) as pool:
            pool.feed(transport_trace)
        stats = pool.stats()
        assert stats.packets == len(transport_trace)
        assert stats.classifier.startswith("configurable")

    @needs_shared_memory
    def test_packed_ring_released_on_close(self, transport_spec, transport_trace):
        """The ring stays warm across runs and is unlinked by close()."""
        before = _shm_entries()
        pool = ParallelSession.from_factory(
            transport_spec, workers=2, chunk_size=16, transport="packed"
        )
        try:
            pool.run(transport_trace)
            assert pool._ring is not None  # the run left its ring warm
        finally:
            pool.close()
        assert pool._ring is None
        assert _shm_entries() <= before, "leaked /dev/shm segment after close"
        with pytest.raises(ConfigurationError, match="closed"):
            pool.run(transport_trace)

    @needs_shared_memory
    def test_packed_abort_releases_shared_memory(self, transport_spec, transport_trace):
        """A header the codec cannot encode aborts the run and frees the ring."""
        before = _shm_entries()
        with ParallelSession.from_factory(
            transport_spec, workers=2, chunk_size=16,
            backend="process", transport="packed",
        ) as pool:
            committed = pool.run(transport_trace)
            poisoned = list(transport_trace[:40]) + [
                UnpackableHeader(0, 0, 1 << 16, 0, 0)
            ] + list(transport_trace[40:])
            with pytest.raises(struct.error):
                pool.run(poisoned)
            # The abort released the ring and committed nothing...
            assert pool._ring is None
            assert _shm_entries() <= before, "leaked /dev/shm segment after abort"
            assert pool.stats() == committed
            # ...and the session recovers with a fresh ring on the next run.
            again = pool.run(transport_trace)
            assert again.packets == 2 * committed.packets
        assert _shm_entries() <= before


# ---------------------------------------------------------------------------
# Zero-copy proof: packed dispatch never serialises a PacketHeader
# ---------------------------------------------------------------------------


def _poisoned_reduce(self):
    raise RuntimeError("PacketHeader must never be pickled on the packed transport")


@needs_shared_memory
class TestZeroCopyDispatch:
    def test_packed_transport_never_pickles_headers(
        self, monkeypatch, transport_spec, transport_trace
    ):
        """Packed transport == one in-process classifier, with pickling forbidden.

        ``PacketHeader.__reduce__`` is made to raise before any chunk is
        dispatched: the packed transport (headers cross as fixed-width words
        in shared memory, results come back as header-free records) must not
        notice, while the pickle transport must blow up on its first chunk.
        """
        expected = transport_spec().classify_batch(transport_trace)

        monkeypatch.setattr(
            PacketHeader, "__reduce__", _poisoned_reduce, raising=False
        )
        with ParallelSession.from_factory(
            transport_spec, workers=2, chunk_size=16,
            backend="process", transport="packed",
        ) as pool:
            assert pool.transport == "packed"
            fed = pool.feed(transport_trace)
            stats = pool.stats()
        assert list(fed.results) == list(expected.results)
        assert stats.packets == len(transport_trace)

        with ParallelSession.from_factory(
            transport_spec, workers=1, chunk_size=16,
            backend="process", transport="pickle",
        ) as pool:
            with pytest.raises(RuntimeError, match="never be pickled"):
                pool.feed(transport_trace)

    def test_auto_transport_falls_back_without_shared_memory(
        self, monkeypatch, transport_spec
    ):
        import repro.perf.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "shared_memory_available", lambda: False
        )
        pool = ParallelSession.from_factory(
            transport_spec, workers=1, backend="process", transport="auto"
        )
        try:
            assert pool.transport == "pickle"
        finally:
            pool.close()
        with pytest.raises(ConfigurationError, match="shared_memory"):
            ParallelSession.from_factory(
                transport_spec, workers=1, backend="process", transport="packed"
            )

class TestPackedChunkStreaming:
    """The bounded chunk packer and PackedChunk acceptance end to end."""

    def test_iter_packed_chunks_bounds_and_tail(self):
        from repro.perf.transport import PackedChunk, iter_packed_chunks

        rng = random.Random(5)
        headers = [random_header(rng) for _ in range(10)]
        chunks = list(iter_packed_chunks(iter(headers), 4))
        assert [chunk.count for chunk in chunks] == [4, 4, 2]
        assert all(isinstance(chunk, PackedChunk) for chunk in chunks)
        assert all(len(c.data) == c.count * HEADER_BYTES for c in chunks)
        assert b"".join(c.data for c in chunks) == pack_headers(headers)
        # Decode helper restores the original headers chunk-locally.
        assert [h for c in chunks for h in c.headers()] == headers

    def test_iter_packed_chunks_accepts_plain_tuples(self):
        from repro.perf.transport import iter_packed_chunks

        five = (167772161, 3232235777, 1234, 80, 6)
        (chunk,) = iter_packed_chunks([five], 8)
        assert chunk.headers() == [PacketHeader(*five)]

    def test_iter_packed_chunks_rejects_bad_chunk_size(self):
        from repro.perf.transport import iter_packed_chunks

        with pytest.raises(ConfigurationError):
            list(iter_packed_chunks([], 0))

    @needs_shared_memory
    def test_ring_write_accepts_packed_chunk_verbatim(self):
        from repro.perf.transport import PackedChunk, iter_packed_chunks

        rng = random.Random(6)
        headers = [random_header(rng) for _ in range(7)]
        (chunk,) = iter_packed_chunks(headers, 16)
        ring = SharedChunkRing(slots=2, headers_per_slot=16)
        try:
            descriptor = ring.write(0, chunk)
            assert descriptor.count == 7
            assert read_chunk(*descriptor) == headers
            # Byte-identical to the sequence write of the same headers.
            other = ring.write(1, headers)
            span = descriptor.count * HEADER_BYTES
            assert (
                bytes(ring._shm.buf[descriptor.offset:descriptor.offset + span])
                == bytes(ring._shm.buf[other.offset:other.offset + span])
            )
            with pytest.raises(ConfigurationError, match="exceeds the ring slot"):
                ring.write(0, PackedChunk(chunk.data * 4, chunk.count * 4))
        finally:
            ring.close()

    def test_pickle_transport_accepts_packed_chunks(self, transport_spec):
        from repro.perf.transport import iter_packed_chunks

        trace = generate_trace(transport_spec.ruleset, count=90, seed=21)
        reference = list(transport_spec().classify_batch(trace).results)
        with ParallelSession.from_factory(
            transport_spec, workers=2, chunk_size=16, transport="pickle"
        ) as pool:
            fed = pool.feed(iter_packed_chunks(trace, 16))
        assert list(fed.results) == reference

    def test_oversized_packed_chunks_are_resliced(self, transport_spec):
        from repro.perf.transport import iter_packed_chunks

        trace = generate_trace(transport_spec.ruleset, count=64, seed=22)
        reference = list(transport_spec().classify_batch(trace).results)
        with ParallelSession.from_factory(transport_spec, workers=1, chunk_size=8) as pool:
            # One 64-header chunk into an 8-header session: re-sliced, not
            # rejected, and still bit-exact in order.
            fed = pool.feed(iter_packed_chunks(trace, 64))
            assert list(fed.results) == reference
            assert pool.stats().chunks == 8

    def test_mixed_header_and_packed_stream_rejected(self, transport_spec):
        from repro.perf.transport import iter_packed_chunks

        trace = generate_trace(transport_spec.ruleset, count=16, seed=23)
        (chunk,) = iter_packed_chunks(trace, 16)
        with ParallelSession.from_factory(transport_spec, workers=1, chunk_size=8) as pool:
            with pytest.raises(ConfigurationError, match="mix"):
                pool.feed([trace[0], chunk])
            with pytest.raises(ConfigurationError, match="mix"):
                pool.feed([chunk, trace[0]])

    @needs_shared_memory
    def test_process_packed_transport_ships_chunks_unpickled(
        self, small_acl_ruleset, monkeypatch
    ):
        from repro.perf.transport import iter_packed_chunks

        trace = generate_trace(small_acl_ruleset, count=60, seed=24)
        chunks = list(iter_packed_chunks(trace, 16))
        spec = ReplicaSpec("configurable", small_acl_ruleset, {"fast": True})
        with ParallelSession.from_factory(
            spec, workers=2, chunk_size=16, backend="process", transport="packed"
        ) as pool:
            # Headers cross the boundary as ring bytes; pickling one anywhere
            # on the dispatch path would raise.
            monkeypatch.setattr(PacketHeader, "__reduce__", _poisoned_reduce)
            stats = pool.run(iter(chunks))
        monkeypatch.undo()
        assert stats.packets == len(trace)
