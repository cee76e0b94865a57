"""Streaming classification sessions.

A :class:`ClassificationSession` feeds packet traces — lists, generators,
live feeds — through any :class:`~repro.api.protocol.PacketClassifier` in
fixed-size chunks and aggregates throughput/latency/memory statistics
uniformly across engines.  Aggregation is incremental (running counters):
:meth:`ClassificationSession.run` retains nothing per packet, so arbitrarily
long streams run in constant memory, while :meth:`ClassificationSession.feed`
additionally returns the fed packets' results for callers that want them.
This is the unified runner behind the CLI's
``classify``/``sweep`` subcommands and the scale-oriented harnesses: because
it only speaks the protocol, swapping the paper's architecture for any
baseline (or any future sharded/async engine) is a registry name change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence

from repro.api.protocol import PacketClassifier
from repro.core.result import BatchResult, Classification
from repro.exceptions import ConfigurationError
from repro.rules.packet import PacketHeader

__all__ = [
    "ClassificationSession",
    "SessionStats",
    "BatchCounters",
    "RunningCounters",
    "iter_chunks",
    "measure_results",
]


def iter_chunks(
    packets: Iterable[PacketHeader], size: int
) -> Iterator[List[PacketHeader]]:
    """Lazily batch an iterable into ``size``-packet chunks (tail included).

    The chunker behind the streaming runner (:class:`ClassificationSession`)
    and, for header streams, behind the dispatch of
    :class:`~repro.perf.parallel.ParallelSession`.
    """
    chunk: List[PacketHeader] = []
    for packet in packets:
        chunk.append(packet)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class BatchCounters(NamedTuple):
    """Statistics fold of one batch of classifications.

    The single accounting definition shared by
    :class:`ClassificationSession` and the :mod:`repro.perf.parallel`
    workers (which ship these counters back across process boundaries), so
    merged parallel statistics cannot drift from single-session statistics.
    """

    packets: int
    matched: int
    truncated: int
    access_sum: int
    access_worst: int
    latency_sum: int
    latency_count: int
    latency_worst: int


def measure_results(results: Sequence[Classification]) -> BatchCounters:
    """Fold a batch's classifications into :class:`BatchCounters`."""
    matched = 0
    truncated = 0
    access_sum = 0
    access_worst = 0
    latency_sum = 0
    latency_count = 0
    latency_worst = 0
    for result in results:
        if result.matched:
            matched += 1
        if result.truncated:
            truncated += 1
        accesses = result.memory_accesses
        access_sum += accesses
        if accesses > access_worst:
            access_worst = accesses
        latency = result.latency_cycles
        if latency is not None:
            latency_sum += latency
            latency_count += 1
            if latency > latency_worst:
                latency_worst = latency
    return BatchCounters(
        packets=len(results),
        matched=matched,
        truncated=truncated,
        access_sum=access_sum,
        access_worst=access_worst,
        latency_sum=latency_sum,
        latency_count=latency_count,
        latency_worst=latency_worst,
    )


class RunningCounters:
    """Mutable running fold of :class:`BatchCounters` chunks.

    The one accounting accumulator behind every streaming runner:
    :class:`ClassificationSession` folds its chunks into one instance, and
    :class:`~repro.perf.parallel.ParallelSession` keeps one per worker
    process and merges them — so sharded and single-session statistics share
    the same arithmetic and cannot drift apart.
    """

    __slots__ = (
        "packets", "matched", "truncated", "chunks", "access_sum",
        "access_worst", "latency_sum", "latency_count", "latency_worst",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.packets = 0
        self.matched = 0
        self.truncated = 0
        self.chunks = 0
        self.access_sum = 0
        self.access_worst = 0
        self.latency_sum = 0
        self.latency_count = 0
        self.latency_worst = 0

    def absorb(self, counters: BatchCounters) -> None:
        """Fold one chunk's :class:`BatchCounters` in (counts one chunk)."""
        self.packets += counters.packets
        self.matched += counters.matched
        self.truncated += counters.truncated
        self.chunks += 1
        self.access_sum += counters.access_sum
        self.access_worst = max(self.access_worst, counters.access_worst)
        self.latency_sum += counters.latency_sum
        self.latency_count += counters.latency_count
        self.latency_worst = max(self.latency_worst, counters.latency_worst)

    def merge(self, other: "RunningCounters") -> None:
        """Fold another accumulator in (sums counts, maxes worst cases)."""
        self.packets += other.packets
        self.matched += other.matched
        self.truncated += other.truncated
        self.chunks += other.chunks
        self.access_sum += other.access_sum
        self.access_worst = max(self.access_worst, other.access_worst)
        self.latency_sum += other.latency_sum
        self.latency_count += other.latency_count
        self.latency_worst = max(self.latency_worst, other.latency_worst)

    def to_stats(
        self,
        classifier: str,
        memory_bits: int,
        flow: Optional[Mapping[str, int]] = None,
    ) -> "SessionStats":
        """Render the running counters as immutable :class:`SessionStats`.

        ``flow`` optionally carries a flow-cache counter snapshot (the
        ``lookups`` / ``hits`` / ``evictions`` keys of
        :meth:`repro.perf.flowcache.FlowCache.stats`).
        """
        flow = flow or {}
        return SessionStats(
            classifier=classifier,
            packets=self.packets,
            matched=self.matched,
            chunks=self.chunks,
            average_memory_accesses=(
                self.access_sum / self.packets if self.packets else 0.0
            ),
            worst_memory_accesses=self.access_worst,
            average_latency_cycles=(
                self.latency_sum / self.latency_count if self.latency_count else None
            ),
            worst_latency_cycles=self.latency_worst if self.latency_count else None,
            memory_bits=memory_bits,
            truncated_lookups=self.truncated,
            flow_lookups=int(flow.get("lookups", 0)),
            flow_hits=int(flow.get("hits", 0)),
            flow_evictions=int(flow.get("evictions", 0)),
        )


@dataclass(frozen=True)
class SessionStats:
    """Aggregate statistics of one classification session."""

    classifier: str
    packets: int
    matched: int
    chunks: int
    average_memory_accesses: float
    worst_memory_accesses: int
    average_latency_cycles: Optional[float]
    worst_latency_cycles: Optional[int]
    memory_bits: int
    #: Packets whose lookup was probe-budget truncated (see
    #: :class:`~repro.core.label_combiner.CombinerOutcome`) — a non-zero value
    #: warns that some lookups fell back to a scan of the whole Rule Filter.
    truncated_lookups: int = 0
    #: Flow-cache serving counters (all zero when no flow cache is attached):
    #: lookups served by the tier, exact-match hits, and entries evicted
    #: (timeout + capacity).
    flow_lookups: int = 0
    flow_hits: int = 0
    flow_evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of streamed packets that hit a rule."""
        return self.matched / self.packets if self.packets else 0.0

    @property
    def flow_hit_rate(self) -> float:
        """Fraction of flow-cache lookups served from the exact-match tier."""
        return self.flow_hits / self.flow_lookups if self.flow_lookups else 0.0

    @property
    def memory_megabits(self) -> float:
        """Engine structure size in Mbit."""
        return self.memory_bits / 1e6

    @classmethod
    def merge(cls, parts: Sequence["SessionStats"]) -> "SessionStats":
        """Aggregate the statistics of several (sharded) sessions into one.

        Counts sum; averages are packet-weighted; worst cases take the
        maximum; ``memory_bits`` sums, since a multi-pipeline deployment
        replicates the search structures per worker.
        """
        parts = list(parts)
        if not parts:
            raise ConfigurationError("cannot merge an empty list of session stats")
        names = {part.classifier for part in parts}
        name = names.pop() if len(names) == 1 else "+".join(sorted(names))
        if len(parts) > 1:
            name = f"{name}x{len(parts)}"
        packets = sum(part.packets for part in parts)
        latency_parts = [part for part in parts if part.average_latency_cycles is not None]
        latency_packets = sum(part.packets for part in latency_parts)
        return cls(
            classifier=name,
            packets=packets,
            matched=sum(part.matched for part in parts),
            chunks=sum(part.chunks for part in parts),
            average_memory_accesses=(
                sum(part.average_memory_accesses * part.packets for part in parts) / packets
                if packets
                else 0.0
            ),
            worst_memory_accesses=max(part.worst_memory_accesses for part in parts),
            average_latency_cycles=(
                sum(p.average_latency_cycles * p.packets for p in latency_parts) / latency_packets
                if latency_packets
                else None
            ),
            worst_latency_cycles=(
                max(p.worst_latency_cycles for p in latency_parts) if latency_parts else None
            ),
            memory_bits=sum(part.memory_bits for part in parts),
            truncated_lookups=sum(part.truncated_lookups for part in parts),
            flow_lookups=sum(part.flow_lookups for part in parts),
            flow_hits=sum(part.flow_hits for part in parts),
            flow_evictions=sum(part.flow_evictions for part in parts),
        )


class ClassificationSession:
    """Feed traces through one classifier in chunks and aggregate stats."""

    def __init__(self, classifier: PacketClassifier, chunk_size: int = 256) -> None:
        if chunk_size <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {chunk_size}")
        self.classifier = classifier
        self.chunk_size = chunk_size
        self.reset()

    # -- streaming -----------------------------------------------------------
    def _consume(
        self, packets: Iterable[PacketHeader], retain: bool
    ) -> Optional[List[Classification]]:
        fed: Optional[List[Classification]] = [] if retain else None
        for chunk in iter_chunks(packets, self.chunk_size):
            batch = self.classifier.classify_batch(chunk)
            self._counters.absorb(measure_results(batch.results))
            if fed is not None:
                fed.extend(batch.results)
        return fed

    def feed(self, packets: Iterable[PacketHeader]) -> BatchResult:
        """Stream ``packets`` through the classifier; returns this feed's batch.

        Accepts any iterable — including generators — so traces never need to
        be materialised by the caller.  Only running counters persist across
        feeds (see :meth:`stats`); the returned :class:`BatchResult` holds
        this feed's results alone.
        """
        return BatchResult(tuple(self._consume(packets, retain=True)))

    def run(self, packets: Iterable[PacketHeader]) -> SessionStats:
        """Feed one trace and return the session statistics.

        Unlike :meth:`feed` this retains nothing per packet — only the
        running counters — so arbitrarily long streams run in constant
        memory.
        """
        self._consume(packets, retain=False)
        return self.stats()

    def reset(self) -> None:
        """Zero the aggregate counters (the classifier keeps its rules)."""
        self._counters = RunningCounters()

    # -- aggregation ---------------------------------------------------------
    def stats(self) -> SessionStats:
        """Aggregate statistics over everything streamed so far.

        When the classifier carries a flow cache its serving counters ride
        along (``flow_lookups`` / ``flow_hits`` / ``flow_evictions`` and the
        derived :attr:`SessionStats.flow_hit_rate`).
        """
        flow_cache = getattr(self.classifier, "flow_cache", None)
        return self._counters.to_stats(
            self.classifier.name,
            self.classifier.memory_bits(),
            flow=flow_cache.stats() if flow_cache is not None else None,
        )

    def __repr__(self) -> str:
        return (
            f"ClassificationSession({self.classifier.name}, "
            f"chunk_size={self.chunk_size}, packets={self._counters.packets})"
        )
