"""Streaming classification sessions.

A :class:`ClassificationSession` feeds packet traces — lists, generators,
live feeds — through any :class:`~repro.api.protocol.PacketClassifier` in
fixed-size chunks and folds each chunk's records into one
:class:`RunningCounters`, the single statistics fold (the worker pool of
:mod:`repro.perf.parallel` merges the same accumulators).
:meth:`ClassificationSession.run` retains nothing per packet, so arbitrarily
long streams run in constant memory, while :meth:`ClassificationSession.feed`
additionally returns the fed packets' results for callers that want them.
:class:`SessionStats` renders the streamed counters beside the footprint the
classifier reports; flow-cache counters stay with their cache
(:meth:`repro.perf.flowcache.FlowCache.stats`).  This is the unified runner
behind the CLI's ``classify``/``sweep`` subcommands and the scale-oriented
harnesses: because it only speaks the protocol, swapping the paper's
architecture for any baseline is a registry name change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.api.protocol import PacketClassifier
from repro.core.result import BatchResult, Classification
from repro.exceptions import ConfigurationError
from repro.rules.packet import PacketHeader

__all__ = [
    "ClassificationSession",
    "SessionStats",
    "RunningCounters",
    "iter_chunks",
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


class RunningCounters:
    """Running fold of classification records: the one statistics fold.

    :class:`ClassificationSession` adds each chunk it streams;
    :class:`~repro.perf.parallel.ParallelSession` workers return one
    accumulator per chunk and the pool merges them.  Every count and sum is
    an integer, so a merged pool and one session over the same chunks hold
    identical counters, and their :class:`SessionStats` agree on every
    streamed field.
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

    def add(self, results: Sequence[Classification]) -> None:
        """Fold one chunk's classification records in (counts one chunk)."""
        matched = truncated = access_sum = latency_sum = latency_count = 0
        access_worst = self.access_worst
        latency_worst = self.latency_worst
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
        self.packets += len(results)
        self.matched += matched
        self.truncated += truncated
        self.chunks += 1
        self.access_sum += access_sum
        self.access_worst = access_worst
        self.latency_sum += latency_sum
        self.latency_count += latency_count
        self.latency_worst = latency_worst

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

    def to_stats(self, classifier: str, memory_bits: int) -> "SessionStats":
        """Render the counters as immutable :class:`SessionStats`.

        Averages divide the integer sums here, once: the latency average
        counts only the records that carry a modelled latency.
        """
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
        )


@dataclass(frozen=True)
class SessionStats:
    """Aggregate statistics of one classification session.

    The streamed counters of a :class:`RunningCounters` fold plus the
    engine's structure footprint.  Flow-cache counters are read from their
    owner: :meth:`repro.perf.flowcache.FlowCache.stats` or
    :meth:`repro.perf.parallel.ParallelSession.flow_cache_stats`.
    """

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

    @property
    def hit_ratio(self) -> float:
        """Fraction of streamed packets that hit a rule."""
        return self.matched / self.packets if self.packets else 0.0

    @property
    def memory_megabits(self) -> float:
        """Engine structure size in Mbit."""
        return self.memory_bits / 1e6


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
            self._counters.add(batch.results)
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

        ``memory_bits`` is read from the classifier on every call, so it
        follows commits.
        """
        return self._counters.to_stats(self.classifier.name, self.classifier.memory_bits())

    def __repr__(self) -> str:
        return (
            f"ClassificationSession({self.classifier.name}, "
            f"chunk_size={self.chunk_size}, packets={self._counters.packets})"
        )
