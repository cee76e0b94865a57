"""Result dataclasses returned by the classifier core.

These are the structured records every experiment, benchmark and example
consumes: the outcome of one lookup (:class:`LookupResult`), one rule
insert/delete (:class:`UpdateResult`) and whole-device summaries
(:class:`ClassifierReport`).

The unified-API records live here as well: :class:`Classification` is the
engine-independent outcome of classifying one packet (produced by the
configurable architecture and every baseline alike), :class:`BatchResult`
aggregates a trace worth of them, and :class:`ClassifierStats` is the
engine-independent device snapshot.  :mod:`repro.api` re-exports all three as
the package front door.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.hardware.clock import CycleReport

__all__ = [
    "MatchedRule",
    "LookupResult",
    "UpdateResult",
    "ClassifierReport",
    "Classification",
    "BatchResult",
    "ClassifierStats",
]


@dataclass(frozen=True)
class MatchedRule:
    """The Highest Priority Matching Rule returned by a lookup."""

    rule_id: int
    priority: int
    action: str


@dataclass(frozen=True)
class LookupResult:
    """Outcome of classifying one packet header."""

    #: The HPMR, or None when no rule matched.
    match: Optional[MatchedRule]
    #: Per-field label lists, keyed by dimension name, as (label, priority) pairs.
    field_labels: Dict[str, Tuple[Tuple[int, int], ...]]
    #: Per-phase cycle breakdown of this lookup.
    cycles: CycleReport
    #: Memory accesses per dimension plus the combiner/rule-filter accesses.
    memory_accesses: Dict[str, int]
    #: Number of Rule Filter probes the label combiner issued.
    combiner_probes: int
    #: True when the combiner's probe budget truncated the cross-product walk
    #: before every candidate combination was visited — ``match`` was then
    #: resolved by a scan of the whole Rule Filter, whose reads the cost
    #: fields include (see :class:`~repro.core.label_combiner.CombinerOutcome`).
    truncated: bool = False

    @property
    def matched(self) -> bool:
        """True when the packet hit at least one rule."""
        return self.match is not None

    @property
    def total_memory_accesses(self) -> int:
        """Total memory words read to classify this packet."""
        return sum(self.memory_accesses.values())

    @property
    def latency_cycles(self) -> int:
        """End-to-end lookup latency in clock cycles."""
        return self.cycles.latency_cycles


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one incremental rule insert or delete."""

    rule_id: int
    operation: str
    #: Per-dimension label outcomes: (label, structural) where structural means
    #: a new label was created (insert) or an existing one destroyed (delete).
    labels: Dict[str, Tuple[int, bool]]
    #: Dimensions whose algorithm structure actually changed.
    structural_dimensions: Tuple[str, ...]
    #: Clock cycles consumed on the hardware update interface.
    cycles: CycleReport
    #: Memory accesses (control-plane uploads) per dimension.
    memory_accesses: Dict[str, int]
    #: Dimensions whose stored label priority was rewritten (the value's best
    #: rule priority changed without any structural update) — the scoped
    #: cache-invalidation path treats these as "lookup results changed on the
    #: spec's own interval".
    reprioritized_dimensions: Tuple[str, ...] = ()

    @property
    def structural(self) -> bool:
        """True when at least one dimension needed a structural update."""
        return bool(self.structural_dimensions)

    @property
    def total_memory_accesses(self) -> int:
        """Total memory words written/read for this update."""
        return sum(self.memory_accesses.values())


@dataclass(frozen=True)
class ClassifierReport:
    """Whole-classifier snapshot used by the memory/throughput experiments."""

    ip_algorithm: str
    combiner_mode: str
    rules_installed: int
    rule_capacity: int
    unique_labels: Dict[str, int]
    memory_bits_used: Dict[str, int]
    memory_bits_provisioned: Dict[str, int]
    lookup_latency_cycles: int
    lookup_occupancy_cycles: float
    throughput_gbps: float

    @property
    def total_memory_bits_provisioned(self) -> int:
        """Total provisioned memory of the instantiated configuration."""
        return sum(self.memory_bits_provisioned.values())

    @property
    def total_memory_bits_used(self) -> int:
        """Total occupied memory of the instantiated configuration."""
        return sum(self.memory_bits_used.values())

    @property
    def memory_space_mbit(self) -> float:
        """Provisioned memory in Mbit (the unit of Tables I and VII)."""
        return self.total_memory_bits_provisioned / 1e6


# --------------------------------------------------------------------------
# Unified classification API records (re-exported by repro.api)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Engine-independent outcome of classifying one packet.

    Unifies the architecture's :class:`LookupResult` and the baselines'
    ``ClassificationOutcome``: the matched rule (id, priority, action), the
    memory accesses spent, and — where the engine models them — the cycle
    latency and the Rule Filter probe count.  ``detail`` keeps the underlying
    engine-specific record for code that needs the full breakdown (per-phase
    cycles, per-dimension accesses); it is excluded from equality so batch
    and per-packet results compare on classification substance.
    """

    #: Id of the HPMR, or None on a miss.
    rule_id: Optional[int]
    #: Priority of the HPMR, or None on a miss.
    priority: Optional[int]
    #: Action string of the HPMR, or None on a miss.
    action: Optional[str]
    #: Total memory words read to classify this packet.
    memory_accesses: int
    #: End-to-end lookup latency in cycles, when the engine models a clock.
    latency_cycles: Optional[int] = None
    #: Rule Filter probes issued, when the engine uses the label method.
    combiner_probes: Optional[int] = None
    #: True when a probe budget truncated the lookup's walk, leaving the match
    #: to a slower exhaustive scan (always False for engines without a budget).
    truncated: bool = False
    #: The engine-specific result (LookupResult / ClassificationOutcome).
    detail: object = field(default=None, compare=False, repr=False)

    @property
    def matched(self) -> bool:
        """True when some rule matched."""
        return self.rule_id is not None

    @classmethod
    def from_lookup(cls, result: LookupResult) -> "Classification":
        """Wrap a configurable-architecture :class:`LookupResult`."""
        match = result.match
        return cls(
            rule_id=match.rule_id if match else None,
            priority=match.priority if match else None,
            action=match.action if match else None,
            memory_accesses=result.total_memory_accesses,
            latency_cycles=result.latency_cycles,
            combiner_probes=result.combiner_probes,
            truncated=result.truncated,
            detail=result,
        )

    @classmethod
    def from_outcome(cls, outcome) -> "Classification":
        """Wrap a baseline ``ClassificationOutcome`` (duck-typed)."""
        rule = outcome.rule
        return cls(
            rule_id=rule.rule_id if rule else None,
            priority=rule.priority if rule else None,
            action=rule.action.value if rule else None,
            memory_accesses=outcome.memory_accesses,
            detail=outcome,
        )


@dataclass(frozen=True)
class BatchResult:
    """A trace worth of classifications with their aggregate metrics."""

    results: Tuple[Classification, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Classification]:
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def packets(self) -> int:
        """Number of packets classified."""
        return len(self.results)

    @property
    def matched(self) -> int:
        """Number of packets that hit a rule."""
        return sum(1 for result in self.results if result.matched)

    @property
    def hit_ratio(self) -> float:
        """Fraction of packets that hit a rule."""
        return self.matched / len(self.results) if self.results else 0.0

    @property
    def truncated_lookups(self) -> int:
        """Number of packets whose lookup was probe-budget truncated."""
        return sum(1 for result in self.results if result.truncated)

    @property
    def total_memory_accesses(self) -> int:
        """Memory words read over the whole batch."""
        return sum(result.memory_accesses for result in self.results)

    @property
    def average_memory_accesses(self) -> float:
        """Average memory accesses per packet."""
        return self.total_memory_accesses / len(self.results) if self.results else 0.0

    @property
    def worst_memory_accesses(self) -> int:
        """Worst-case memory accesses of any packet in the batch."""
        return max((result.memory_accesses for result in self.results), default=0)

    @property
    def average_latency_cycles(self) -> Optional[float]:
        """Average lookup latency, or None when the engine models no clock."""
        latencies = [r.latency_cycles for r in self.results if r.latency_cycles is not None]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    @property
    def worst_latency_cycles(self) -> Optional[int]:
        """Worst lookup latency, or None when the engine models no clock."""
        latencies = [r.latency_cycles for r in self.results if r.latency_cycles is not None]
        return max(latencies) if latencies else None


@dataclass(frozen=True)
class ClassifierStats:
    """Engine-independent snapshot of one classifier instance."""

    #: Registry name of the engine ("configurable", "hypercuts", ...).
    name: str
    #: Rules currently held by the engine.
    rules: int
    #: Total size of the search structures in bits.
    memory_bits: int
    #: Engine-specific extras (throughput, capacity, label counts, ...).
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def memory_megabits(self) -> float:
        """Memory in Mbit — the unit of Tables I and VII."""
        return self.memory_bits / 1e6
