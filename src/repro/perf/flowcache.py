"""Exact-match flow cache fronting every classification path.

Production classifiers at millions-of-flows scale sit behind an exact-match
flow table: the full lookup pipeline (the paper's architecture) only ever
sees cache-miss traffic, and the cache serves the long tail of packets that
belong to already-classified flows.  :class:`FlowCache` is that tier for this
library.  It is keyed by the packed 104-bit header word
(:func:`repro.perf.transport.pack_header`) so a cache entry and a wire word
are the same 13 bytes, and it fronts whatever batch path the classifier has
enabled — per-packet, memoizing fast path, or vectorized cold path.

**Virtual clock.**  All timeouts are measured in *packets observed*, not wall
time: the cache advances one tick per packet it serves.  This keeps every
execution path (and the differential battery) bit-reproducible — the same
trace through the same policy always expires the same entries at the same
packets.

**Eviction policies** (HQTimer direction — timeout-managed rule residency):

``idle``
    An entry dies when no packet of its flow arrived for ``idle_timeout``
    ticks.  Classic OpenFlow idle timeout; hot flows live forever.
``hard``
    An entry dies ``hard_timeout`` ticks after installation regardless of
    traffic.  Bounds worst-case staleness; hot flows pay periodic re-lookups.
``hybrid``
    HQTimer-style adaptive scheme: each entry carries an idle *budget* that
    starts at ``idle_timeout`` and doubles on every hit, capped at
    ``hard_timeout``.  Short-lived flows expire quickly; proven-hot flows
    earn residency up to the hard cap.

Expiry is lazy (checked when the entry is next touched) plus a bounded sweep
under capacity pressure and an explicit :meth:`FlowCache.expire` for tests
and maintenance loops.

**Predictors.**  Under capacity pressure, after expired entries in the LRU
window are reclaimed, the cache must pick a resident victim.  With no
predictor it evicts the least-recently-used entry; a :class:`Predictor`
instead scores a bounded window of LRU-ordered candidates and evicts the
lowest score — :class:`FrequencyPredictor` keeps historically hot flows,
:class:`RecencyPredictor` reproduces LRU through the same protocol.

**Invalidation.**  The cache snapshots the classifier's mutation epochs
(same ``(object, epoch)`` marks as the fast path) and wholesale-flushes when
any moved outside a tracked commit.  Control-plane commits
(:class:`repro.api.control.ClassifierControl`) instead call
:meth:`FlowCache.note_commit` with the applied delta, which drops *only* the
affected entries when that is decision-exact: entries whose cached decision
points at a removed rule, and entries whose flow matches an inserted rule.
Reconfigure ops — and any commit under the approximate ``first_label``
combiner, where an unrelated rule can perturb probe order — flush wholesale.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.invalidation import snapshot_marks
from repro.core.result import BatchResult, Classification
from repro.exceptions import ConfigurationError
from repro.perf.transport import _HEADER_STRUCT
from repro.rules.packet import PacketHeader

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.control import Delta
    from repro.rules.rule import Rule

__all__ = [
    "FLOW_POLICIES",
    "DEFAULT_FLOW_CAPACITY",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_HARD_TIMEOUT",
    "FlowCache",
    "Predictor",
    "FrequencyPredictor",
    "RecencyPredictor",
    "resolve_predictor",
]

#: The three supported eviction policies.
FLOW_POLICIES: Tuple[str, ...] = ("idle", "hard", "hybrid")

#: Default bounded table size (entries).
DEFAULT_FLOW_CAPACITY = 65536

#: Default idle timeout in virtual-clock ticks (packets observed).
DEFAULT_IDLE_TIMEOUT = 4096

#: Default hard timeout / hybrid residency cap in ticks.
DEFAULT_HARD_TIMEOUT = 65536

#: How many LRU-ordered entries the capacity sweep examines per eviction.
EVICTION_SAMPLE = 8

# Entry layout (mutable list — cheapest mutable record in the hot loop).
_RECORD = 0      # cached Classification
_PACKET = 1      # the PacketHeader the flow was installed from
_INSTALLED = 2   # tick the entry was installed
_LAST_HIT = 3    # tick of the most recent hit (or installation)
_HITS = 4        # hit count since installation
_BUDGET = 5      # hybrid policy's current idle allowance


class Predictor:
    """Protocol deciding which resident entries to keep under pressure.

    A predictor maps an entry's observable history to a comparable score;
    the capacity sweep evicts the *lowest*-scoring entry of its candidate
    window.  Implementations must be deterministic pure functions of their
    inputs — the differential battery replays the same trace across seven
    execution paths and expects identical eviction decisions everywhere.
    """

    name = "base"

    def score(self, hits: int, last_hit: int, installed: int, now: int):
        """Return a comparable score; higher keeps the entry resident."""
        raise NotImplementedError


class FrequencyPredictor(Predictor):
    """Keep historically hot flows: score by hit count, recency tie-break."""

    name = "frequency"

    def score(self, hits: int, last_hit: int, installed: int, now: int):
        return (hits, last_hit)


class RecencyPredictor(Predictor):
    """Pure recency (reproduces LRU through the predictor protocol)."""

    name = "recency"

    def score(self, hits: int, last_hit: int, installed: int, now: int):
        return (last_hit, hits)


_PREDICTORS = {
    FrequencyPredictor.name: FrequencyPredictor,
    RecencyPredictor.name: RecencyPredictor,
}


def resolve_predictor(
    predictor: Union[None, str, Predictor]
) -> Optional[Predictor]:
    """Map a predictor spec (instance, registered name, or None) to an instance."""
    if predictor is None or isinstance(predictor, Predictor):
        return predictor
    try:
        return _PREDICTORS[predictor]()
    except KeyError:
        raise ConfigurationError(
            f"unknown flow predictor {predictor!r}; "
            f"choose from {sorted(_PREDICTORS)} or pass a Predictor instance"
        ) from None


class FlowCache:
    """Bounded exact-match flow table keyed by the packed header word.

    Parameters
    ----------
    capacity:
        Maximum resident entries; exceeding it triggers the capacity sweep.
    policy:
        One of :data:`FLOW_POLICIES` (``idle`` / ``hard`` / ``hybrid``).
    idle_timeout / hard_timeout:
        Timeouts in virtual-clock ticks (packets observed, never wall time).
        ``hybrid`` uses ``idle_timeout`` as the starting budget and
        ``hard_timeout`` as the residency cap.
    predictor:
        ``None`` (plain LRU under pressure), a registered name
        (``"frequency"`` / ``"recency"``), or a :class:`Predictor` instance.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        policy: str = "idle",
        idle_timeout: int = DEFAULT_IDLE_TIMEOUT,
        hard_timeout: int = DEFAULT_HARD_TIMEOUT,
        predictor: Union[None, str, Predictor] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"flow cache capacity must be positive, got {capacity}")
        if policy not in FLOW_POLICIES:
            raise ConfigurationError(
                f"unknown flow cache policy {policy!r}; choose from {FLOW_POLICIES}"
            )
        if idle_timeout <= 0 or hard_timeout <= 0:
            raise ConfigurationError(
                f"flow cache timeouts must be positive, got idle={idle_timeout} hard={hard_timeout}"
            )
        if hard_timeout < idle_timeout:
            raise ConfigurationError(
                f"hard_timeout ({hard_timeout}) must be >= idle_timeout ({idle_timeout})"
            )
        self.capacity = capacity
        self.policy = policy
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.predictor = resolve_predictor(predictor)
        #: Virtual clock: ticks once per packet observed.
        self.now = 0
        # key (13-byte packed word) -> entry list; OrderedDict order is
        # recency (hits move_to_end), so iteration starts at the LRU end.
        self._entries: "OrderedDict[bytes, list]" = OrderedDict()
        # rule_id (or None for misses) -> set of resident keys whose cached
        # decision points at that rule; powers surgical invalidation.
        self._by_rule: Dict[Optional[int], set] = {}
        # Serving counters.
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.timeout_evictions = 0
        self.capacity_evictions = 0
        self.surgical_drops = 0
        self.invalidations = 0
        # Epoch marks (repro.core.invalidation.snapshot_marks), the same the
        # fast path keeps.  Only populated once bound.
        self._classifier = None
        self._marks: Dict[str, tuple] = {}

    # -- binding & epochs -----------------------------------------------------
    def bind(self, classifier) -> None:
        """Attach to a classifier: track its mutation epochs from now on."""
        self._classifier = classifier
        self._snapshot_epochs()

    def unbind(self) -> None:
        """Detach from the classifier (the cache is being discarded)."""
        self._classifier = None
        self._marks = {}

    def _snapshot_epochs(self) -> None:
        if self._classifier is not None:
            self._marks = snapshot_marks(self._classifier)

    def _validate_epochs(self) -> None:
        """Wholesale-flush if any mutation epoch moved outside a tracked commit.

        Control-plane commits re-mark epochs via :meth:`note_commit` after
        their surgical drop, so this safety net only fires for untracked
        mutations (direct ``install_rule`` / ``remove_rule`` / ``reconfigure``
        calls) — where flushing everything is the only safe answer.
        """
        if self._classifier is None:
            return
        marks = snapshot_marks(self._classifier)
        if marks != self._marks:
            self.invalidate()
            self._marks = marks

    # -- serving --------------------------------------------------------------
    def classify_batch(
        self,
        packets: Sequence[PacketHeader],
        backend: Callable[[Sequence[PacketHeader]], BatchResult],
    ) -> BatchResult:
        """Serve ``packets``, resolving misses through ``backend`` in order.

        Hits replay the cached :class:`~repro.core.result.Classification`
        (decision and cost record as captured at install time — exactly what
        a hardware flow table would do).  The first packet of a not-resident
        flow is a miss and *installs* the flow; later packets of the same
        flow — within this batch or in later ones — are hits.  Misses are
        deduplicated per flow, resolved through ``backend`` in first-miss
        order, and installed at the tick their first packet was observed.
        """
        self._validate_epochs()
        entries = self._entries
        get = entries.get
        move_to_end = entries.move_to_end
        pack = _HEADER_STRUCT.pack
        policy = self.policy
        idle = self.idle_timeout
        hard = self.hard_timeout
        hybrid = policy == "hybrid"
        now = self.now
        hits = 0
        misses = 0
        results: List[Optional[Classification]] = []
        append = results.append
        # Flows first seen (or re-installed after expiry) in this batch:
        # key -> [installed, last_hit, hits, budget, position in order],
        # resolved once through the backend and installed with their
        # accumulated in-batch history.
        pending: Dict[bytes, list] = {}
        order: List[Tuple[bytes, PacketHeader, list]] = []
        # (packet index, position of its flow in order) per missed packet.
        fixups: List[Tuple[int, int]] = []
        for index, packet in enumerate(packets):
            now += 1
            key = pack(
                packet.src_ip, packet.dst_ip,
                packet.src_port, packet.dst_port, packet.protocol,
            )
            entry = get(key)
            if entry is not None:
                if policy == "idle":
                    expired = now - entry[_LAST_HIT] > idle
                elif policy == "hard":
                    expired = now - entry[_INSTALLED] > hard
                else:
                    expired = now - entry[_LAST_HIT] > entry[_BUDGET]
                if not expired:
                    entry[_LAST_HIT] = now
                    entry[_HITS] += 1
                    if hybrid:
                        budget = entry[_BUDGET] * 2
                        entry[_BUDGET] = budget if budget < hard else hard
                    move_to_end(key)
                    hits += 1
                    append(entry[_RECORD])
                    continue
                self._drop(key, entry)
                self.timeout_evictions += 1
            meta = pending.get(key)
            if meta is not None:
                # The flow was installed earlier in this batch: a hit on the
                # pending entry — unless it would have idled out in between.
                if policy == "idle":
                    expired = now - meta[1] > idle
                elif policy == "hard":
                    expired = now - meta[0] > hard
                else:
                    expired = now - meta[1] > meta[3]
                if not expired:
                    meta[1] = now
                    meta[2] += 1
                    if hybrid:
                        budget = meta[3] * 2
                        meta[3] = budget if budget < hard else hard
                    hits += 1
                else:
                    self.timeout_evictions += 1
                    misses += 1
                    meta[0] = meta[1] = now
                    meta[2] = 0
                    meta[3] = idle
            else:
                meta = pending[key] = [now, now, 0, idle, len(order)]
                order.append((key, packet, meta))
                misses += 1
            append(None)
            fixups.append((index, meta[4]))
        self.now = now
        self.lookups += len(packets)
        self.hits += hits
        self.misses += misses
        if order:
            records = list(backend([packet for _, packet, _ in order]))
            for index, position in fixups:
                results[index] = records[position]
            self._install(order, records)
        return BatchResult(tuple(results))

    def prewarm(
        self,
        packets: Iterable[PacketHeader],
        backend: Callable[[Sequence[PacketHeader]], BatchResult],
    ) -> int:
        """Pre-resolve and install the distinct flows of ``packets``.

        Installs every not-yet-resident flow at the current tick without
        advancing the clock or touching the serving counters (``lookups`` /
        ``hits`` / ``misses``), so a prewarmed cache starts its serving
        stats clean.  Returns the number of entries installed.
        """
        self._validate_epochs()
        pack = _HEADER_STRUCT.pack
        entries = self._entries
        fresh: "OrderedDict[bytes, PacketHeader]" = OrderedDict()
        for packet in packets:
            key = pack(
                packet.src_ip, packet.dst_ip,
                packet.src_port, packet.dst_port, packet.protocol,
            )
            if key not in entries and key not in fresh:
                fresh[key] = packet
        if not fresh:
            return 0
        tick = self.now
        idle = self.idle_timeout
        flows = [(key, packet, [tick, tick, 0, idle]) for key, packet in fresh.items()]
        self._install(flows, backend(list(fresh.values())))
        return len(fresh)

    # -- installation & eviction ----------------------------------------------
    def _install(self, flows: list, records: Sequence[Classification]) -> None:
        """Install resolved flows: ``(key, packet, meta)`` each, in resolve order.

        ``meta`` starts ``[installed, last_hit, hits, budget]``.  A full cache
        frees one slot per new flow, so evictions interleave with the
        installs exactly as they would one flow at a time.
        """
        entries = self._entries
        by_rule = self._by_rule
        capacity = self.capacity
        installed = 0
        for (key, packet, meta), record in zip(flows, records):
            entry = entries.get(key)
            if entry is not None:
                # Already resident (e.g. prewarm raced a serving batch): refresh.
                entry[_RECORD] = record
                entry[_LAST_HIT] = meta[1]
                continue
            if len(entries) >= capacity:
                self._evict_for_capacity()
            entries[key] = [record, packet, meta[0], meta[1], meta[2], meta[3]]
            keys = by_rule.get(record.rule_id)
            if keys is None:
                by_rule[record.rule_id] = {key}
            else:
                keys.add(key)
            installed += 1
        self.insertions += installed

    def _drop(self, key: bytes, entry: list) -> None:
        del self._entries[key]
        rule_id = entry[_RECORD].rule_id
        keys = self._by_rule.get(rule_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_rule[rule_id]

    def _expired(self, entry: list, now: int) -> bool:
        if self.policy == "idle":
            return now - entry[_LAST_HIT] > self.idle_timeout
        if self.policy == "hard":
            return now - entry[_INSTALLED] > self.hard_timeout
        return now - entry[_LAST_HIT] > entry[_BUDGET]

    def _evict_for_capacity(self) -> None:
        """Free exactly one slot: expired entries first, then predictor/LRU.

        Examines a bounded window of :data:`EVICTION_SAMPLE` entries from
        the LRU end.  Any expired entry in the window is reclaimed as a
        timeout eviction; otherwise the predictor scores the window (or,
        with no predictor, the LRU head goes).
        """
        now = self.now
        window: List[Tuple[bytes, list]] = []
        for key, entry in self._entries.items():
            if self._expired(entry, now):
                self._drop(key, entry)
                self.timeout_evictions += 1
                return
            window.append((key, entry))
            if len(window) >= EVICTION_SAMPLE:
                break
        predictor = self.predictor
        if predictor is None:
            victim_key, victim_entry = window[0]
        else:
            victim_key, victim_entry = min(
                window,
                key=lambda item: predictor.score(
                    item[1][_HITS], item[1][_LAST_HIT], item[1][_INSTALLED], now
                ),
            )
        self._drop(victim_key, victim_entry)
        self.capacity_evictions += 1

    def expire(self) -> int:
        """Eagerly reclaim every expired entry; returns how many died."""
        now = self.now
        dead = [
            (key, entry) for key, entry in self._entries.items()
            if self._expired(entry, now)
        ]
        for key, entry in dead:
            self._drop(key, entry)
        self.timeout_evictions += len(dead)
        return len(dead)

    # -- invalidation ----------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every resident entry (wholesale flush)."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self._by_rule.clear()

    def note_commit(self, delta: "Delta") -> None:
        """React to an applied control-plane delta.

        Surgically drops only the affected entries when that is
        decision-exact — the cached decision is the highest-priority match,
        so removing rule R only invalidates entries *decided by* R, and
        inserting R only invalidates entries whose flow R matches.  A
        ``reconfigure`` op, or any commit under the approximate
        ``first_label`` combiner (where an unrelated rule can change probe
        order for untouched flows), flushes wholesale instead.  Always
        re-marks the mutation epochs so the safety net in
        :meth:`_validate_epochs` does not double-flush.
        """
        try:
            if self._entries:
                self._apply_commit(delta)
        finally:
            self._snapshot_epochs()

    def _apply_commit(self, delta: "Delta") -> None:
        classifier = self._classifier
        surgical = classifier is not None and (
            classifier.config.combiner_mode.value == "cross_product"
        )
        if surgical:
            for op in delta:
                if op.kind == "reconfigure":
                    surgical = False
                    break
        if not surgical:
            self.invalidate()
            return
        dropped = 0
        for op in delta:
            if op.kind == "remove":
                for key in tuple(self._by_rule.get(op.rule_id, ())):
                    self._drop(key, self._entries[key])
                    dropped += 1
            elif op.kind == "insert":
                entries = self._entries
                victims = self._matching_keys(op.rule)
                for key in victims:
                    self._drop(key, entries[key])
                dropped += len(victims)
        self.surgical_drops += dropped

    def _matching_keys(self, rule: "Rule") -> List[bytes]:
        """Resident keys whose flow ``rule`` matches, in residency order.

        One pass over the unpacked key words against the rule's five integer
        bounds, instead of a ``Rule.matches`` call per entry.
        """
        keys = list(self._entries)
        src_low, src_high = rule.src_prefix.low, rule.src_prefix.high
        dst_low, dst_high = rule.dst_prefix.low, rule.dst_prefix.high
        sport_low, sport_high = rule.src_port.low, rule.src_port.high
        dport_low, dport_high = rule.dst_port.low, rule.dst_port.high
        protocol = rule.protocol
        proto_low, proto_high = (0, 255) if protocol.wildcard else (protocol.value,) * 2
        return [
            key
            for key, (src, dst, sport, dport, proto) in zip(
                keys, _HEADER_STRUCT.iter_unpack(b"".join(keys))
            )
            if src_low <= src <= src_high
            and dst_low <= dst <= dst_high
            and sport_low <= sport <= sport_high
            and dport_low <= dport <= dport_high
            and proto_low <= proto <= proto_high
        ]

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counters plus configuration, with the hit rate pre-derived."""
        lookups = self.lookups
        return {
            "policy": self.policy,
            "capacity": self.capacity,
            "idle_timeout": self.idle_timeout,
            "hard_timeout": self.hard_timeout,
            "predictor": self.predictor.name if self.predictor is not None else None,
            "entries": len(self._entries),
            "lookups": lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "insertions": self.insertions,
            "timeout_evictions": self.timeout_evictions,
            "capacity_evictions": self.capacity_evictions,
            "evictions": self.timeout_evictions + self.capacity_evictions,
            "surgical_drops": self.surgical_drops,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowCache(policy={self.policy!r}, capacity={self.capacity}, "
            f"entries={len(self._entries)}, hits={self.hits}, misses={self.misses})"
        )
