"""Rule Filter memory block.

The Rule Filter is the final memory of the lookup pipeline: it is addressed by
the hash of the combined label key and returns the Highest Priority Matching
Rule (rule id, priority and action).  Thanks to the label method it is
*independent of the chosen per-field algorithms* (section IV.C.2) — only the
label combination matters — which is why it lives here in the hardware layer
rather than inside any particular engine.

Collisions between distinct label keys are resolved by linear probing; each
probe step is one memory access and is therefore visible in both the cycle and
the memory-access accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.exceptions import CapacityError, MemoryModelError
from repro.hardware.hash_unit import HashUnit
from repro.hardware.memory import MemoryBlock
from repro.observers import MutationEpoch
from repro.rules.rule import Rule

try:  # NumPy backs lookup_batch; the scalar paths need nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

__all__ = [
    "NO_ENTRY",
    "RuleFilterBatch",
    "RuleFilterEntry",
    "RuleFilterLookup",
    "RuleFilterMemory",
]

#: Priority :meth:`RuleFilterMemory.lookup_batch` reports for a key with no
#: stored entry (the largest ``int64``, above every rule priority).
NO_ENTRY = (1 << 63) - 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RuleFilterEntry:
    """One stored rule entry: the packed label key it belongs to plus the rule."""

    label_key: int
    rule_id: int
    priority: int
    action: str


@dataclass(frozen=True)
class RuleFilterLookup:
    """Result of probing the rule filter with one label key."""

    entry: Optional[RuleFilterEntry]
    probes: int
    memory_accesses: int
    #: Home slot of the key (its hash): where the probe walk started.
    home: int


class RuleFilterBatch(NamedTuple):
    """Per-key NumPy arrays of one :meth:`RuleFilterMemory.lookup_batch` call."""

    #: Slot of each key's best entry (``-1``: no entry under the key); read
    #: the entry through :meth:`RuleFilterMemory.entry_at`.
    slots: object
    #: Priority of each key's best entry, :data:`NO_ENTRY` when there is none.
    priorities: object
    #: Probes of each key's walk (one memory access each).
    probes: object
    #: Home slot of each key.
    homes: object


class RuleFilterMemory(MutationEpoch):
    """Hash-addressed rule store shared by every algorithm combination.

    Carries the :class:`~repro.observers.MutationEpoch` surface: the
    :mod:`repro.perf` fast path memoizes lookup outcomes against the filter
    contents and drops them when the epoch advances past the one the memo
    was stamped with (every insert/delete bumps it).
    """

    #: Width of one rule-filter word: 68-bit key + rule id + priority + action
    #: pointer; 96 bits keeps the arithmetic round and matches the scale of the
    #: prototype's rule memory.
    WORD_WIDTH = 96

    def __init__(self, capacity: int = 16384, hash_unit: Optional[HashUnit] = None, name: str = "rule_filter") -> None:
        if capacity <= 0:
            raise MemoryModelError(f"rule filter capacity must be positive, got {capacity}")
        table_bits = max(1, (capacity - 1).bit_length())
        self.hash_unit = hash_unit or HashUnit(table_bits=table_bits)
        if self.hash_unit.table_size < capacity:
            raise MemoryModelError(
                f"hash unit addresses {self.hash_unit.table_size} slots, below capacity {capacity}"
            )
        self.capacity = capacity
        self.memory = MemoryBlock(name, depth=self.hash_unit.table_size, width=self.WORD_WIDTH)
        self._stored = 0
        # Scoped-invalidation surface, drained by the control plane once per
        # commit.  Two effects are tracked separately because they invalidate
        # differently:
        #
        # * ``_dirty_keys`` — label keys whose stored entries changed (were
        #   inserted, removed, or relocated by a backward-shift).  A lookup
        #   for any *other* key scans past those entries without caring what
        #   they hold, so only lookups of the dirty keys themselves change.
        # * ``_occupancy_origin`` — per touched slot, whether it was occupied
        #   before its first flip since the last drain.  Probe walks terminate
        #   at the first empty slot, so a *net* occupancy change moves the
        #   probe counts of the keys homed in the run that ends at the flipped
        #   slot.  The drain turns each flip into that window of home slots
        #   (see :meth:`drain_dirty`); a lookup homed anywhere else reads the
        #   same slots to the same empty terminator.  A delete immediately
        #   followed by a re-insert (the dominant update-under-load pattern)
        #   refills the freed slot and nets out to no window at all.
        self._dirty_keys: set = set()
        self._occupancy_origin: dict = {}
        self._dirty_overflow = False
        # Array mirror of the slots for lookup_batch (NumPy only): per slot
        # the stored key's two 64-bit limbs, its priority (NO_ENTRY for an
        # empty slot, or a key wider than 128 bits that no limb pair names)
        # and its occupancy.  Kept current at every memory write and clear;
        # the per-home walk lengths derived from it are recomputed on the
        # first batch lookup after an epoch bump.
        if _np is not None:
            depth = self.memory.depth
            self._slot_low = _np.zeros(depth, dtype=_np.uint64)
            self._slot_high = _np.zeros(depth, dtype=_np.uint64)
            self._slot_priority = _np.full(depth, NO_ENTRY, dtype=_np.int64)
            self._slot_occupied = _np.zeros(depth, dtype=bool)
        self._walks: Optional[tuple] = None

    # -- capacity -----------------------------------------------------------
    @property
    def stored_rules(self) -> int:
        """Number of rules currently stored."""
        return self._stored

    @property
    def total_bits(self) -> int:
        """Capacity of the underlying memory block in bits."""
        return self.memory.total_bits

    def reset_counters(self) -> None:
        """Zero the access counters of the underlying memory."""
        self.memory.reset_counters()

    # -- scoped invalidation -------------------------------------------------
    #: Cap on dirty keys + touched slots tracked between drains; beyond it the
    #: drain reports the mutations as unbounded, bounding both the memory here
    #: and the per-commit pruning work of downstream caches.
    DIRTY_BUDGET = 4096

    def drain_dirty(self) -> Optional[Tuple[List[int], List[int]]]:
        """Return and reset the dirty state recorded since the last drain.

        Returns ``(dirty keys, changed homes)``, or ``None`` when the tracking
        budget overflowed and the mutations cannot be bounded.  A lookup's
        outcome is its best entry plus its probe count; the best entry can
        only have changed for a dirty key, the probe count only for a key
        whose home slot is among the changed homes.

        Changed homes: a probe walk ends at the first empty slot at or after
        its home, so its length moves only if a slot from the home up to that
        terminator net-flipped occupancy, and every slot before the first
        such flip was occupied both before and after the mutations.  So for
        each flipped slot the changed homes are the slot itself plus every
        slot walking back from it (wrapping past slot 0) while the slot was
        occupied both before and after; a lookup homed anywhere else reads
        the same slots to the same empty terminator.
        """
        keys, origin = self._dirty_keys, self._occupancy_origin
        overflow = self._dirty_overflow
        self._dirty_keys = set()
        self._occupancy_origin = {}
        self._dirty_overflow = False
        if overflow:
            return None
        peek = self.memory.peek
        mask = self.hash_unit.table_size - 1
        homes: set = set()
        for flipped, occupied in origin.items():
            if (peek(flipped) is not None) == occupied:
                continue
            homes.add(flipped)
            slot = (flipped - 1) & mask
            while slot not in homes and peek(slot) is not None and origin.get(slot, True):
                homes.add(slot)
                slot = (slot - 1) & mask
        return sorted(keys), sorted(homes)

    def _note_entry_key(self, label_key: int) -> None:
        if self._dirty_overflow:
            return
        self._dirty_keys.add(label_key)
        if len(self._dirty_keys) + len(self._occupancy_origin) > self.DIRTY_BUDGET:
            self._overflow_dirty()

    def _note_occupancy(self, slot: int, was_occupied: bool) -> None:
        if self._dirty_overflow or slot in self._occupancy_origin:
            return
        self._occupancy_origin[slot] = was_occupied
        if len(self._dirty_keys) + len(self._occupancy_origin) > self.DIRTY_BUDGET:
            self._overflow_dirty()

    def _overflow_dirty(self) -> None:
        self._dirty_overflow = True
        self._dirty_keys.clear()
        self._occupancy_origin.clear()

    def _mirror(self, slot: int, entry: Optional[RuleFilterEntry]) -> None:
        """Copy a write (``entry``) or clear (``None``) of ``slot`` into the arrays."""
        if _np is None:
            return
        self._slot_occupied[slot] = entry is not None
        if entry is None or entry.label_key >> 128:
            self._slot_priority[slot] = NO_ENTRY
        else:
            self._slot_low[slot] = entry.label_key & _MASK64
            self._slot_high[slot] = entry.label_key >> 64
            self._slot_priority[slot] = entry.priority

    # -- update path -----------------------------------------------------------
    def insert(self, label_key: int, rule: Rule) -> Tuple[int, int]:
        """Store ``rule`` under ``label_key``.

        Returns ``(slot, memory_accesses)``.  Rules sharing the same label key
        (possible when two rules have identical field specifications apart
        from priority) are chained in the probe sequence; the lower-priority
        duplicate simply occupies the next free probe slot.
        """
        if self._stored >= self.capacity:
            raise CapacityError(
                f"rule filter full: {self._stored} rules stored, capacity {self.capacity}"
            )
        accesses = 0
        entry = RuleFilterEntry(
            label_key=label_key,
            rule_id=rule.rule_id,
            priority=rule.priority,
            action=rule.action.value,
        )
        for slot in self.hash_unit.probe_sequence(label_key, self.memory.depth):
            occupant = self.memory.read(slot)
            accesses += 1
            if occupant is None:
                self.memory.write(slot, entry)
                self._mirror(slot, entry)
                accesses += 1
                self._stored += 1
                self._note_entry_key(label_key)
                self._note_occupancy(slot, was_occupied=False)
                self.bump_mutation_epoch()
                return slot, accesses
        raise CapacityError(f"rule filter probing exhausted all {self.memory.depth} slots")

    def delete(self, label_key: int, rule_id: int) -> Tuple[bool, int]:
        """Remove the entry for ``rule_id`` under ``label_key``.

        Returns ``(deleted, memory_accesses)``.  The probe chain is left
        intact by re-inserting any displaced entries (backward-shift
        deletion), so lookups never cross a hole created by deletion.
        """
        accesses = 0
        target_slot: Optional[int] = None
        chain: List[Tuple[int, RuleFilterEntry]] = []
        for slot in self.hash_unit.probe_sequence(label_key, self.memory.depth):
            occupant = self.memory.read(slot)
            accesses += 1
            if occupant is None:
                break
            if occupant.label_key == label_key and occupant.rule_id == rule_id and target_slot is None:
                target_slot = slot
            elif target_slot is not None:
                chain.append((slot, occupant))
        if target_slot is None:
            return False, accesses
        self._note_entry_key(label_key)
        self._note_occupancy(target_slot, was_occupied=True)
        self.memory.clear(target_slot)
        self._mirror(target_slot, None)
        accesses += 1
        self._stored -= 1
        # Re-insert the tail of the probe chain so no lookup hits the hole.
        # Each displaced entry's key is dirtied (its entry may land on a new
        # slot) and each freed/refilled slot's occupancy is tracked; the
        # re-inserts below record their own effects through insert().
        for slot, occupant in chain:
            self._note_entry_key(occupant.label_key)
            self._note_occupancy(slot, was_occupied=True)
            self.memory.clear(slot)
            self._mirror(slot, None)
            accesses += 1
            self._stored -= 1
        for _, occupant in chain:
            rule_like = _entry_as_rule(occupant)
            _, extra = self.insert(occupant.label_key, rule_like)
            accesses += extra
        self.bump_mutation_epoch()
        return True, accesses

    # -- lookup path --------------------------------------------------------------
    def lookup(self, label_key: int) -> RuleFilterLookup:
        """Return the best-priority entry stored under ``label_key``."""
        home = self.hash_unit.hash(label_key)
        mask = self.hash_unit.table_size - 1
        probes = 0
        best: Optional[RuleFilterEntry] = None
        for offset in range(self.memory.depth):
            occupant = self.memory.read((home + offset) & mask)
            probes += 1
            if occupant is None:
                break
            if occupant.label_key == label_key:
                if best is None or occupant.priority < best.priority:
                    best = occupant
        # Every probe is one memory access.
        return RuleFilterLookup(entry=best, probes=probes, memory_accesses=probes, home=home)

    def lookup_batch(self, low, high) -> RuleFilterBatch:
        """Array :meth:`lookup` of many keys given as 64-bit limbs (NumPy only).

        ``low`` and ``high`` are equal-length ``uint64`` arrays holding bits
        0-63 and 64-127 of each key.  Per key, the returned arrays carry
        exactly what :meth:`lookup` would report: the slot of the best entry
        (the first one in walk order among equal priorities), its priority,
        the probe count (``memory_accesses == probes``) and the home slot.
        Every key is resolved and its reads are counted, in one bulk
        :meth:`~repro.hardware.memory.MemoryBlock.count_reads` call, whether
        or not the caller goes on to consume it.
        """
        homes = self.hash_unit.hash_limbs(low, high)
        lengths, spans = self._walk_lengths()
        probes = lengths[homes]
        span = spans[homes]
        slots = _np.full(len(homes), -1, dtype=_np.int64)
        scanned = int(span.sum())
        if scanned:
            # One row per occupied slot a walk reads before its terminator.
            owner = _np.repeat(_np.arange(len(homes)), span)
            offset = _np.arange(scanned) - (_np.cumsum(span) - span)[owner]
            slot = (homes[owner] + offset) & (self.memory.depth - 1)
            priority = self._slot_priority[slot]
            hit = _np.flatnonzero(
                (self._slot_low[slot] == low[owner])
                & (self._slot_high[slot] == high[owner])
                & (priority != NO_ENTRY)
            )
            if hit.size:
                # Best priority per key; the stable sort keeps walk order
                # among equal priorities, as lookup()'s strict < does.
                hit = hit[_np.lexsort((priority[hit], owner[hit]))]
                keys = owner[hit]
                first = _np.ones(hit.size, dtype=bool)
                first[1:] = keys[1:] != keys[:-1]
                slots[keys[first]] = slot[hit[first]]
        priorities = _np.where(slots >= 0, self._slot_priority[slots], NO_ENTRY)
        self.memory.count_reads(int(probes.sum()))
        return RuleFilterBatch(slots, priorities, probes, homes)

    def _walk_lengths(self):
        """Per-home probe count and occupied-run length, current to the epoch."""
        epoch = self.mutation_epoch
        if self._walks is None or self._walks[0] != epoch:
            depth = self.memory.depth
            empty = _np.flatnonzero(~self._slot_occupied)
            if empty.size:
                homes = _np.arange(depth)
                # The first empty slot at or after each home, wrapping past
                # the last slot; the walk reads up to and including it.
                ends = _np.append(empty, empty[0] + depth)[_np.searchsorted(empty, homes)]
                spans = ends - homes
                lengths = spans + 1
            else:
                # A full table: every walk reads all depth slots, no terminator.
                spans = lengths = _np.full(depth, depth)
            self._walks = (epoch, lengths, spans)
        return self._walks[1:]

    def scan(self) -> Tuple[List[RuleFilterEntry], int]:
        """Read every slot once: ``(stored entries in slot order, accesses)``.

        The exhaustive read a cross-product walk falls back to when it runs
        out of probe budget.  Each slot is one access, counted on the memory
        in one bulk update.
        """
        depth = self.memory.depth
        self.memory.count_reads(depth)
        return [entry for _, entry in self.memory.items()], depth

    def entry_at(self, slot: int) -> Optional[RuleFilterEntry]:
        """The entry at a slot :meth:`lookup_batch` reported (its read is counted)."""
        return self.memory.peek(slot)

    def _lookup_many(self, label_keys) -> dict:
        """Resolve many keys in one pass: ``{key: (entry, probes, home)}``.

        The dict form of :meth:`lookup` for any key width, used by the
        combiner's block walk: per key, ``entry``, ``probes`` and ``home``
        are exactly what :meth:`lookup` would report, and ``memory_accesses
        == probes``.  Duplicate keys are resolved once.  The memory's read
        counter is updated in one bulk
        :meth:`~repro.hardware.memory.MemoryBlock.count_reads` call.
        """
        keys = label_keys if isinstance(label_keys, list) else list(label_keys)
        reader = self.memory.batch_reader()
        mask = self.hash_unit.table_size - 1
        depth = self.memory.depth
        results: dict = {}
        total_reads = 0
        for key, home in zip(keys, self.hash_unit.hash_batch(keys)):
            if key in results:
                continue
            probes = 0
            best: Optional[RuleFilterEntry] = None
            slot = home
            for _ in range(depth):
                occupant = reader(slot)
                probes += 1
                if occupant is None:
                    break
                if occupant.label_key == key and (best is None or occupant.priority < best.priority):
                    best = occupant
                slot = (slot + 1) & mask
            total_reads += probes
            results[key] = (best, probes, home)
        self.memory.count_reads(total_reads)
        return results

    def entries(self) -> List[RuleFilterEntry]:
        """Every stored entry (verification helper, not access-counted)."""
        return [payload for _, payload in self.memory.items()]


def _entry_as_rule(entry: RuleFilterEntry) -> Rule:
    """Rebuild a minimal Rule carrying only the identity the filter stores.

    Only ``rule_id``, ``priority`` and ``action`` matter to the rule filter;
    the field specifications are irrelevant once the label key is known, so a
    fully wildcarded rule carrying the right identity is sufficient for
    re-insertion during backward-shift deletion.
    """
    from repro.rules.rule import RuleAction

    return Rule.build(
        rule_id=entry.rule_id,
        priority=entry.priority,
        action=RuleAction(entry.action),
    )
