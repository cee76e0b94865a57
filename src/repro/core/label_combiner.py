"""Label combination — phase 3 of the lookup pipeline.

Each single-field engine returns a priority-ordered list of matching labels;
the combiner turns those lists into the address of the Highest Priority
Matching Rule in the Rule Filter.  Two resolution modes are provided (see
:class:`~repro.core.config.CombinerMode`):

* **FIRST_LABEL** — the paper's hardware fast path: take the first (highest
  priority) label of each list, pack them into the 68-bit key, hash once and
  read the Rule Filter.  One probe, constant time, but only correct when the
  highest-priority labels of every field actually belong to the same rule.
* **CROSS_PRODUCT** — probe every combination of matching labels (the classic
  DCFL-style resolution) and keep the hit with the best rule priority.  This
  is guaranteed correct: if a rule matches the packet, each of its field
  labels is present in the corresponding list, so its combination is probed.

The probe ordering in cross-product mode walks combinations in order of the
best per-field priorities so the expected number of probes before the HPMR is
found stays small for realistic rule sets; a ``probe_budget`` caps the walk on
pathological cross products.  A walk that exhausts it with candidates left
finishes with one read of every Rule Filter slot, so the result stays exact
and only its cost changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import CombinerMode
from repro.exceptions import ConfigurationError
from repro.hardware.hash_unit import LabelKeyLayout
from repro.hardware.rule_filter import NO_ENTRY, RuleFilterEntry, RuleFilterMemory

try:  # NumPy runs the cached cross-product walk on arrays; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

__all__ = ["CombinerOutcome", "LabelCombiner", "DIMENSIONS", "SCAN_HOME"]

#: The seven lookup dimensions in packing order.
DIMENSIONS: Tuple[str, ...] = (
    "src_ip_hi",
    "src_ip_lo",
    "dst_ip_hi",
    "dst_ip_lo",
    "src_port",
    "dst_port",
    "protocol",
)

#: Probe-log entry of an outcome finished by a Rule Filter scan: it depends on
#: every slot, so any change to the filter may move it.
SCAN_HOME = -1


@dataclass(frozen=True)
class CombinerOutcome:
    """Result of combining one packet's per-field label lists."""

    entry: Optional[RuleFilterEntry]
    probes: int
    memory_accesses: int
    cycles: int
    #: True when the cross-product walk hit ``probe_budget`` before every
    #: candidate combination was probed.  The entry is then resolved by a
    #: scan of the whole Rule Filter (still the exact HPMR), whose reads are
    #: added to ``memory_accesses`` and ``cycles``.
    truncated: bool = False


class LabelCombiner:
    """Combines per-field label lists into the HPMR via the Rule Filter."""

    #: Combinations packed/pre-resolved per block by :meth:`combine_with_cache`.
    PROBE_BLOCK = 256

    def __init__(
        self,
        rule_filter: RuleFilterMemory,
        layout: LabelKeyLayout,
        mode: CombinerMode = CombinerMode.CROSS_PRODUCT,
        probe_budget: int = 4096,
    ) -> None:
        if probe_budget <= 0:
            raise ConfigurationError(f"probe budget must be positive, got {probe_budget}")
        self.rule_filter = rule_filter
        self.layout = layout
        self.mode = mode
        self.probe_budget = probe_budget
        self._fast_pack = layout.make_packer()
        self._key_shifts = layout.shifts()

    # -- public API ------------------------------------------------------------
    def combine(
        self,
        field_matches: Dict[str, Sequence[Tuple[int, int]]],
        probe_log: Optional[list] = None,
    ) -> CombinerOutcome:
        """Resolve the HPMR from the per-dimension ``(label, priority)`` lists.

        ``probe_log``, when given, collects the home slot of every packed key
        the walk actually consumed a probe for.  The outcome is a pure
        function of the lookup results of exactly those keys (pruned
        combinations are decided by the priority bounds of probed entries
        alone), so a caller memoizing the outcome can invalidate it by home
        slot: it is stale only if the rule filter changed the lookup of a key
        homed at a logged slot — a dirty key's home or a changed home (see
        :meth:`~repro.hardware.rule_filter.RuleFilterMemory.drain_dirty`).
        A truncated walk's outcome also logs :data:`SCAN_HOME`: it read every
        slot, so any change to the filter may move it.
        """
        missing = [name for name in DIMENSIONS if name not in field_matches]
        if missing:
            raise ConfigurationError(f"combiner is missing dimensions: {missing}")
        lists = [tuple(field_matches[name]) for name in DIMENSIONS]
        if any(not entries for entries in lists):
            # Some field produced no matching label: no rule can match.
            return CombinerOutcome(entry=None, probes=0, memory_accesses=0, cycles=1)
        if self.mode is CombinerMode.FIRST_LABEL:
            return self._combine_first_label(lists, probe_log)
        return self._combine_cross_product(lists, probe_log)

    def combine_with_cache(
        self, lists, probe_cache, sort_memo, probe_log: Optional[list] = None
    ) -> CombinerOutcome:
        """Exact :meth:`combine` over DIMENSIONS-ordered lists through shared caches.

        The cold-path entry point of the :mod:`repro.perf` vectorized batch
        engine.  ``lists`` is the tuple of per-dimension ``(label, priority)``
        match tuples in :data:`DIMENSIONS` order (exactly the
        ``FieldLookupResult.matches`` the engines produced); ``probe_cache``
        memoizes the ``(entry, probes, home)`` triple of a rule-filter lookup
        per packed key and ``sort_memo`` memoizes the priority-sorted form of
        each match list (both are :class:`~repro.perf.lru.BoundedCache`-style
        objects: an exposed ``data`` dict for reads plus an eviction-enforcing
        ``put``).

        The returned :class:`CombinerOutcome` — entry, probe count, memory
        accesses, cycles, truncation — and the probe log are bit-identical to
        what :meth:`combine` returns for the same lists: the walk probes the
        same combinations in the same order with the same priority-bound
        pruning and probe budget; only the per-probe work is restructured.
        With NumPy, the cross-product walk stages every combination's key and
        resolves all of them, pruned ones included, through
        :meth:`~repro.hardware.rule_filter.RuleFilterMemory.lookup_batch`,
        which counts every staged key's reads; it leaves the probe cache
        alone.  Without NumPy (and for keys wider than 128 bits or products
        beyond :attr:`STAGE_CAP`) keys are pre-resolved in blocks and
        repeated keys replay the probe cache instead of re-reading the
        memory.  Cached replays do not re-touch the rule-filter memory
        counters — the same deviation every fast-path cache layer already
        makes.
        """
        if any(not entries for entries in lists):
            # Some field produced no matching label: no rule can match.
            return CombinerOutcome(entry=None, probes=0, memory_accesses=0, cycles=1)
        if self.mode is CombinerMode.FIRST_LABEL:
            key = self._fast_pack([entries[0][0] for entries in lists])
            hit = probe_cache.data.get(key)
            if hit is None:
                lookup = self.rule_filter.lookup(key)
                hit = (lookup.entry, lookup.probes, lookup.home)
                probe_cache.put(key, hit)
            entry, probes, home = hit
            if probe_log is not None:
                probe_log.append(home)
            # As in lookup(): every probe is one memory access.
            return CombinerOutcome(
                entry=entry, probes=1, memory_accesses=probes, cycles=1 + probes
            )
        return self._cross_product_cached(lists, probe_cache, sort_memo, probe_log)

    #: Cross products fully staged as arrays when their size is at most this;
    #: larger ones stream through the block walk (tests may lower it to force
    #: the fallback).
    STAGE_CAP = 1 << 20

    def _staging_record(self, dimension: int, entries, sort_memo):
        """Memoized per-(dimension, match-list) staging data.

        Always carries the priority-sorted list; with NumPy present it also
        carries the per-entry priority array and the entry labels pre-shifted
        into their packed-key position, split into low/high 64-bit limbs
        (``hi`` is ``None`` for dimensions whose field never crosses bit 63).
        """
        memo_key = (dimension, entries)
        record = sort_memo.data.get(memo_key)
        if record is None:
            ordered = tuple(sorted(entries, key=lambda pair: pair[1]))
            if _np is not None:
                count = len(ordered)
                priorities = _np.fromiter(
                    (priority for _, priority in ordered), dtype=_np.int64, count=count
                )
                labels = _np.fromiter(
                    (label for label, _ in ordered), dtype=_np.uint64, count=count
                )
                shift = self._key_shifts[dimension]
                width = self.layout.field_widths()[dimension]
                if shift >= 64:
                    # The whole field lives in the high limb; shifting a
                    # uint64 by >= 64 is C-undefined, so never do it.
                    low = _np.zeros(count, dtype=_np.uint64)
                    high = labels << _np.uint64(shift - 64)
                else:
                    low = labels << _np.uint64(shift)  # wraps modulo 2**64
                    high = (
                        labels >> _np.uint64(64 - shift) if shift + width > 64 else None
                    )
                record = (ordered, priorities, low, high)
            else:
                record = (ordered, None, None, None)
            sort_memo.put(memo_key, record)
        return record

    def _cross_product_cached(
        self, lists, probe_cache, sort_memo, probe_log: Optional[list] = None
    ) -> CombinerOutcome:
        """Cache-backed twin of :meth:`_combine_cross_product`.

        Dispatches between the array walk (NumPy, product size within
        :attr:`STAGE_CAP`) and the streamed block walk; both return the
        outcome and probe log the sequential walk would.
        """
        records = [
            self._staging_record(dimension, entries, sort_memo)
            for dimension, entries in enumerate(lists)
        ]
        ordered = [record[0] for record in records]
        # The two-limb key staging represents keys up to 128 bits; anything
        # wider (a custom LabelKeyLayout) streams through the block walk.
        if _np is not None and self.layout.total_bits <= 128:
            total = math.prod(len(one) for one in ordered)
            if total <= self.STAGE_CAP:
                outcome = self._walk_staged(records, ordered, probe_log)
                if outcome is not None:
                    return outcome
        return self._walk_blocks(ordered, probe_cache, probe_log)

    def _walk_staged(
        self, records, ordered, probe_log: Optional[list] = None
    ) -> Optional[CombinerOutcome]:
        """Array cross-product walk: each chunk resolved in one ``lookup_batch``.

        Combination *i* is probed iff its bound is below the best entry
        priority among *all* combinations before it, a prefix minimum.  That
        equals the sequential walk's running best unless a pruned combination
        holds a better entry, which the label priorities rule out (each is
        the best priority of any rule using the label, so an entry's priority
        is at least its combination's bound).  The walk checks this as it
        goes and returns ``None`` when it fails, for the caller to run the
        block walk instead.  Chunks of at most ``probe_budget`` combinations
        carry the running best; the probe log is appended once the walk is
        final.
        """
        # Bounds and key limbs in product order (the last dimension varies
        # fastest), broadcast over the dimensions with several labels;
        # single-label dimensions fold in as scalars.
        shifts = self._key_shifts
        bound = -(1 << 63)
        key = 0
        varied = []
        for dimension, record in enumerate(records):
            if len(record[0]) == 1:
                label, priority = record[0][0]
                bound = max(bound, priority)
                key |= label << shifts[dimension]
            else:
                varied.append(record)
        shape = tuple(len(record[0]) for record in varied)
        bounds = _np.full(shape, bound, dtype=_np.int64)
        low = _np.full(shape, key & 0xFFFFFFFFFFFFFFFF, dtype=_np.uint64)
        high = _np.full(shape, key >> 64, dtype=_np.uint64)
        for axis, (_, priorities, low_d, high_d) in enumerate(varied):
            view = [1] * len(varied)
            view[axis] = -1
            _np.maximum(bounds, priorities.reshape(view), out=bounds)
            low |= low_d.reshape(view)
            if high_d is not None:
                high |= high_d.reshape(view)
        bounds, low, high = bounds.ravel(), low.ravel(), high.ravel()
        rule_filter = self.rule_filter
        budget = self.probe_budget
        best: Optional[RuleFilterEntry] = None
        best_priority = NO_ENTRY
        probes = 0
        accesses = 0
        homes = []
        truncated = False
        for start in range(0, bounds.size, budget):
            chunk = slice(start, start + budget)
            found = rule_filter.lookup_batch(low[chunk], high[chunk])
            priorities = found.priorities
            before = _np.minimum.accumulate(
                _np.concatenate(([best_priority], priorities[:-1]))
            )
            probed = bounds[chunk] < before
            if (~probed & (priorities < before)).any():
                return None  # a pruned combination holds a better entry
            taken = _np.flatnonzero(probed)[: budget - probes]
            if taken.size:
                probes += taken.size
                accesses += int(found.probes[taken].sum())
                homes.append(found.homes[taken])
                pick = taken[priorities[taken].argmin()]
                if priorities[pick] < best_priority:
                    best = rule_filter.entry_at(int(found.slots[pick]))
                    best_priority = best.priority
            if probes >= budget:
                tail = itertools.product(*ordered)
                tail = itertools.islice(tail, start + int(taken[-1]) + 1, None)
                truncated = self._tail_has_candidates(tail, best)
                break
        if probe_log is not None:
            for part in homes:
                probe_log.extend(part.tolist())
        return self._finish_walk(ordered, best, probes, accesses, truncated, probe_log)

    def _walk_blocks(
        self, ordered, probe_cache, probe_log: Optional[list] = None
    ) -> CombinerOutcome:
        """Streamed block walk through the probe cache.

        Runs without NumPy, for keys wider than 128 bits, for products beyond
        :attr:`STAGE_CAP`, and when the array walk's check fails.
        """
        combinations = itertools.product(*ordered)
        s0, s1, s2, s3, s4, s5, s6 = self._key_shifts
        lookup_many = self.rule_filter._lookup_many
        probe_data = probe_cache.data
        probe_get = probe_data.get
        budget = self.probe_budget
        block_size = self.PROBE_BLOCK
        best: Optional[RuleFilterEntry] = None
        best_priority = 0
        probes = 0
        accesses = 0
        while True:
            block = list(itertools.islice(combinations, block_size))
            if not block:
                break
            # Pack the whole block's keys, and pre-resolve the ones that are
            # not already cached *and* not provably pruned by the current
            # best (``best`` only improves, so a combination pruned now is
            # also pruned when the walk below reaches it).
            staged = []
            stage = staged.append
            misses = []
            miss = misses.append
            unpruned = best is None
            for combo in block:
                (l0, p0), (l1, p1), (l2, p2), (l3, p3), (l4, p4), (l5, p5), (l6, p6) = combo
                bound = p0
                if p1 > bound:
                    bound = p1
                if p2 > bound:
                    bound = p2
                if p3 > bound:
                    bound = p3
                if p4 > bound:
                    bound = p4
                if p5 > bound:
                    bound = p5
                if p6 > bound:
                    bound = p6
                if not unpruned and bound >= best_priority:
                    # Provably pruned at walk time too (``best`` only
                    # improves); the key is never needed.
                    stage((bound, 0))
                    continue
                key = (
                    (l0 << s0) | (l1 << s1) | (l2 << s2) | (l3 << s3)
                    | (l4 << s4) | (l5 << s5) | (l6 << s6)
                )
                stage((bound, key))
                if key not in probe_data:
                    miss(key)
            if misses:
                # Resolve no more than the cache can hold: the excess would
                # evict keys resolved in this very batch before the walk
                # reads them, re-reading (and re-counting) their probes.
                # The remainder resolves one-by-one in the walk's fallback.
                probe_cache.put_many(lookup_many(misses[: probe_cache.limit]))
            # The walk itself: identical visit order, pruning, accounting and
            # budget semantics as the uncached cross-product loop.
            for index, (bound, key) in enumerate(staged):
                if best is not None and bound >= best_priority:
                    continue
                hit = probe_get(key)
                if hit is None:
                    # Evicted mid-block under a tiny probe-cache limit.
                    lookup = self.rule_filter.lookup(key)
                    hit = (lookup.entry, lookup.probes, lookup.home)
                    probe_cache.put(key, hit)
                probes += 1
                entry, cost, home = hit
                if probe_log is not None:
                    probe_log.append(home)
                accesses += cost
                if entry is not None and (best is None or entry.priority < best_priority):
                    best = entry
                    best_priority = entry.priority
                if probes >= budget:
                    tail = itertools.chain(block[index + 1:], combinations)
                    truncated = self._tail_has_candidates(tail, best)
                    return self._finish_walk(
                        ordered, best, probes, accesses, truncated, probe_log
                    )
        return self._finish_walk(ordered, best, probes, accesses, False, probe_log)

    # -- modes --------------------------------------------------------------------
    def _combine_first_label(
        self,
        lists: Sequence[Tuple[Tuple[int, int], ...]],
        probe_log: Optional[list] = None,
    ) -> CombinerOutcome:
        labels = [entries[0][0] for entries in lists]
        key = self.layout.pack(labels)
        lookup = self.rule_filter.lookup(key)
        if probe_log is not None:
            probe_log.append(lookup.home)
        # 1 cycle to merge/hash the 68-bit key + the probe accesses.
        return CombinerOutcome(
            entry=lookup.entry,
            probes=1,
            memory_accesses=lookup.memory_accesses,
            cycles=1 + lookup.probes,
        )

    def _combine_cross_product(
        self,
        lists: Sequence[Tuple[Tuple[int, int], ...]],
        probe_log: Optional[list] = None,
    ) -> CombinerOutcome:
        # Order the combinations so that those involving the best per-field
        # priorities are probed first; the first hit is *not* necessarily the
        # HPMR (per-field priority products are not a total order on rules),
        # so all combinations are still probed, but the early-exit bound below
        # usually stops the walk long before the budget.
        best: Optional[RuleFilterEntry] = None
        probes = 0
        accesses = 0
        truncated = False
        ordered_lists = [
            tuple(sorted(entries, key=lambda pair: pair[1])) for entries in lists
        ]
        combinations = itertools.product(*ordered_lists)
        for combination in combinations:
            lower_bound = max(priority for _, priority in combination)
            if best is not None and lower_bound >= best.priority:
                # No rule reachable through this combination can beat the
                # current best: each field's priority is the *best* priority
                # of any rule using that label, so the rule this combination
                # addresses has priority >= the maximum of them.
                continue
            key = self.layout.pack([label for label, _ in combination])
            lookup = self.rule_filter.lookup(key)
            if probe_log is not None:
                probe_log.append(lookup.home)
            probes += 1
            accesses += lookup.memory_accesses
            if lookup.entry is not None and (best is None or lookup.entry.priority < best.priority):
                best = lookup.entry
            if probes >= self.probe_budget:
                # Budget exhausted: the walk is cut short only if some
                # remaining combination would actually have been probed (the
                # priority bound prunes most of the tail).  The caller must be
                # able to tell (the flag feeds LookupResult and the
                # SessionStats truncation counter).
                truncated = self._tail_has_candidates(combinations, best)
                break
        return self._finish_walk(lists, best, probes, accesses, truncated, probe_log)

    def _finish_walk(
        self,
        lists,
        best: Optional[RuleFilterEntry],
        probes: int,
        accesses: int,
        truncated: bool,
        probe_log: Optional[list],
    ) -> CombinerOutcome:
        """The outcome of a cross-product walk over ``lists``.

        A truncated walk may have missed the HPMR, so it is finished by a
        scan of every Rule Filter slot: the best entry whose labels all lie
        in ``lists`` is the entry the whole walk would have found, because
        the walk probes every such key unless the priority bound proves it
        cannot win.  Shared by every walk, so their outcomes stay identical.
        """
        cycles = 1 + probes
        if truncated:
            allowed = [frozenset(label for label, _ in entries) for entries in lists]
            unpack = self.layout.unpack
            entries, reads = self.rule_filter.scan()
            for entry in entries:
                if best is not None and entry.priority >= best.priority:
                    continue
                if all(
                    label in labels
                    for label, labels in zip(unpack(entry.label_key), allowed)
                ):
                    best = entry
            accesses += reads
            cycles += reads
            if probe_log is not None:
                probe_log.append(SCAN_HOME)
        return CombinerOutcome(
            entry=best,
            probes=probes,
            memory_accesses=accesses,
            cycles=cycles,
            truncated=truncated,
        )

    def _tail_has_candidates(self, combinations, best: Optional[RuleFilterEntry]) -> bool:
        """True when an unvisited combination would still have been probed.

        Applies the same priority-bound prune test as the main walk — without
        issuing any memory access — so an exhausted budget whose remaining
        tail is entirely prunable is *not* reported as truncation (the result
        is provably exact without a Rule Filter scan).  The check is capped
        at ``probe_budget`` further combinations: past that, truncation is
        reported conservatively rather than walking a pathological cross
        product to its end.
        """
        if best is None:
            # Nothing matched yet, so any remaining combination is a live
            # candidate (the prune test never fires without a best entry).
            return next(combinations, None) is not None
        for scanned, combination in enumerate(combinations):
            if scanned >= self.probe_budget:
                return True
            if max(priority for _, priority in combination) < best.priority:
                return True
        return False
