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

:meth:`LabelCombiner.combine_with_cache` resolves a whole batch of packets'
lists in one call, as the pipelined combination stage of the paper's Fig. 3
takes consecutive packets back to back, with exactly the outcome
:meth:`~LabelCombiner.combine` returns for each.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import CombinerMode
from repro.exceptions import ConfigurationError
from repro.hardware.hash_unit import LabelKeyLayout
from repro.hardware.rule_filter import NO_ENTRY, RuleFilterEntry, RuleFilterMemory

try:  # NumPy runs the cached cross-product walk on arrays; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

__all__ = ["CombinedBatch", "CombinerOutcome", "LabelCombiner", "DIMENSIONS", "SCAN_HOME"]

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


class CombinedBatch(NamedTuple):
    """Result of one :meth:`LabelCombiner.combine_with_cache` call."""

    #: One outcome per item of the batch, in batch order.
    outcomes: List[CombinerOutcome]
    #: The outcomes' probes added up: the combining work of the whole batch.
    probes: int


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
        self, batch, probe_cache, sort_memo, probe_logs: Optional[list] = None
    ) -> CombinedBatch:
        """Exact :meth:`combine` of every item of ``batch``, through shared caches.

        The cold-path entry point of the :mod:`repro.perf` vectorized fast
        path, called once per classified batch with all of its combiner
        misses.  Each item is the tuple of per-dimension ``(label,
        priority)`` match tuples in :data:`DIMENSIONS` order;
        ``probe_cache`` memoizes the ``(entry, probes, home)`` triple of a
        rule-filter lookup per packed key and ``sort_memo`` the staging
        record of each match list (both
        :class:`~repro.perf.lru.BoundedCache`-style: a ``data`` dict for
        reads plus an evicting ``put``).  ``probe_logs``, when given, holds
        one list per item, filled as :meth:`combine` fills ``probe_log``.

        Every outcome and probe log is bit-identical to :meth:`combine`'s
        for the same lists: the same combinations are probed in the same
        order with the same pruning and budget.  With NumPy, the items whose
        products fit the probe budget are staged as array segments, at most
        :attr:`STAGE_CAP` keys per pass, and each pass is resolved by one
        :meth:`~repro.hardware.rule_filter.RuleFilterMemory.lookup_batch`
        (which counts every staged key's reads, pruned ones included) and
        one segmented prefix minimum (:meth:`_walk_pass`); they leave the
        probe cache alone.  Every other item, and every item without NumPy,
        takes the block walk (:meth:`_walk_blocks`) on its own, in batch
        order: it replays repeated keys from the probe cache without
        re-touching the memory counters, the same deviation every fast-path
        cache layer makes.
        """
        logs = probe_logs if probe_logs is not None else [None] * len(batch)
        outcomes: List[Optional[CombinerOutcome]] = [None] * len(batch)
        records: List[Optional[list]] = [None] * len(batch)
        first_label = self.mode is CombinerMode.FIRST_LABEL
        # The two-limb key staging represents keys up to 128 bits; anything
        # wider (a custom LabelKeyLayout) streams through the block walk.
        staging = _np is not None and self.layout.total_bits <= 128
        largest = min(self.probe_budget, self.STAGE_CAP)
        passes: List[list] = []
        staged: list = []
        keys = 0
        for index, lists in enumerate(batch):
            if not all(lists):
                # Some field produced no matching label: no rule can match.
                outcomes[index] = CombinerOutcome(
                    entry=None, probes=0, memory_accesses=0, cycles=1
                )
            elif first_label:
                outcomes[index] = self._first_label_cached(lists, probe_cache, logs[index])
            else:
                record = [
                    self._staging_record(dimension, entries, sort_memo)
                    for dimension, entries in enumerate(lists)
                ]
                records[index] = record
                size = math.prod([len(one[0]) for one in record])
                if staging and size <= largest:
                    if keys + size > self.STAGE_CAP:
                        passes.append(staged)
                        staged, keys = [], 0
                    staged.append((index, record, size))
                    keys += size
        if staged:
            passes.append(staged)
        for misses in passes:
            self._walk_pass(misses, batch, outcomes, logs)
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = self._walk_blocks(
                    [one[0] for one in records[index]], batch[index], probe_cache, logs[index]
                )
        return CombinedBatch(outcomes, sum(outcome.probes for outcome in outcomes))

    #: Keys one staged pass of :meth:`combine_with_cache` holds at most, which
    #: bounds the pass's transient arrays: a batch whose staged products add
    #: up to more splits into several passes, and an item whose product alone
    #: exceeds it takes the block walk (tests set it to 0 to force the block
    #: walk everywhere).
    STAGE_CAP = 1 << 10

    def _first_label_cached(self, lists, probe_cache, probe_log: Optional[list]) -> CombinerOutcome:
        """:meth:`_combine_first_label` through the probe cache."""
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
        return CombinerOutcome(entry=entry, probes=1, memory_accesses=probes, cycles=1 + probes)

    def _staging_record(self, dimension: int, entries, sort_memo):
        """Memoized per-(dimension, match-list) staging data.

        Always carries the list's ``(label, priority)`` pairs in priority
        order with each label pre-shifted into its packed-key position; with
        NumPy present it also carries the per-entry priority array and the
        shifted labels split into low/high 64-bit limbs (``hi`` is ``None``
        for dimensions whose field never crosses bit 63).
        """
        memo_key = (dimension, entries)
        record = sort_memo.data.get(memo_key)
        if record is None:
            shift = self._key_shifts[dimension]
            ordered = sorted(entries, key=lambda pair: pair[1])
            shifted = tuple((label << shift, priority) for label, priority in ordered)
            if _np is not None:
                count = len(ordered)
                priorities = _np.fromiter(
                    (priority for _, priority in ordered), dtype=_np.int64, count=count
                )
                labels = _np.fromiter(
                    (label for label, _ in ordered), dtype=_np.uint64, count=count
                )
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
                record = (shifted, priorities, low, high)
            else:
                record = (shifted, None, None, None)
            sort_memo.put(memo_key, record)
        return record

    def _walk_pass(self, misses, batch, outcomes, logs) -> None:
        """Array cross-product walk of several items: one ``lookup_batch``.

        ``misses`` holds ``(index, records, size)`` per item; each item's
        combinations are staged as one segment, in product order (the last
        dimension varies fastest).  Combination *i* is probed iff its bound
        is below the best entry priority among *all* combinations of its
        item before it, a prefix minimum restarted at every segment.  That
        equals the sequential walk's running best unless a pruned
        combination holds a better entry, which the label priorities rule
        out (each is the best priority of any rule using the label, so an
        entry's priority is at least its combination's bound).  An item
        whose segment fails that check gets no outcome, for the caller to
        block-walk it.  A segment never exceeds the probe budget, so no
        staged walk is truncated.
        """
        np = _np
        sizes = [size for _, _, size in misses]
        edges = list(itertools.accumulate(sizes, initial=0))
        total = edges[-1]
        bounds = np.empty(total, dtype=np.int64)
        low = np.empty(total, dtype=np.uint64)
        high = np.empty(total, dtype=np.uint64)
        start = 0
        for _, records, size in misses:
            # Broadcast over the dimensions with several labels; single-label
            # dimensions fold in as scalars.
            bound = -(1 << 63)
            key = 0
            varied = []
            for record in records:
                if len(record[0]) == 1:
                    ((label, priority),) = record[0]
                    bound = max(bound, priority)
                    key |= label
                else:
                    varied.append(record)
            shape = tuple(len(record[0]) for record in varied)
            end = start + size
            segment_bounds = bounds[start:end].reshape(shape)
            segment_low = low[start:end].reshape(shape)
            segment_high = high[start:end].reshape(shape)
            segment_bounds.fill(bound)
            segment_low.fill(key & 0xFFFFFFFFFFFFFFFF)
            segment_high.fill(key >> 64)
            for axis, (_, priorities, low_d, high_d) in enumerate(varied):
                view = [1] * len(varied)
                view[axis] = -1
                np.maximum(segment_bounds, priorities.reshape(view), out=segment_bounds)
                segment_low |= low_d.reshape(view)
                if high_d is not None:
                    segment_high |= high_d.reshape(view)
            start = end
        found = self.rule_filter.lookup_batch(low, high)
        priorities = found.priorities
        # ``running``: the best entry priority among the combinations of its
        # segment up to and including each one.  One accumulate restarts at
        # every segment once each segment's values lie below all earlier
        # segments' values: rank them, and lift each segment one rank span
        # (the pass's key count) above the segment after it.  A stable sort
        # ranks equal priorities in walk order, so the running minimum stays
        # on the first of them.  ``order`` is the scanned array, which that
        # makes non-increasing over the whole pass.
        if len(misses) > 1:
            by_rank = priorities.argsort(kind="stable")
            ranks = np.empty(total, dtype=np.int64)
            ranks[by_rank] = np.arange(total)
            lift = np.repeat(range((len(misses) - 1) * total, -1, -total), sizes)
            order = np.minimum.accumulate(ranks + lift)
            running = priorities[by_rank[order - lift]]
        else:
            order = running = np.minimum.accumulate(priorities)
        # Each combination is compared with the best before it; the first of
        # a segment has none, so it is always probed.
        edges = np.array(edges)
        probed = np.empty(total, dtype=bool)
        np.less(bounds[1:], running[:-1], out=probed[1:])
        probed[edges[:-1]] = True
        # A pruned combination holding a better entry fails its segment.
        failing = ()
        failed = (priorities[1:] < running[:-1]) > probed[1:]
        if failed.any():
            failing = set(edges.searchsorted(failed.nonzero()[0] + 1, "right").tolist())
        taken = probed.nonzero()[0]
        # Per segment, the slice of ``taken`` holding its probes (each
        # segment holds at least its first combination).
        cuts = taken.searchsorted(edges)
        accesses = np.add.reduceat(found.probes[taken], cuts[:-1]).tolist()
        # Each segment's first combination reaching its best priority: when
        # the check passed it was probed, and it holds the entry the
        # sequential walk keeps (it replaces the best only on a strictly
        # lower priority).  ``order`` is non-increasing, so one search finds
        # them all.
        picks = total - order[::-1].searchsorted(order[edges[1:] - 1], "right")
        slots = found.slots[picks].tolist()  # -1: no entry
        homes = found.homes[taken].tolist()
        cuts = cuts.tolist()
        entry_at = self.rule_filter.entry_at
        for number, (index, _, _) in enumerate(misses, 1):
            if number in failing:
                continue
            first, last = cuts[number - 1], cuts[number]
            slot = slots[number - 1]
            log = logs[index]
            if log is not None:
                log.extend(homes[first:last])
            outcomes[index] = self._finish_walk(
                batch[index],
                entry_at(slot) if slot >= 0 else None,
                last - first,
                accesses[number - 1],
                False,
                log,
            )

    def _walk_blocks(
        self, shifted, lists, probe_cache, probe_log: Optional[list] = None
    ) -> CombinerOutcome:
        """Streamed block walk of one item through the probe cache.

        ``shifted`` holds the item's pre-shifted, priority-ordered lists (its
        staging records' first fields).  Runs without NumPy, for keys wider
        than 128 bits, for products beyond the probe budget or
        :attr:`STAGE_CAP`, and when the array walk's check fails.
        """
        pairs = self._pairs(shifted)
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
            block = list(itertools.islice(pairs, block_size))
            if not block:
                break
            # Pre-resolve the block's keys that are not already cached *and*
            # not provably pruned by the current best (``best`` only
            # improves, so a combination pruned now is also pruned when the
            # walk below reaches it).
            if best is None:
                misses = [key for key, _ in block if key not in probe_data]
            else:
                misses = [
                    key for key, bound in block
                    if bound < best_priority and key not in probe_data
                ]
            if misses:
                # Resolve no more than the cache can hold: the excess would
                # evict keys resolved in this very batch before the walk
                # reads them, re-reading (and re-counting) their probes.
                # The remainder resolves one-by-one in the walk's fallback.
                probe_cache.put_many(lookup_many(misses[: probe_cache.limit]))
            # The walk itself: identical visit order, pruning, accounting and
            # budget semantics as the uncached cross-product loop.
            for index, (key, bound) in enumerate(block):
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
                    tail = itertools.chain(block[index + 1:], pairs)
                    truncated = self._tail_has_candidates(
                        (bound for _, bound in tail), best
                    )
                    return self._finish_walk(
                        lists, best, probes, accesses, truncated, probe_log
                    )
        return self._finish_walk(lists, best, probes, accesses, False, probe_log)

    def _pairs(self, shifted):
        """Stream the cross product's ``(key, bound)`` pairs in product order.

        The trailing lists are folded, one at a time, into one list of pairs
        until it holds at least a block; each combination of the leading
        lists is folded once, and joined with those pairs only when the walk
        reaches it.  Every key is built from labels shifted once per list,
        and the product is never built whole.
        """
        split = len(shifted) - 1
        inner = shifted[split]
        while split and len(inner) < self.PROBE_BLOCK:
            split -= 1
            inner = [
                (label | key, priority if priority > bound else bound)
                for label, priority in shifted[split]
                for key, bound in inner
            ]
        if not split:
            return iter(inner)
        leading = (
            (
                functools.reduce(operator.or_, [label for label, _ in combination]),
                max([priority for _, priority in combination]),
            )
            for combination in itertools.product(*shifted[:split])
        )
        return itertools.chain.from_iterable(
            [
                (prefix | key, bound if bound > floor else floor)
                for key, bound in inner
            ]
            for prefix, floor in leading
        )

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
                truncated = self._tail_has_candidates(
                    (max(priority for _, priority in rest) for rest in combinations), best
                )
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

    def _tail_has_candidates(self, bounds, best: Optional[RuleFilterEntry]) -> bool:
        """True when an unvisited combination would still have been probed.

        ``bounds`` iterates the priority bounds of the combinations the walk
        did not visit, in walk order.  Applies the same prune test as the
        main walk — without issuing any memory access — so an exhausted
        budget whose remaining tail is entirely prunable is *not* reported as
        truncation (the result is provably exact without a Rule Filter
        scan).  The check is capped at ``probe_budget`` further combinations:
        past that, truncation is reported conservatively rather than walking
        a pathological cross product to its end.
        """
        if best is None:
            # Nothing matched yet, so any remaining combination is a live
            # candidate (the prune test never fires without a best entry).
            return next(bounds, None) is not None
        for scanned, bound in enumerate(bounds):
            if scanned >= self.probe_budget:
                return True
            if bound < best.priority:
                return True
        return False
