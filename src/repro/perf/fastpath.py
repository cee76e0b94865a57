"""Memoizing batch-lookup fast path for the configurable classifier.

Real traces are massively redundant: a ClassBench trace over a 10K-rule
filter set contains only a few thousand unique 16-bit IP segment values, a
handful of protocols and a modest set of port values.  The per-packet path
recomputes every engine walk, every combiner cross-product and every result
record from scratch for each packet; the fast path memoizes four layers:

1. **Field layer** — one direct-indexed table per dimension: a Python list
   the size of the dimension's value domain
   (:data:`~repro.core.dimensions.DIMENSION_DOMAINS`: 2^16 slots for an IP
   segment or a port, 2^8 for the protocol, as the paper's 256-entry protocol
   LUT), indexed by the field value and holding the result id its batch
   walker returned, or ``None`` while unfilled (see
   :mod:`repro.fields.vectorized`).  The walker owns the dimension's intern
   table, the software analogue of the label-list memory a field engine
   points into: it ids each distinct (immutable)
   :class:`~repro.fields.base.FieldLookupResult` once, under ids it never
   reuses, so the thousands of field values sharing a label list share one
   id, and equal ids mean equal results.
2. **Combiner layer** — a cache keyed by the packed tuple of per-dimension
   label lists mapping to the (immutable)
   :class:`~repro.core.label_combiner.CombinerOutcome`.  Distinct field
   values that resolve to the same label lists share one entry, so this layer
   hits even when the field layer misses.  A batch probes it once per
   distinct label-list tuple, and its misses are resolved together (see
   below).
3. **Result layer** — a cache keyed by the tuple of the seven field-result
   ids mapping to the finished :class:`~repro.core.result.Classification`.
   Distinct headers that resolve to the same per-dimension results share one
   finished record, so the assembly step (cycle report, access accounting,
   record construction) — the residue left after the field and combiner
   layers hit — runs once per distinct result tuple instead of once per
   distinct header.  Only its misses fetch the results back from the
   walkers.
4. **Header layer** — a cache keyed by the full 5-tuple header mapping to the
   finished :class:`~repro.core.result.Classification` (flow locality makes
   repeated headers common in practice).  It short-circuits every layer
   below it, so a commit that moves any field span or Rule Filter probe
   clears it whole (see :meth:`FastPathAccelerator.note_commit`).

Every layer is bounded.  A field table is bounded by its domain: it is
allocated once, at full size, and never evicts.  The combiner, result and
header layers are bounded :class:`~repro.perf.lru.LRUCache` instances (the
probe cache below is FIFO-bounded): an adversarial stream of never-repeating
flows evicts instead of growing without bound, and the eviction counts are
reported by :meth:`FastPathAccelerator.cache_stats`.
Each intern table has its own bound: an array walker's table is bounded by
its view (a rebuild prunes it to the results the view's rows name once it
holds more than twice as many), and a scalar walker's table, which grows
with the results it looked up, is pruned to the ids its field table still
names by a batch that leaves it holding as many results as the dimension
has values.  Ids are never reused, so a result key naming a dropped id can
only miss.

**One columnar pass per batch**, in both modes: probe the header layer once
per packet and group the distinct misses; read the misses' seven dimension
columns straight from the header fields; read each column through its field
table and resolve the column's distinct unfilled values to result ids in one
walker call, in first-seen order; then look the id tuples up in the result
layer, and finish its distinct misses together: one combiner probe per
distinct label-list tuple, one resolution of the new tuples, combo ids
handed out in first-seen order, and the dependency maps filed in the order
one miss at a time would file them.  The modes differ only in what
resolves.  The plain mode's walkers call the engine's ``lookup`` per value
(:class:`~repro.fields.vectorized.ScalarBatchWalker`), and each new
label-list tuple goes to the combiner's ``combine``.  The vectorized mode
(``vectorized=True``) resolves the values through the array batch walkers of
:mod:`repro.fields.vectorized` (pure Python, with or without NumPy) and all
of a batch's new tuples in one
:meth:`~repro.core.label_combiner.LabelCombiner.combine_with_cache` call —
exact cross-product walks that, with NumPy, resolve the staged keys of every
tuple within the probe budget in one array rule-filter lookup.  The other
tuples, and every tuple without NumPy, take a block walk that pre-packs keys
in blocks and replays repeated rule-filter probes from a fifth, key-level
**probe cache** (which only those walks fill).

Results are *bit-exact* with the per-packet path in every mode: every cached
object is immutable and deterministic given the installed rules, and the
final record is assembled by the very same
:meth:`~repro.core.classifier.ConfigurableClassifier._assemble_lookup` the
per-packet path uses — the cost-model accounting (per-phase cycles,
per-dimension memory accesses, probe counts, truncation flags) is identical.

Caches invalidate by **epoch comparison**: every single-field engine and the
Rule Filter carry a :class:`~repro.observers.MutationEpoch` counter bumped
after each structural mutation (every control-plane commit lands as such
mutations), and the accelerator snapshots those epochs when it fills a cache.
At the start of every batch the snapshots are compared against the live
epochs — a dimension whose engine moved clears that dimension's field table
(plus the derived layers), a Rule Filter that moved drops the combiner,
result, header and probe caches.  Interleaved transactional updates and
batch lookups therefore stay correct without any callback registration, and
the scheme survives process boundaries (a replica rebuilt in a worker starts
cold at epoch 0).

Epochs are the backstop.  A control-plane commit hands its
:class:`~repro.core.invalidation.InvalidationScope` to
:meth:`FastPathAccelerator.note_commit`, which makes the commit cost what it
changes: field tables clear only the slots inside the commit's spans, the
batch walkers queue the same spans and patch their flattened views at the
next batch instead of rebuilding them (see :mod:`repro.fields.vectorized`),
and combiner / result entries drop only if their walk probed a Rule Filter
home slot the commit moved.  Each combiner entry carries a small integer id,
so the home-slot dependency map files ints rather than re-hashing the
entry's label-list key once per probe.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress, repeat
from operator import is_
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.dimensions import DIMENSION_DOMAINS, DIMENSIONS, packet_dimension_columns
from repro.core.result import BatchResult, Classification
from repro.core.invalidation import InvalidationScope, snapshot_marks
from repro.core.label_combiner import SCAN_HOME
from repro.fields.vectorized import BatchWalker, ScalarBatchWalker, batch_walker
from repro.perf.lru import BoundedCache, LRUCache
from repro.rules.packet import PacketHeader

__all__ = ["FastPathAccelerator"]

#: Header-cache entries kept before the least recently used one is evicted.
#: Bounds memory on endless streams of unique flows; 1M finished
#: classifications is a few hundred MB at most and far beyond any realistic
#: working set.
DEFAULT_HEADER_CACHE_LIMIT = 1 << 20
#: Combiner-outcome cache bound (keys are label-list tuple combinations).
DEFAULT_COMBINER_CACHE_LIMIT = 1 << 16
#: Result-memo bound (keys are per-dimension field-result id tuples).
DEFAULT_RESULT_CACHE_LIMIT = 1 << 17
#: Rule-filter probe cache bound (vectorized mode; keys are packed 68-bit keys).
DEFAULT_PROBE_CACHE_LIMIT = 1 << 18
#: Bound of the pure sort memo shared by the vectorized combiner walks.
SORT_MEMO_LIMIT = 1 << 16


class FastPathAccelerator:
    """Batch classification through value/label/result/header memoization.

    Attach via :meth:`ConfigurableClassifier.enable_fast_path` (which wires
    ``classify_batch`` through :meth:`classify_batch` here); detach via
    :meth:`ConfigurableClassifier.disable_fast_path`.  ``vectorized=True``
    additionally routes cold misses through the batch engine walkers and the
    cached combiner walk (see the module docstring).
    """

    def __init__(
        self,
        classifier,
        header_cache_limit: int = DEFAULT_HEADER_CACHE_LIMIT,
        combiner_cache_limit: int = DEFAULT_COMBINER_CACHE_LIMIT,
        result_cache_limit: int = DEFAULT_RESULT_CACHE_LIMIT,
        probe_cache_limit: int = DEFAULT_PROBE_CACHE_LIMIT,
        vectorized: bool = False,
    ) -> None:
        self.classifier = classifier
        self.header_cache_limit = header_cache_limit
        self.vectorized = vectorized
        # One slot per value of each dimension's domain, allocated once and
        # cleared in place: the walker's result id, or None while unfilled.
        self._field_tables: Dict[str, list] = {
            name: [None] * DIMENSION_DOMAINS[name] for name in DIMENSIONS
        }
        # Filled slots per table: a commit skips the spans of an empty table
        # (a bulk install commits thousands of spans before any lookup).
        self._filled: Dict[str, int] = dict.fromkeys(DIMENSIONS, 0)
        # The field tables hold the result ids of these walkers, which own
        # the intern tables.
        walker = batch_walker if vectorized else ScalarBatchWalker
        self._walkers: Dict[str, BatchWalker] = {
            name: walker(classifier.engines[name]) for name in DIMENSIONS
        }
        # LRUCache validates the limits (ConfigurationError on non-positive).
        self._combiner_cache = LRUCache(combiner_cache_limit)
        self._result_cache = LRUCache(result_cache_limit)
        self._header_cache = LRUCache(header_cache_limit)
        # FIFO-bounded: their hit paths are bare dict reads inside the
        # vectorized combiner walk, far too hot for recency bookkeeping.
        self._probe_cache = BoundedCache(probe_cache_limit)
        self._sort_memo = BoundedCache(SORT_MEMO_LIMIT)
        # The epoch marks (repro.core.invalidation.snapshot_marks) the caches
        # were last validated against; rebound, never mutated, since after a
        # scoped commit it is the InvalidationScope's own post-marks dict.
        self._marks: Dict[str, Tuple[object, int]] = {}
        # Scoped-invalidation dependency maps (fed by the probe logs of the
        # combiner walks).  Every combiner-cache entry is stored as
        # (outcome, id) with a fresh integer id per miss: rule-filter home
        # slot -> ids of the entries whose outcome consumed a probe of a key
        # homed there (at most one list per filter slot, plus SCAN_HOME for
        # outcomes finished by a scan of the whole filter); id -> its
        # combiner key; id -> result-cache keys assembled from it.  Evicted
        # or dropped cache entries leave garbage references behind, also
        # across commits (pruning a garbage id or key is a no-op, so
        # staleness only ever over-invalidates); the registration budget
        # below bounds the garbage and falls back to wholesale flushing when
        # exceeded.
        self._combos_by_home: Dict[int, List[int]] = defaultdict(list)
        self._combo_keys: Dict[int, tuple] = {}
        self._results_by_combo: Dict[int, set] = defaultdict(set)
        self._next_combo_id = 0
        self._dep_registrations = 0
        self._dep_budget = 4 * header_cache_limit
        self._deps_overflow = False
        # Scoped-invalidation outcome counters (benchmark/report fodder).
        self.scoped_commits = 0
        self.scoped_entries_dropped = 0
        #: Wholesale epoch flushes of the derived caches after the initial
        #: validation — every commit *not* absorbed by a scoped drop lands here.
        self.epoch_flushes = 0
        # Hit/miss counters per memoization layer (benchmark/report fodder).
        # A header seen twice in one batch is one miss and one hit; every
        # header miss counts one field hit or miss per dimension.
        self.header_hits = 0
        self.header_misses = 0
        self.field_hits = 0
        self.field_misses = 0
        self.combiner_hits = 0
        self.combiner_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        self._validate_epochs()

    # -- invalidation ---------------------------------------------------------
    def _validate_epochs(self) -> None:
        """Drop whatever the live mutation epochs say is stale.

        Runs at the head of every batch: compares each engine's and the Rule
        Filter's :class:`~repro.observers.MutationEpoch` counter against the
        snapshot taken when the caches were last validated.  A moved engine
        clears its dimension's field table and drops every derived layer; a
        moved Rule Filter drops the derived layers only.
        """
        marks = snapshot_marks(self.classifier)
        if marks == self._marks:
            return
        for name in DIMENSIONS:
            if self._marks.get(name) != marks[name]:
                self._clear_table(name)
        if self._marks:
            self.epoch_flushes += 1
        self._marks = marks
        self._invalidate_outcomes()

    def detach(self) -> None:
        """Drop all cached state (the accelerator is being discarded)."""
        for walker in self._walkers.values():
            walker.detach()
        self._walkers = {}
        self.invalidate()

    def _invalidate_outcomes(self) -> None:
        self._combiner_cache.clear()
        self._result_cache.clear()
        self._header_cache.clear()
        self._probe_cache.clear()
        self._clear_deps()
        self._deps_overflow = False

    def _clear_table(self, name: str) -> None:
        """Unfill every slot of a dimension's field table, in place."""
        if self._filled[name]:
            table = self._field_tables[name]
            table[:] = [None] * len(table)
            self._filled[name] = 0

    def _clear_deps(self) -> None:
        self._combos_by_home.clear()
        self._combo_keys.clear()
        self._results_by_combo.clear()
        self._dep_registrations = 0

    def invalidate(self) -> None:
        """Drop every cached lookup (all layers)."""
        for name in DIMENSIONS:
            self._clear_table(name)
        self._sort_memo.clear()
        self._marks = {}
        self._invalidate_outcomes()

    # -- scoped invalidation --------------------------------------------------
    def note_commit(self, scope: Optional[InvalidationScope]) -> None:
        """Apply a commit's exact blast radius instead of epoch-flushing.

        Called by the control plane after a successful commit.  Each batch
        walker receives its dimension's spans and checks on its own that its
        view is current at the scope's pre-commit epoch (see
        :meth:`~repro.fields.vectorized.BatchWalker.note_spans`).  The
        scoped cache drops are only sound if every cache entry was computed
        against the pre-commit state, so they apply only when the
        accelerator's epoch marks equal the scope's *pre* marks; the marks
        then advance to the *post* marks and the next batch revalidates
        clean.  On any mismatch (out-of-band mutations, a previous unscoped
        commit) the caches are left alone and the ordinary epoch comparison
        at the next batch flushes them wholesale.

        Each span clears its slice of the dimension's field table, and the
        filled slots it clears count as dropped entries (a slot two
        overlapping spans cover counts once).  Once a table holds no filled
        slot, its remaining spans are skipped.
        """
        if scope is None or scope.wholesale:
            return
        for name, spans in scope.field_spans.items():
            walker = self._walkers.get(name)
            if walker is not None:
                walker.note_spans(spans, scope.pre_marks[name], scope.post_marks[name])
        if self._deps_overflow or self._marks != scope.pre_marks:
            return
        dropped = 0
        # Field layer: lookups inside a span may have changed; the combiner /
        # result layers are keyed by the lookup *results* (label lists, result
        # ids) and therefore self-correct.
        filled = self._filled
        for name, spans in scope.field_spans.items():
            table = self._field_tables[name]
            for low, high in spans:
                if not filled[name]:
                    break
                end = high + 1
                cleared = end - low - table[low:end].count(None)
                table[low:end] = [None] * (end - low)
                filled[name] -= cleared
                dropped += cleared
        # Header layer: it short-circuits the field walk and the combiner, so
        # any moved span or probe may have changed an entry.  Header hits
        # after a commit measure ~0 on churn traffic, so tracking which
        # entries could survive does not pay.
        if scope.field_spans or scope.touches_filter:
            dropped += len(self._header_cache)
            self._header_cache.clear()
        if scope.touches_filter:
            dropped += self._drop_filter_deps(scope.filter_keys, scope.filter_homes)
        self._marks = scope.post_marks
        self.scoped_commits += 1
        self.scoped_entries_dropped += dropped

    def _drop_filter_deps(self, keys, homes) -> int:
        """Drop every outcome that probed a key whose lookup may have changed.

        Outcomes registered under a dirty key's home or a changed home, and
        every outcome a Rule Filter scan finished (:data:`SCAN_HOME`),
        cascade into their result records.  The probe cache sheds the dirty
        keys (including any the walks resolved but pruned before consuming);
        it cannot find keys by home, so a changed home clears it whole.
        """
        combos_by_home = self._combos_by_home
        combo_keys = self._combo_keys
        results_by_combo = self._results_by_combo
        combiner_cache = self._combiner_cache
        result_cache = self._result_cache
        probe_cache = self._probe_cache
        if homes:
            dropped = len(probe_cache)
            probe_cache.clear()
        else:
            dropped = sum(probe_cache.discard(key) for key in keys)
        stale = set(homes)
        stale.update(self.classifier.rule_filter.hash_unit.hash_batch(keys))
        stale.add(SCAN_HOME)
        for home in stale:
            for combo_id in combos_by_home.pop(home, ()):
                combo_key = combo_keys.pop(combo_id, None)
                if combo_key is None:
                    continue  # dropped through an earlier home
                dropped += combiner_cache.discard(combo_key)
                for result_key in results_by_combo.pop(combo_id, ()):
                    dropped += result_cache.discard(result_key)
        return dropped

    # -- classification -------------------------------------------------------
    def classify_batch(self, packets: Iterable[PacketHeader]) -> BatchResult:
        """Classify ``packets``, reusing memoized work across the batch.

        One columnar pass: the header layer is probed once per packet, and
        only the batch's distinct misses go on to the field and result
        layers (:meth:`_classify_misses`).
        """
        self._validate_epochs()
        # Inlined LRU hit path (get + recency touch) — this loop is the warm
        # fast path, well above a million packets per second.
        header_cache = self._header_cache
        header_data = header_cache.data
        header_get = header_data.get
        touch = header_data.move_to_end
        misses: Dict[PacketHeader, int] = {}
        group = misses.setdefault
        holes = []  # (position, index of the distinct miss) per missed packet
        hits = 0
        results = []
        append = results.append
        for position, packet in enumerate(packets):
            cached = header_get(packet)
            if cached is None:
                holes.append((position, group(packet, len(misses))))
            else:
                touch(packet)
                hits += 1
            append(cached)
        if misses:
            records = self._classify_misses(list(misses))
            for position, index in holes:
                results[position] = records[index]
            header_cache.put_many(zip(misses, records))
        # A repeat of a missed header within the batch counts as a hit, as
        # it would had the miss been filled before the repeat arrived.
        self.header_hits += hits + len(holes) - len(misses)
        self.header_misses += len(misses)
        return BatchResult(tuple(results))

    def _classify_misses(self, headers: List[PacketHeader]) -> List[Classification]:
        """Classify distinct header-layer misses through the lower layers.

        The result layer is probed once per header; its distinct misses are
        finished together by :meth:`_assemble`.
        """
        columns = packet_dimension_columns(headers)
        keys = list(zip(*[self._field_id_column(name, columns[name]) for name in DIMENSIONS]))
        result_data = self._result_cache.data
        result_get = result_data.get
        touch = result_data.move_to_end
        misses: Dict[Tuple[int, ...], int] = {}
        group = misses.setdefault
        holes = []  # (position, index of the distinct miss) per missed header
        records = []
        append = records.append
        for position, key in enumerate(keys):
            record = result_get(key)
            if record is None:
                holes.append((position, group(key, len(misses))))
            else:
                touch(key)
            append(record)
        if misses:
            assembled = self._assemble(list(misses))
            for position, index in holes:
                records[position] = assembled[index]
        # A repeat of a missed key within the batch counts as a hit, as it
        # would had the miss been filled before the repeat arrived.
        self.result_hits += len(keys) - len(misses)
        self.result_misses += len(misses)
        # A full scalar intern table is pruned only now: the records above
        # fetched their field results through it.  Results outlive their
        # values (a commit clears the slots in its spans) so that a value
        # re-resolving to an equal result gets its old id back and its
        # result-cache entries still hit.  Once a table holds as many results
        # as its dimension has values, the results no filled slot names go;
        # the live ones keep their ids.
        for name, walker in self._walkers.items():
            table = self._field_tables[name]
            if walker.interned >= len(table):
                walker.prune(table)
        return records

    def _field_id_column(self, name: str, column: List[int]) -> List[int]:
        """Map one dimension's value column to the walker's result ids.

        The column is read through the dimension's field table; its distinct
        unfilled values are resolved once, all of them in one walker call in
        first-seen order, and filled in.  Values index the table directly:
        :class:`~repro.rules.packet.PacketHeader` range-checks every field.
        """
        table = self._field_tables[name]
        read = table.__getitem__
        ids = list(map(read, column))
        missing = list(dict.fromkeys(compress(column, map(is_, ids, repeat(None)))))
        if missing:
            for value, field_id in zip(missing, self._walkers[name].resolve(missing)):
                table[value] = field_id
            self._filled[name] += len(missing)
            ids = list(map(read, column))
            self.field_misses += len(missing)
        self.field_hits += len(column) - len(missing)
        return ids

    def _assemble(self, result_keys: List[Tuple[int, ...]]) -> List[Classification]:
        """Finish a batch's distinct result-layer misses through the combiner cache.

        The combiner cache is probed once per distinct label-list tuple (a
        repeat within the batch counts one miss, then hits); the new tuples
        are resolved together, by one
        :meth:`~repro.core.label_combiner.LabelCombiner.combine_with_cache`
        call in the vectorized mode and by ``combine`` per tuple in the plain
        mode, and take combo ids in first-seen order.  The dependency maps
        are filed in result-key order, each new combo before the first result
        built on it, as one miss at a time would file them.
        """
        classifier = self.classifier
        walkers = [self._walkers[name] for name in DIMENSIONS]
        field_results = [
            {
                name: walker.result(field_id)
                for name, walker, field_id in zip(DIMENSIONS, walkers, key)
            }
            for key in result_keys
        ]
        combo_keys = [
            tuple(result.matches for result in results.values()) for results in field_results
        ]
        cache_data = self._combiner_cache.data
        cache_get = cache_data.get
        touch = cache_data.move_to_end
        combos: Dict[tuple, Optional[tuple]] = {}
        new = []
        for combo_key in combo_keys:
            if combo_key in combos:
                continue
            cached = cache_get(combo_key)
            if cached is None:
                new.append(combo_key)
            else:
                touch(combo_key)
            combos[combo_key] = cached
        self.combiner_hits += len(combo_keys) - len(new)
        self.combiner_misses += len(new)
        logs: Optional[list] = None
        if new:
            if not self._deps_overflow:
                logs = [[] for _ in new]
            if self.vectorized:
                outcomes = classifier.combiner.combine_with_cache(
                    new, self._probe_cache, self._sort_memo, logs
                ).outcomes
            else:
                combine = classifier.combiner.combine
                outcomes = [
                    combine(dict(zip(DIMENSIONS, combo_key)), log)
                    for combo_key, log in zip(new, logs or [None] * len(new))
                ]
            first_id = self._next_combo_id
            self._next_combo_id += len(new)
            entries = [
                (combo_key, (outcome, combo_id))
                for combo_id, (combo_key, outcome) in enumerate(zip(new, outcomes), first_id)
            ]
            self._combiner_cache.put_many(entries)
            combos.update(entries)
        unfiled = dict(zip(new, logs)) if logs is not None else {}
        records = []
        for result_key, results, combo_key in zip(result_keys, field_results, combo_keys):
            outcome, combo_id = combos[combo_key]
            records.append(
                Classification.from_lookup(classifier._assemble_lookup(results, outcome))
            )
            if self._deps_overflow:
                continue
            probe_log = unfiled.pop(combo_key, None)
            if probe_log:
                self._combo_keys[combo_id] = combo_key
                combos_by_home = self._combos_by_home
                for home in probe_log:
                    combos_by_home[home].append(combo_id)
                self._note_registrations(len(probe_log))
            self._results_by_combo[combo_id].add(result_key)
            self._note_registrations(1)
        self._result_cache.put_many(zip(result_keys, records))
        return records

    def _note_registrations(self, count: int) -> None:
        """Account dependency-map growth; fall back to wholesale on overflow.

        Evicted cache entries leave garbage references in the maps, so a
        never-repeating header stream would grow them without bound.  Once
        registrations plus the ids they name exceed the budget the maps are
        dropped and the next commit skips its scoped pass (``note_commit``
        leaves the marks behind, forcing the ordinary wholesale flush that
        also resets the overflow flag).
        """
        self._dep_registrations += count
        if self._dep_registrations + len(self._combo_keys) > self._dep_budget:
            self._clear_deps()
            self._deps_overflow = True

    # -- introspection --------------------------------------------------------
    @staticmethod
    def _hit_rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def cache_stats(self) -> Dict[str, float]:
        """Sizes, hit/miss/eviction counters and derived per-layer hit rates.

        ``field_entries`` counts the filled field-table slots; the field
        layer never evicts, so it reports no eviction count.
        """
        return {
            "header_entries": len(self._header_cache),
            "header_hits": self.header_hits,
            "header_misses": self.header_misses,
            "header_hit_rate": self._hit_rate(self.header_hits, self.header_misses),
            "header_evictions": self._header_cache.evictions,
            "field_entries": sum(self._filled.values()),
            "field_hits": self.field_hits,
            "field_misses": self.field_misses,
            "field_hit_rate": self._hit_rate(self.field_hits, self.field_misses),
            "field_results": sum(walker.interned for walker in self._walkers.values()),
            "combiner_entries": len(self._combiner_cache),
            "combiner_hits": self.combiner_hits,
            "combiner_misses": self.combiner_misses,
            "combiner_hit_rate": self._hit_rate(self.combiner_hits, self.combiner_misses),
            "combiner_evictions": self._combiner_cache.evictions,
            "result_entries": len(self._result_cache),
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_hit_rate": self._hit_rate(self.result_hits, self.result_misses),
            "result_evictions": self._result_cache.evictions,
            "probe_entries": len(self._probe_cache),
            "probe_evictions": self._probe_cache.evictions,
            "scoped_commits": self.scoped_commits,
            "scoped_entries_dropped": self.scoped_entries_dropped,
            "epoch_flushes": self.epoch_flushes,
            "walker_rebuilds": sum(
                walker.rebuilds for walker in self._walkers.values()
            ),
            "walker_patches": sum(
                walker.patches for walker in self._walkers.values()
            ),
            "dependency_registrations": self._dep_registrations,
            "dependency_overflow": int(self._deps_overflow),
        }

    def __repr__(self) -> str:
        stats = self.cache_stats()
        return (
            f"FastPathAccelerator(headers={stats['header_entries']}, "
            f"fields={stats['field_entries']}, combos={stats['combiner_entries']}, "
            f"vectorized={self.vectorized})"
        )
