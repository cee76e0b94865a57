"""Vectorized batch walks over the single-field engines.

The :mod:`repro.perf` fast path resolves each *unique* field value once per
batch.  This module provides **batch walkers** that resolve a chunk's unique
values per dimension in one pass over flattened views of the engine
structures, and answer as the paper's field engines answer the label
combiner: with a pointer into the label-list memory.  Here that pointer is a
**result id**.  Each walker owns its dimension's intern table and ids every
distinct :class:`~repro.fields.base.FieldLookupResult` of its view once, when
it builds or patches the view; :meth:`BatchWalker.resolve` returns one id per
value and :meth:`BatchWalker.result` dereferences an id.  One counter per
walker issues the ids and is never rewound, so an id names one result for the
walker's whole life and, within a walker, equal ids mean equal results.

* :class:`TrieBatchWalker` — the multi-bit trie flattened into per-level
  child tables; each flat node carries the id of its result (the cumulative
  match tuple from the root down, plus the access count of a walk that ends
  there).  A lookup is one table read per level.
* :class:`BstBatchWalker` — one id per elementary interval of the binary
  search.  Boundary 0 is always present, so the interval a value falls in
  fixes the comparisons the scalar search makes; a lookup is one bisection.
* :class:`PortBatchWalker` — the register bank split into elementary
  intervals at every ``low`` and ``high + 1``, one id each, found by the same
  bisection.
* :class:`ScalarBatchWalker` — per-value ``lookup()``, interning each result:
  the walker of engines with no flat view (the 256-entry protocol LUT,
  custom engines) and of every dimension in the fast path's plain mode.

Every walker is **bit-exact** with the engine's own ``lookup()``:
``walker.result(id)`` equals ``engine.lookup(value)`` for the id ``resolve``
returned for ``value`` — same match tuple in the same order, same
``memory_accesses``, same ``cycles``.  Walkers watch their engine through the
mutation-epoch surface (:class:`~repro.observers.MutationEpoch`): every
``resolve()`` compares the engine's epoch with the one the flattened view was
built at and refreshes lazily after any insert/remove/reprioritize.

**Bounds.**  An array walker interns as it flattens; a patch only adds, and
a rebuild prunes the table to the results its rows name once it holds more
than twice as many.  Until then a retired result keeps its id, so the
results of a rule removed and re-inserted come back under their old ids
and the fast path's result layer keeps hitting.  The scalar walker's table
grows with the distinct results it looked up; the fast path prunes it
(:meth:`BatchWalker.prune`) to the ids its field table names once it holds
as many results as the dimension has values.

A control-plane commit hands each dimension's field spans (see
:class:`~repro.core.invalidation.InvalidationScope`) to the walker through
:meth:`BatchWalker.note_spans`.  :class:`TrieBatchWalker` then *patches* its
view at the next ``resolve()``: it re-flattens only the first-level subtrees
the spans touch, appending fresh node rows (a node whose result is already
interned reuses its id), which the field-span contract makes exact (a commit
restructures or relabels no node outside the first-level subtrees of its
spans).  Epochs remain the backstop: the whole view is rebuilt as before when
the walker missed a commit, the engine was mutated outside one, a span is
wide, orphaned flat nodes would outnumber live ones, or the walker is of
another type.

Every walk is pure Python, with or without NumPy: per value, one table read
per trie level or one bisection.  The fast path hands a walker only the
distinct values its field tables do not hold yet, and array walks over those
calls showed no end-to-end gain.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Dict, Hashable, List, Optional, Sequence

from repro.exceptions import FieldLookupError
from repro.fields.base import FieldLookupResult, SingleFieldEngine
from repro.fields.binary_search_tree import BinarySearchTree
from repro.fields.multibit_trie import MultibitTrie
from repro.fields.port_registers import PortRegisterFile
from repro.fields.range_utils import PORT_MAX

__all__ = [
    "BatchWalker",
    "TrieBatchWalker",
    "BstBatchWalker",
    "PortBatchWalker",
    "ScalarBatchWalker",
    "batch_walker",
]


class BatchWalker:
    """Base class: lazy flattened engine view, epoch invalidation, intern table.

    Subclasses implement :meth:`_rebuild` (derive the flat view from the
    engine), :meth:`_resolve` (answer a batch of values against it with
    result ids) and :meth:`_make` (build the result a key names).
    :meth:`resolve` takes a sequence of values — deduplication is the
    caller's job — and returns one result id per value, in input order;
    :meth:`result` turns an id back into the :class:`FieldLookupResult`,
    bit-exact with ``engine.lookup(value)``.  The flat view is stamped with
    the engine's mutation epoch when built and refreshed whenever the epoch
    has advanced since: patched in place when :meth:`note_spans` queued a
    patch for exactly the live epoch, rebuilt otherwise.
    """

    def __init__(self, engine: SingleFieldEngine) -> None:
        self.engine = engine
        #: Engine epoch the flat view was built at (None: never built).
        self._built_epoch: Optional[int] = None
        #: Engine epoch the queued patch brings the view to (None: no patch).
        self._pending_epoch: Optional[int] = None
        #: Full flat-view rebuilds performed so far (the initial build
        #: counts).  Rebuild cost is the vectorized path's share of every
        #: commit, so the fast path surfaces the sum as ``walker_rebuilds``.
        self.rebuilds = 0
        #: Flat-view patches applied in place of a rebuild (``walker_patches``).
        self.patches = 0
        # The intern table: result key -> id and id -> result.
        self._ids: Dict[Hashable, int] = {}
        self._results: Dict[int, FieldLookupResult] = {}
        self._next_id = 0

    @property
    def interned(self) -> int:
        """Number of results in the intern table."""
        return len(self._results)

    def result(self, result_id: int) -> FieldLookupResult:
        """The result an id returned by :meth:`resolve` names."""
        return self._results[result_id]

    def detach(self) -> None:
        """Drop the flat view (the next resolve rebuilds from the engine)."""
        self._built_epoch = None
        self._pending_epoch = None

    def note_spans(self, spans, pre_mark, post_mark) -> None:
        """Queue a commit's field spans for the next :meth:`resolve`.

        ``spans`` are the commit's inclusive value intervals for this
        dimension; ``pre_mark`` / ``post_mark`` are the dimension's
        ``(engine, epoch)`` marks around the commit.  This base view cannot
        patch, so the next resolve rebuilds (the epoch moved).
        """

    def prune(self, live_ids) -> None:
        """Bound the intern table by the ids its owner still holds.

        Only :class:`ScalarBatchWalker` needs this.  An array walker's table
        is bounded by its view (see :meth:`_retain_named`), so for it this
        does nothing.
        """

    def resolve(self, values: Sequence[int]) -> List[int]:
        """Resolve every value in one batch walk: one result id per value."""
        if not values:
            return []
        epoch = self.engine.mutation_epoch
        if self._built_epoch != epoch:
            if self._pending_epoch == epoch and self._patch():
                self.patches += 1
            else:
                self._rebuild()
                self.rebuilds += 1
            self._built_epoch = epoch
            self._pending_epoch = None
        return self._resolve(values)

    def _intern(self, key: Hashable) -> int:
        """The id of ``key``'s result; a first sight interns ``_make(key)``."""
        result_id = self._ids.get(key)
        if result_id is None:
            result_id = self._ids[key] = self._next_id
            self._next_id += 1
            self._results[result_id] = self._make(key)
        return result_id

    def _retain(self, live: set) -> None:
        """Drop every interned result whose id is not in ``live``."""
        if len(live) < len(self._results):
            self._results = {i: r for i, r in self._results.items() if i in live}
            self._ids = {key: i for key, i in self._ids.items() if i in live}

    def _retain_named(self, named: set) -> None:
        """A rebuild's prune: to the ids the view's rows name, once the
        table holds more than twice as many (so it never holds more)."""
        if len(self._results) > 2 * len(named):
            self._retain(named)

    def _patch(self) -> bool:
        """Apply the queued patch; False asks :meth:`resolve` to rebuild."""
        return False

    def _rebuild(self) -> None:
        raise NotImplementedError

    def _resolve(self, values: Sequence[int]) -> List[int]:
        raise NotImplementedError

    def _make(self, key: Hashable) -> FieldLookupResult:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.engine.name})"


class ScalarBatchWalker(BatchWalker):
    """Per-value ``engine.lookup``, each result interned (trivially bit-exact).

    Used for the protocol LUT (already one read per value, over a 256-entry
    domain), for any engine without a flat view, and for every dimension of
    the fast path's plain mode.  The results themselves are the intern keys,
    so the table grows with every distinct result looked up; :meth:`prune`
    cuts it to the ids its owner still holds.
    """

    def _rebuild(self) -> None:  # nothing to flatten
        pass

    def _make(self, key: FieldLookupResult) -> FieldLookupResult:
        return key

    def prune(self, live_ids) -> None:
        self._retain(set(live_ids))

    def _resolve(self, values: Sequence[int]) -> List[int]:
        lookup = self.engine.lookup
        known = self._ids.get
        intern = self._intern
        ids = []
        for value in values:
            result = lookup(value)
            result_id = known(result)
            ids.append(intern(result) if result_id is None else result_id)
        return ids


class TrieBatchWalker(BatchWalker):
    """Batch walk over a :class:`MultibitTrie` flattened into level tables.

    The flat view assigns each trie node a dense row per level and stores,
    per level, one child table ``table[row * (1 << stride) + branch] ->
    child row`` (``-1`` for no child) plus the result id of every row.  A
    node's result is its *cumulative* match tuple — the labels collected
    from the root down to that node, merged as the scalar lookup's
    :class:`~repro.labels.label_list.LabelList` merges them — and the access
    count of a walk that ends there (one per level entered, plus the probe
    that found no child).  A lookup then needs one table read per level to
    find the value's last node.

    A patch re-flattens the first-level subtrees the queued spans touch: their
    nodes get fresh rows appended at every level and the root's child table
    points at them, orphaning the old rows.  It rebuilds instead when the
    spans touch more than a quarter of the first-level subtrees (a
    whole-domain span, the only kind a change to the root's own labels
    reports, always does) or when orphaned flat nodes would outnumber the
    trie's live nodes, so the view never exceeds twice the trie.
    """

    def note_spans(self, spans, pre_mark, post_mark) -> None:
        engine, epoch = pre_mark
        current = self._built_epoch if self._pending_epoch is None else self._pending_epoch
        if engine is not self.engine or current != epoch:
            # Never built, or behind the commit: the next resolve rebuilds.
            self._pending_epoch = None
            return
        if self._pending_epoch is None:
            self._touched = set()
        shift = self._width - self._strides[0]
        for low, high in spans:
            self._touched.update(range(low >> shift, (high >> shift) + 1))
        if len(self._touched) > (1 << self._strides[0]) // 4:
            self._pending_epoch = None
            return
        self._pending_epoch = post_mark[1]

    def _make(self, key) -> FieldLookupResult:
        matches, accesses = key
        return FieldLookupResult(
            matches=matches, memory_accesses=accesses, cycles=self.engine.lookup_cycles
        )

    def _rebuild(self) -> None:
        trie: MultibitTrie = self.engine
        self._width = trie.width
        self._strides = trie.strides
        self._root_matches = tuple(trie.root.labels.pairs())
        self._tables: List[list] = [[] for _ in trie.strides]
        root_id = self._intern((self._root_matches, min(1, len(trie.strides))))
        #: Result id of every flat row, per level (level 0 is the root).
        self._node_ids: List[List[int]] = [[root_id]] + [[] for _ in trie.strides]
        self._flatten(0, [(trie.root, self._root_matches)])
        self._retain_named(set(chain.from_iterable(self._node_ids)))
        # One (table, stride, shift, mask, next level's ids) step per level;
        # the tables are only ever written in place or extended.
        shift = self._width
        self._steps = []
        for table, stride, ids in zip(self._tables, self._strides, self._node_ids[1:]):
            shift -= stride
            self._steps.append((table, stride, shift, (1 << stride) - 1, ids))

    def _patch(self) -> bool:
        trie: MultibitTrie = self.engine
        children = trie.root.children
        root_table = self._tables[0]
        level_one = self._node_ids[1]
        accesses = min(2, len(self._strides))
        frontier = []
        for branch in sorted(self._touched):
            child = children.get(branch)
            if child is None:
                root_table[branch] = -1
                continue
            root_table[branch] = len(level_one)
            merged = _merge_matches(self._root_matches, child.labels.pairs())
            level_one.append(self._intern((merged, accesses)))
            frontier.append((child, merged))
        self._flatten(1, frontier)
        if sum(map(len, self._node_ids)) > 2 * trie.node_count():
            return False  # orphaned rows outnumber live nodes
        return True

    def _flatten(self, level: int, frontier: list) -> None:
        """Append the subtrees below ``frontier`` to the flat view.

        ``frontier`` holds ``(node, cumulative matches)`` of nodes at
        ``level`` whose rows are the next rows of that level's table; each
        level below gets their child rows, and each new row the id of its
        result (interned on first sight).
        """
        levels = len(self._strides)
        known = self._ids.get
        intern = self._intern
        for depth, (stride, table, level_ids) in enumerate(
            zip(self._strides[level:], self._tables[level:], self._node_ids[level + 1:]),
            start=level + 1,
        ):
            accesses = min(depth + 1, levels)
            branch_count = 1 << stride
            rows = [-1] * (len(frontier) * branch_count)
            next_frontier = []
            for index, (node, cumulative) in enumerate(frontier):
                base = index * branch_count
                for branch, child in node.children.items():
                    rows[base + branch] = len(level_ids)
                    merged = _merge_matches(cumulative, child.labels.pairs())
                    key = (merged, accesses)
                    result_id = known(key)
                    level_ids.append(intern(key) if result_id is None else result_id)
                    next_frontier.append((child, merged))
            table.extend(rows)
            frontier = next_frontier

    def _resolve(self, values: Sequence[int]) -> List[int]:
        _check_range(values, self._width)
        root_id = self._node_ids[0][0]
        steps = self._steps
        ids = []
        for value in values:
            row = 0
            found = root_id
            for table, stride, shift, mask, level_ids in steps:
                row = table[(row << stride) + ((value >> shift) & mask)]
                if row < 0:
                    break
                found = level_ids[row]
            ids.append(found)
        return ids


class _IntervalWalker(BatchWalker):
    """A view of sorted elementary-interval boundaries, one result id each.

    The BST and port walkers' lookup: one bisection per value finds the
    value's interval.  Subclasses set
    ``_width`` and ``_noun`` (for the range check) and hand :meth:`_index`
    their view.
    """

    _noun = "lookup key"

    def _index(self, boundaries: List[int], ids: List[int]) -> None:
        """Install the view: ``ids[i]`` answers ``boundaries[i]`` up to the next."""
        self._boundaries = boundaries
        self._interval_ids = ids
        self._retain_named(set(ids))

    def _resolve(self, values: Sequence[int]) -> List[int]:
        _check_range(values, self._width, self._noun)
        boundaries = self._boundaries
        ids = self._interval_ids
        return [ids[bisect_right(boundaries, value) - 1] for value in values]


class BstBatchWalker(_IntervalWalker):
    """Batch lookup over a :class:`BinarySearchTree`'s elementary intervals.

    Each interval gets the id of the result the scalar search returns for
    every value in it: the interval's label list and ``memory_accesses`` of
    one per comparison plus the final label-list pointer dereference.  The
    comparisons depend only on the interval (boundary 0 is always present,
    so every value has one), and :func:`_search_depths` counts them for all
    intervals in one pass over the search's decision tree.  A batch lookup
    is one bisection per value.
    """

    def _make(self, key) -> FieldLookupResult:
        matches, accesses = key
        return FieldLookupResult(
            matches=matches, memory_accesses=accesses, cycles=max(accesses, 1)
        )

    def _rebuild(self) -> None:
        engine: BinarySearchTree = self.engine
        boundaries, interval_lists, list_pool = engine.search_arrays()
        self._width = engine.width
        # Intervals sharing a label list and a depth share a result: hash each
        # distinct (list, depth) pair's match tuple once.
        by_pointer: Dict[tuple, int] = {}
        ids = []
        for pointer, depth in zip(interval_lists, _search_depths(len(boundaries))):
            result_id = by_pointer.get((pointer, depth))
            if result_id is None:
                result_id = by_pointer[pointer, depth] = self._intern(
                    (list_pool[pointer], depth + 1)  # + the pointer dereference
                )
            ids.append(result_id)
        self._index(list(boundaries), ids)


class PortBatchWalker(_IntervalWalker):
    """Batch range compare over a :class:`PortRegisterFile`'s register bank.

    The bank is flattened into elementary intervals: the 16-bit domain split
    at every register's ``low`` and ``high + 1``, so the set of registers
    covering a value is the same across an interval.  One sweep over the
    sorted boundaries keeps that set and ids each interval's match tuple —
    the covering registers in result order (exact-first, tightest span
    first; see
    :meth:`~repro.fields.port_registers.PortRegisterFile.result_ordered_registers`).
    A batch lookup is one bisection per value.
    """

    _noun = "port value"
    _width = PORT_MAX.bit_length()

    def _make(self, key) -> FieldLookupResult:
        return FieldLookupResult(
            matches=key, memory_accesses=1, cycles=self.engine.lookup_cycles
        )

    def _rebuild(self) -> None:
        bank: PortRegisterFile = self.engine
        ordered = bank.result_ordered_registers()
        starts: Dict[int, List[int]] = {}
        ends: Dict[int, List[int]] = {}
        for rank, register in enumerate(ordered):
            starts.setdefault(register.low, []).append(rank)
            if register.high < PORT_MAX:
                ends.setdefault(register.high + 1, []).append(rank)
        boundaries = sorted({0, *starts, *ends})
        pairs = [(register.label, register.priority) for register in ordered]
        covering = set()
        ids = []
        for boundary in boundaries:
            covering.difference_update(ends.get(boundary, ()))
            covering.update(starts.get(boundary, ()))
            ids.append(self._intern(tuple(pairs[rank] for rank in sorted(covering))))
        self._index(boundaries, ids)


def _check_range(values: Sequence[int], width: int, noun: str = "lookup key") -> None:
    limit = 1 << width
    if min(values) < 0 or max(values) >= limit:
        bad = next(value for value in values if not 0 <= value < limit)
        raise FieldLookupError(f"{noun} {bad} out of {width}-bit range")


def _search_depths(count: int) -> List[int]:
    """Comparisons the scalar binary search makes, per interval position.

    The search over ``count`` boundaries keeps a window ``[low, high]``; a
    value in interval ``p`` moves right past every midpoint ``<= p`` and
    left past every other, and the search stops at the empty window whose
    ``high`` is ``p``.  Walking the decision tree once gives every
    position's depth (``2 * count + 1`` windows in all).
    """
    depths = [0] * count
    windows = [(0, count - 1, 0)]
    while windows:
        low, high, depth = windows.pop()
        if low > high:
            if high >= 0:
                depths[high] = depth
            continue
        mid = (low + high) >> 1
        windows.append((low, mid - 1, depth + 1))
        windows.append((mid + 1, high, depth + 1))
    return depths


def _merge_matches(cumulative: tuple, pairs) -> tuple:
    """The :class:`~repro.labels.label_list.LabelList` merge of two pair sequences.

    Each label keeps its best (smallest) priority and the result is sorted by
    ``(priority, label)``, the list's own order — one dict pass and one sort
    instead of a scan and an insort per pair.
    """
    if not pairs:
        return cumulative
    best = dict(cumulative)
    for label, priority in pairs:
        if priority < best.get(label, priority + 1):
            best[label] = priority
    return tuple(sorted(best.items(), key=lambda pair: (pair[1], pair[0])))


def batch_walker(engine: SingleFieldEngine) -> BatchWalker:
    """Build the best batch walker for ``engine`` (scalar fallback otherwise)."""
    if isinstance(engine, MultibitTrie):
        return TrieBatchWalker(engine)
    if isinstance(engine, BinarySearchTree):
        return BstBatchWalker(engine)
    if isinstance(engine, PortRegisterFile):
        return PortBatchWalker(engine)
    return ScalarBatchWalker(engine)
