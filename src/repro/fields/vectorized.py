"""Vectorized batch walks over the single-field engines.

The :mod:`repro.perf` fast path resolves each *unique* field value once per
batch, but still walks the engine's per-value ``lookup()`` — a Python
pointer-chase per value.  This module provides **batch walkers** that resolve
a whole chunk's unique values per dimension in one pass over flattened
array-based views of the engine structures:

* :class:`TrieBatchWalker` — the multi-bit trie flattened into per-level
  child tables plus a cumulative match tuple per node; a batch lookup is
  ``levels`` array-gather steps over all values at once.
* :class:`BstBatchWalker` — the binary search over interval boundaries run
  for every value simultaneously (``log2`` masked compare/update rounds), so
  the per-value access counts come out of the exact same search the scalar
  path performs.
* :class:`PortBatchWalker` — all registers compared against all values as one
  range matrix, with the bank pre-sorted in result order.
* :class:`ScalarBatchWalker` — the fallback for engines with no array view
  (the 256-entry protocol LUT, custom engines): per-value ``lookup()``.

Every walker is **bit-exact** with the engine's own ``lookup()``: same match
tuples in the same order, same ``memory_accesses``, same ``cycles`` — the
walkers only restructure *how* the identical walk is executed.  Walkers watch
their engine through the mutation-epoch surface
(:class:`~repro.observers.MutationEpoch`): every ``resolve()`` compares the
engine's epoch with the one the flattened view was built at and refreshes
lazily after any insert/remove/reprioritize.

A control-plane commit hands each dimension's field spans (see
:class:`~repro.core.invalidation.InvalidationScope`) to the walker through
:meth:`BatchWalker.note_spans`.  :class:`TrieBatchWalker` then *patches* its
view at the next ``resolve()``: it re-flattens only the first-level subtrees
the spans touch, appending fresh node ids, which the field-span contract makes
exact (a commit restructures or relabels no node outside the first-level
subtrees of its spans).  Epochs remain the backstop: the whole view is
rebuilt as before when the walker missed a commit, the engine was mutated
outside one, a span is wide, orphaned flat nodes would outnumber live ones,
or the walker is of another type.

NumPy is used when importable (:data:`HAVE_NUMPY`); every walker also carries
a pure-Python flat-array fallback so the module works on a bare interpreter.
Pass ``use_numpy=False`` to force the fallback (the equivalence tests sweep
both implementations).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.exceptions import FieldLookupError
from repro.fields.base import FieldLookupResult, SingleFieldEngine
from repro.fields.binary_search_tree import BinarySearchTree
from repro.fields.multibit_trie import MultibitTrie
from repro.fields.port_registers import PortRegisterFile

try:  # pragma: no cover - exercised implicitly by every numpy walker test
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the fallback paths are tested directly
    _np = None
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "BatchWalker",
    "TrieBatchWalker",
    "BstBatchWalker",
    "PortBatchWalker",
    "ScalarBatchWalker",
    "batch_walker",
]


class BatchWalker:
    """Base class: lazy flattened engine view with epoch-based invalidation.

    Subclasses implement :meth:`_rebuild` (derive the flat view from the
    engine) and :meth:`_resolve` (answer a batch of values against it).
    :meth:`resolve` takes a sequence of values — deduplication is the
    caller's job — and returns one :class:`FieldLookupResult` per value, in
    input order, bit-exact with ``engine.lookup(value)``.  The flat view is
    stamped with the engine's mutation epoch when built and refreshed
    whenever the epoch has advanced since: patched in place when
    :meth:`note_spans` queued a patch for exactly the live epoch, rebuilt
    otherwise.
    """

    def __init__(self, engine: SingleFieldEngine, use_numpy: Optional[bool] = None) -> None:
        self.engine = engine
        self.use_numpy = HAVE_NUMPY if use_numpy is None else (use_numpy and HAVE_NUMPY)
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

    def resolve(self, values: Sequence[int]) -> List[FieldLookupResult]:
        """Resolve every value in one batch walk (input order preserved)."""
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

    def _patch(self) -> bool:
        """Apply the queued patch; False asks :meth:`resolve` to rebuild."""
        return False

    def _rebuild(self) -> None:
        raise NotImplementedError

    def _resolve(self, values: Sequence[int]) -> List[FieldLookupResult]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.engine.name})"


class ScalarBatchWalker(BatchWalker):
    """Fallback walker: per-value ``engine.lookup`` (trivially bit-exact).

    Used for the protocol LUT (whose value domain is 256 entries — there is
    nothing to vectorize) and for any engine without an array view.
    """

    def _rebuild(self) -> None:  # nothing to flatten
        pass

    def _resolve(self, values: Sequence[int]) -> List[FieldLookupResult]:
        lookup = self.engine.lookup
        return [lookup(value) for value in values]


class TrieBatchWalker(BatchWalker):
    """Batch walk over a :class:`MultibitTrie` flattened into level tables.

    The flat view assigns each trie node a dense id per level and stores, per
    level, one child table ``table[node_id * (1 << stride) + branch] ->
    child_id`` (``-1`` for no child) plus the node's *cumulative* match tuple
    — the labels collected from the root down to that node, merged as the
    scalar lookup's :class:`~repro.labels.label_list.LabelList` merges them.  A
    batch lookup then needs only ``levels`` gather steps to find each value's
    terminal node (and its traversal depth, which is the access count).

    A patch re-flattens the first-level subtrees the queued spans touch: their
    nodes get fresh ids appended at every level and the root's child table
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

    def _rebuild(self) -> None:
        trie: MultibitTrie = self.engine
        self._width = trie.width
        self._strides = trie.strides
        root_matches = tuple(trie.root.labels.pairs())
        self._tables: List[list] = [[] for _ in trie.strides]
        self._matches: List[List[tuple]] = [[root_matches]] + [[] for _ in trie.strides]
        self._flatten(0, [(trie.root, root_matches)])
        if self.use_numpy:
            self._np_tables = [_np.asarray(table, dtype=_np.int64) for table in self._tables]

    def _patch(self) -> bool:
        trie: MultibitTrie = self.engine
        children = trie.root.children
        root_table = self._tables[0]
        root_matches = self._matches[0][0]
        level_one = self._matches[1]
        grown_from = [len(table) for table in self._tables]
        frontier = []
        for branch in sorted(self._touched):
            child = children.get(branch)
            if child is None:
                root_table[branch] = -1
                continue
            root_table[branch] = len(level_one)
            merged = _merge_matches(root_matches, child.labels.pairs())
            level_one.append(merged)
            frontier.append((child, merged))
        self._flatten(1, frontier)
        if sum(map(len, self._matches)) > 2 * trie.node_count():
            return False  # orphaned rows outnumber live nodes
        if self.use_numpy:
            np_tables = self._np_tables
            np_tables[0] = _np.asarray(root_table, dtype=_np.int64)
            for level in range(1, len(np_tables)):
                tail = self._tables[level][grown_from[level]:]
                if tail:
                    np_tables[level] = _np.concatenate(
                        (np_tables[level], _np.asarray(tail, dtype=_np.int64))
                    )
        return True

    def _flatten(self, level: int, frontier: list) -> None:
        """Append the subtrees below ``frontier`` to the flat view.

        ``frontier`` holds ``(node, cumulative matches)`` of nodes at
        ``level`` whose ids are the next rows of that level's table; each
        level below gets their rows and fresh ids for their children.
        """
        for stride, table, level_matches in zip(
            self._strides[level:], self._tables[level:], self._matches[level + 1:]
        ):
            branch_count = 1 << stride
            rows = [-1] * (len(frontier) * branch_count)
            next_frontier = []
            for index, (node, cumulative) in enumerate(frontier):
                base = index * branch_count
                for branch, child in node.children.items():
                    rows[base + branch] = len(level_matches)
                    merged = _merge_matches(cumulative, child.labels.pairs())
                    level_matches.append(merged)
                    next_frontier.append((child, merged))
            table.extend(rows)
            frontier = next_frontier

    def _check_range(self, values) -> None:
        limit = 1 << self._width
        for value in values:
            if not 0 <= value < limit:
                raise FieldLookupError(
                    f"lookup key {value} out of {self._width}-bit range"
                )

    def _resolve(self, values: Sequence[int]) -> List[FieldLookupResult]:
        self._check_range(values)
        if self.use_numpy:
            return self._resolve_numpy(values)
        return self._resolve_python(values)

    def _resolve_numpy(self, values: Sequence[int]) -> List[FieldLookupResult]:
        keys = _np.asarray(values, dtype=_np.int64)
        count = len(keys)
        node = _np.zeros(count, dtype=_np.int64)
        depth = _np.zeros(count, dtype=_np.int64)
        term_level = _np.zeros(count, dtype=_np.int64)
        term_node = _np.zeros(count, dtype=_np.int64)
        alive = _np.ones(count, dtype=bool)
        consumed = 0
        for level, stride in enumerate(self._strides):
            if not alive.any():
                break
            shift = self._width - consumed - stride
            consumed += stride
            branch = (keys >> shift) & ((1 << stride) - 1)
            table = self._np_tables[level]
            if table.size:
                # Dead lanes hold a node id from the level they stopped at;
                # gather a safe slot for them and mask the result away.
                gathered = table[_np.where(alive, node * (1 << stride) + branch, 0)]
            else:
                gathered = _np.full(count, -1, dtype=_np.int64)
            child = _np.where(alive, gathered, -1)
            depth[alive] += 1
            advanced = alive & (child >= 0)
            term_level[advanced] = level + 1
            term_node[advanced] = child[advanced]
            node = _np.where(advanced, child, node)
            alive = advanced
        cycles = self.engine.lookup_cycles
        matches = self._matches
        return [
            FieldLookupResult(matches=matches[lvl][nid], memory_accesses=acc, cycles=cycles)
            for lvl, nid, acc in zip(
                term_level.tolist(), term_node.tolist(), depth.tolist()
            )
        ]

    def _resolve_python(self, values: Sequence[int]) -> List[FieldLookupResult]:
        cycles = self.engine.lookup_cycles
        width = self._width
        strides = self._strides
        tables = self._tables
        matches = self._matches
        results = []
        for value in values:
            node = 0
            level = 0
            accesses = 0
            consumed = 0
            for stride in strides:
                shift = width - consumed - stride
                consumed += stride
                branch = (value >> shift) & ((1 << stride) - 1)
                child = tables[level][node * (1 << stride) + branch]
                accesses += 1
                if child < 0:
                    break
                node = child
                level += 1
            results.append(
                FieldLookupResult(
                    matches=matches[level][node], memory_accesses=accesses, cycles=cycles
                )
            )
        return results


class BstBatchWalker(BatchWalker):
    """Batch binary search over a :class:`BinarySearchTree`'s interval array.

    Runs the scalar lookup's exact comparison loop for every value at once:
    per round, the still-active lanes compare their midpoint boundary and
    shrink their ``[low, high]`` window, accumulating one access per round —
    so the per-value ``memory_accesses`` (and the derived ``cycles``) match
    the iterative search bit for bit, including the final +1 for the
    label-list pointer dereference.
    """

    def _rebuild(self) -> None:
        engine: BinarySearchTree = self.engine
        boundaries, interval_lists, list_pool = engine.search_arrays()
        self._boundaries = list(boundaries)
        self._interval_lists = list(interval_lists)
        self._list_pool = list(list_pool)
        if self.use_numpy:
            self._np_boundaries = _np.asarray(boundaries, dtype=_np.int64)

    def _check_range(self, values) -> None:
        width = self.engine.width
        limit = 1 << width
        for value in values:
            if not 0 <= value < limit:
                raise FieldLookupError(f"lookup key {value} out of {width}-bit range")

    def _resolve(self, values: Sequence[int]) -> List[FieldLookupResult]:
        self._check_range(values)
        if self.use_numpy:
            return self._resolve_numpy(values)
        return self._resolve_python(values)

    def _resolve_numpy(self, values: Sequence[int]) -> List[FieldLookupResult]:
        keys = _np.asarray(values, dtype=_np.int64)
        count = len(keys)
        boundaries = self._np_boundaries
        low = _np.zeros(count, dtype=_np.int64)
        high = _np.full(count, len(boundaries) - 1, dtype=_np.int64)
        position = _np.zeros(count, dtype=_np.int64)
        accesses = _np.zeros(count, dtype=_np.int64)
        active = low <= high
        while active.any():
            mid = (low + high) >> 1
            accesses[active] += 1
            le = boundaries[mid] <= keys
            take = active & le
            position[take] = mid[take]
            low[take] = mid[take] + 1
            drop = active & ~le
            high[drop] = mid[drop] - 1
            active = low <= high
        pool = self._list_pool
        pointers = self._interval_lists
        return [
            FieldLookupResult(
                matches=pool[pointers[pos]],
                memory_accesses=acc + 1,  # + the label-list pointer dereference
                cycles=max(acc + 1, 1),
            )
            for pos, acc in zip(position.tolist(), accesses.tolist())
        ]

    def _resolve_python(self, values: Sequence[int]) -> List[FieldLookupResult]:
        boundaries = self._boundaries
        pool = self._list_pool
        pointers = self._interval_lists
        results = []
        for value in values:
            accesses = 0
            low, high = 0, len(boundaries) - 1
            position = 0
            while low <= high:
                mid = (low + high) // 2
                accesses += 1
                if boundaries[mid] <= value:
                    position = mid
                    low = mid + 1
                else:
                    high = mid - 1
            accesses += 1  # dereference the interval's label-list pointer
            results.append(
                FieldLookupResult(
                    matches=pool[pointers[position]],
                    memory_accesses=accesses,
                    cycles=max(accesses, 1),
                )
            )
        return results


class PortBatchWalker(BatchWalker):
    """Batch range compare over a :class:`PortRegisterFile`'s register bank.

    The bank is flattened pre-sorted in result order (exact-first, tightest
    span first — see
    :meth:`~repro.fields.port_registers.PortRegisterFile.result_ordered_registers`),
    so each value's match tuple is just the matching subsequence; with NumPy
    the low/high comparisons run as one ``values x registers`` matrix.
    """

    def _rebuild(self) -> None:
        bank: PortRegisterFile = self.engine
        ordered = bank.result_ordered_registers()
        self._pairs = [(register.label, register.priority) for register in ordered]
        self._lows = [register.low for register in ordered]
        self._highs = [register.high for register in ordered]
        if self.use_numpy:
            self._np_lows = _np.asarray(self._lows, dtype=_np.int64)
            self._np_highs = _np.asarray(self._highs, dtype=_np.int64)

    def _check_range(self, values) -> None:
        for value in values:
            if not 0 <= value <= 0xFFFF:
                raise FieldLookupError(f"port value {value} out of 16-bit range")

    def _resolve(self, values: Sequence[int]) -> List[FieldLookupResult]:
        self._check_range(values)
        cycles = self.engine.lookup_cycles
        pairs = self._pairs
        if self.use_numpy and pairs:
            keys = _np.asarray(values, dtype=_np.int64)[:, None]
            mask = (self._np_lows[None, :] <= keys) & (keys <= self._np_highs[None, :])
            return [
                FieldLookupResult(
                    matches=tuple(pairs[index] for index in row.nonzero()[0]),
                    memory_accesses=1,
                    cycles=cycles,
                )
                for row in mask
            ]
        lows = self._lows
        highs = self._highs
        register_range = range(len(pairs))
        return [
            FieldLookupResult(
                matches=tuple(
                    pairs[index]
                    for index in register_range
                    if lows[index] <= value <= highs[index]
                ),
                memory_accesses=1,
                cycles=cycles,
            )
            for value in values
        ]


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


def batch_walker(engine: SingleFieldEngine, use_numpy: Optional[bool] = None) -> BatchWalker:
    """Build the best batch walker for ``engine`` (scalar fallback otherwise)."""
    if isinstance(engine, MultibitTrie):
        return TrieBatchWalker(engine, use_numpy=use_numpy)
    if isinstance(engine, BinarySearchTree):
        return BstBatchWalker(engine, use_numpy=use_numpy)
    if isinstance(engine, PortRegisterFile):
        return PortBatchWalker(engine, use_numpy=use_numpy)
    return ScalarBatchWalker(engine, use_numpy=use_numpy)
