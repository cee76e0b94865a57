"""Bounded least-recently-used caches for the fast-path memoization layers.

The memoization layers of :class:`~repro.perf.fastpath.FastPathAccelerator`
above the field tables are keyed by values arriving from the packet stream
(label-list tuples, field-result id tuples, whole headers, packed rule-filter
keys), so an adversarial stream of never-repeating flows would grow an
unbounded dict forever.  :class:`LRUCache`
bounds each layer: a hit refreshes the entry's recency, an insert beyond the
limit evicts the least recently used entry and counts it, so a cache under an
adversarial stream holds memory flat while a cache under a realistic
(redundant) stream behaves exactly like the dict it replaces.

Built on :class:`collections.OrderedDict`, whose ``move_to_end``/``popitem``
are C-level operations — the recency bookkeeping adds ~100ns per hit, which
keeps the warm header-cache path above a million packets per second.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator

from repro.exceptions import ConfigurationError

__all__ = ["LRUCache", "BoundedCache"]

_MISSING = object()


class LRUCache:
    """A size-bounded mapping evicting the least recently used entry.

    Only the operations the fast path needs are provided: :meth:`get`
    (refreshes recency), :meth:`put` (inserts, evicting the LRU entry when
    full), ``in`` (does *not* refresh recency), ``len``, iteration over keys
    (eviction order, least recent first) and :meth:`clear`.  ``evictions``
    counts capacity evictions over the cache's lifetime (``clear`` — the
    invalidation path — does not count).
    """

    __slots__ = ("limit", "evictions", "data")

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ConfigurationError(f"cache limit must be positive, got {limit}")
        self.limit = limit
        self.evictions = 0
        #: The underlying :class:`OrderedDict`, exposed for hot loops that
        #: inline ``data.get`` + ``data.move_to_end`` to skip a Python call
        #: per packet.  Such loops own the recency update; anything else
        #: should go through :meth:`get`/:meth:`put`.
        self.data: OrderedDict = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or ``default``."""
        data = self.data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            return default
        data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        data = self.data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        if len(data) >= self.limit:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value

    def put_many(self, items) -> None:
        """Bulk insert ``(key, value)`` pairs of absent keys, then evict LRU-first.

        Ends in the state (and eviction count) of one :meth:`put` per pair,
        with one hash per key instead of two.
        """
        data = self.data
        data.update(items)
        excess = len(data) - self.limit
        if excess > 0:
            for _ in range(excess):
                data.popitem(last=False)
            self.evictions += excess

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def discard(self, key: Hashable) -> bool:
        """Drop one entry if present (scoped invalidation; not an eviction)."""
        if key in self.data:
            del self.data[key]
            return True
        return False

    def clear(self) -> None:
        """Drop every entry (invalidation; not counted as eviction)."""
        self.data.clear()

    def __repr__(self) -> str:
        return f"LRUCache(entries={len(self.data)}, limit={self.limit}, evictions={self.evictions})"


class BoundedCache:
    """A size-bounded mapping evicting the *oldest inserted* entry (FIFO).

    The cheap sibling of :class:`LRUCache` for layers whose hit path must be
    a bare ``dict.get`` with zero recency bookkeeping — the vectorized cold
    path's rule-filter probe cache and sort memo, where a hot loop issues
    hundreds of thousands of reads per batch.  Reads go straight through the
    exposed ``data`` dict; :meth:`put` enforces the bound (plain dicts
    preserve insertion order, so the first key is the oldest).
    """

    __slots__ = ("limit", "evictions", "data")

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ConfigurationError(f"cache limit must be positive, got {limit}")
        self.limit = limit
        self.evictions = 0
        #: The underlying dict; hot loops read it directly (``data.get``).
        self.data: dict = {}

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value or ``default`` (no recency side effects)."""
        return self.data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the oldest entry when full."""
        data = self.data
        if key not in data and len(data) >= self.limit:
            del data[next(iter(data))]
            self.evictions += 1
        data[key] = value

    def put_many(self, mapping: dict) -> None:
        """Bulk insert, then evict oldest-first down to the bound."""
        data = self.data
        data.update(mapping)
        excess = len(data) - self.limit
        if excess > 0:
            iterator = iter(data)
            oldest = [next(iterator) for _ in range(excess)]
            for key in oldest:
                del data[key]
            self.evictions += excess

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def discard(self, key: Hashable) -> bool:
        """Drop one entry if present (scoped invalidation; not an eviction)."""
        if key in self.data:
            del self.data[key]
            return True
        return False

    def clear(self) -> None:
        """Drop every entry (invalidation; not counted as eviction)."""
        self.data.clear()

    def __repr__(self) -> str:
        return f"BoundedCache(entries={len(self.data)}, limit={self.limit}, evictions={self.evictions})"
