"""repro.perf — high-throughput batch classification.

The behavioural model is bit-exact but pure Python, so classifying packets
one at a time caps trace throughput far below the "as fast as the hardware
allows" goal.  This package closes the gap from two directions:

* :class:`~repro.perf.fastpath.FastPathAccelerator` — memoizes per-dimension
  engine lookups, combiner outcomes, assembled results and whole-header
  classifications in bounded LRU layers (:mod:`repro.perf.lru`), with
  automatic invalidation on rule installs/removes by epoch comparison (the
  :class:`~repro.observers.MutationEpoch` counters of
  :class:`~repro.fields.base.SingleFieldEngine` and
  :class:`~repro.hardware.rule_filter.RuleFilterMemory`, bumped by every
  control-plane commit).  Its *vectorized* mode makes the cold path fast
  too: unique field values resolve through the
  :mod:`repro.fields.vectorized` batch engine walkers and combiner misses
  through an exact array-staged cross-product walk.  Attached via
  :meth:`ConfigurableClassifier.enable_fast_path`, it accelerates
  ``classify_batch`` while keeping results bit-exact with the per-packet
  path.
* :class:`~repro.perf.flowcache.FlowCache` — an exact-match flow tier in
  front of whatever batch path is enabled: entries are keyed by the packed
  104-bit header word, managed by idle / hard / HQTimer-style hybrid
  timeout policies on a deterministic packets-observed virtual clock, and
  evicted under capacity pressure by a pluggable :class:`Predictor`
  (frequency / recency).  Control-plane commits invalidate affected entries
  surgically; untracked mutations flush wholesale via the same mutation
  epochs the fast path watches.
* :class:`~repro.perf.parallel.ParallelSession` — shards a trace in bounded
  round-robin chunks across N worker processes, each holding one replica
  built from a picklable :class:`~repro.perf.parallel.ReplicaSpec`.  Each
  chunk's :class:`~repro.api.session.RunningCounters` merge into one
  committed fold, rendered as one :class:`~repro.api.session.SessionStats`
  whose ``memory_bits`` sums a fresh reading per worker; the replicas'
  flow-cache counters sum in
  :meth:`~repro.perf.parallel.ParallelSession.flow_cache_stats`.  Chunks
  reach the workers over the zero-copy packed transport of
  :mod:`repro.perf.transport` (fixed-width 104-bit header words in a
  shared-memory ring; ``transport="packed"``) when the platform grants
  shared memory, falling back to pickled object chunks otherwise.  The pool is itself a :class:`~repro.api.control.ControlPlane`:
  committed transactions broadcast to every replica between chunks,
  all-or-nothing session-wide (see
  :meth:`~repro.perf.parallel.ParallelSession.apply`).
"""

from repro.perf.fastpath import FastPathAccelerator
from repro.perf.flowcache import (
    FlowCache,
    FrequencyPredictor,
    Predictor,
    RecencyPredictor,
)
from repro.perf.lru import BoundedCache, LRUCache
from repro.perf.parallel import ParallelSession, ReplicaSpec
from repro.perf.transport import (
    ChunkDescriptor,
    PackedChunk,
    SharedChunkRing,
    iter_packed_chunks,
    pack_header,
    pack_headers,
    shared_memory_available,
    unpack_headers,
)

__all__ = [
    "FastPathAccelerator",
    "FlowCache",
    "Predictor",
    "FrequencyPredictor",
    "RecencyPredictor",
    "ParallelSession",
    "ReplicaSpec",
    "LRUCache",
    "BoundedCache",
    "SharedChunkRing",
    "ChunkDescriptor",
    "PackedChunk",
    "iter_packed_chunks",
    "pack_header",
    "pack_headers",
    "unpack_headers",
    "shared_memory_available",
]
