"""Multi-pipeline deployment model: trace sharding over worker processes.

The paper's hardware sustains line rate because the pipeline accepts a new
packet every cycle; a software deployment reaches for the same headroom by
running several classifier *replicas* side by side behind a load balancer.
:class:`ParallelSession` models exactly that: a pool of N worker processes,
each holding one replica with the full rule set and built there from a
**picklable** factory (see :class:`ReplicaSpec`), bounded chunks of the input
trace dispatched round-robin across them, and one
:class:`~repro.api.session.SessionStats` over the whole deployment.

Chunks reach the workers over one of two **transports**:

* ``transport="packed"`` — the zero-copy wire format of
  :mod:`repro.perf.transport`: chunks are packed into fixed-width 104-bit
  header words inside a shared-memory ring, and only a tiny
  ``(segment, offset, count)`` descriptor crosses the process boundary.  No
  :class:`~repro.rules.packet.PacketHeader` object is ever pickled.
* ``transport="pickle"`` — the plain object transport: each chunk is pickled
  into the worker as a list of headers.
* ``transport="auto"`` (default) — packed when the platform grants shared
  memory (:func:`~repro.perf.transport.shared_memory_available`), pickle
  otherwise.  The resolved choice is exposed as
  :attr:`ParallelSession.transport`.

Each chunk's :class:`~repro.api.session.RunningCounters` come back pickled
on both transports; for
:meth:`ParallelSession.feed` the classifications return in the compact
palette-plus-indices wire form (no ``detail`` record, one entry per distinct
classification) and rehydrate through a parent-side interning memo.

**Live updates**: the pool carries the transactional control plane of
:mod:`repro.api.control` — :meth:`ParallelSession.begin` opens a transaction
whose commit broadcasts the delta to every replica, and
:meth:`ParallelSession.apply` re-broadcasts a delta/commit staged elsewhere.
The delta crosses as a message over each worker's task channel, alongside
the chunk descriptors.  A replica that fails a delta triggers a session-wide
rollback (each committed replica replays the inverse delta), so the pool
never serves divergent rule programs.

Concurrency: a session runs one dispatch (:meth:`ParallelSession.run` or
:meth:`ParallelSession.feed`) at a time; :meth:`ParallelSession.apply` may be
called from another thread while a dispatch runs.  An event loop drives the
pool by awaiting :meth:`ParallelSession.feed` run in a worker thread, chunk
by chunk (see :meth:`ParallelSession.from_factory`).

Streaming contract: the input trace is consumed incrementally — at most
``workers x 2`` chunks are in flight plus the one being filled — so
arbitrarily long streams run in constant memory, exactly like
:meth:`ClassificationSession.run <repro.api.session.ClassificationSession.run>`
(:meth:`ParallelSession.feed` is the exception: it returns every result, so
it necessarily materialises them).

Failure contract: statistics commit only when a run completes.  If any
replica raises mid-run (a poisoned packet), outstanding chunks are
cancelled, the shared-memory ring (if any) is released, the original error
propagates, and the session's committed counters remain exactly what they
were before the failed :meth:`ParallelSession.run`/:meth:`ParallelSession.feed`
call — a failed run contributes nothing to :meth:`ParallelSession.stats`.  A
worker process that dies closes the session: whichever call meets the
broken worker raises :class:`~repro.exceptions.WorkerError` (chained from the
executor's ``BrokenExecutor``), a broadcast in progress leaves the pool's
version where it was and is never served, and every later call raises the
closed-session error.

Statistics are exact: the pool merges every chunk's counters into one
committed :class:`~repro.api.session.RunningCounters`, so its streamed
fields equal one :class:`~repro.api.session.ClassificationSession` over the
same trace and chunk size.  ``memory_bits`` is not streamed: each
:meth:`ParallelSession.stats` call sums one fresh reading per worker, so it
follows commits.  Flow-cache counters stay with the replicas' caches and
are summed by :meth:`ParallelSession.flow_cache_stats`.
:meth:`ParallelSession.feed` returns classifications in input order that are
bit-identical to a single replica classifying the whole trace.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import pickle
import threading
from array import array
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.api.control import CommitResult, ControlPlane, Delta, RuleProgram, Txn, TxnOp
from repro.api.registry import create_classifier
from repro.api.session import RunningCounters, SessionStats, iter_chunks
from repro.core.result import BatchResult, Classification
from repro.exceptions import ConfigurationError, UpdateError, WorkerError
from repro.perf.lru import BoundedCache
from repro.perf.transport import (
    HEADER_BYTES,
    PackedChunk,
    SharedChunkRing,
    read_chunk,
    shared_memory_available,
)
from repro.rules.packet import PacketHeader
from repro.rules.ruleset import RuleSet

__all__ = ["ParallelSession", "ReplicaSpec"]

#: Bound of the parent-side Classification interning memo used to rehydrate
#: compact feed() results (see :class:`_CompactChunk`).
RESULT_MEMO_LIMIT = 1 << 20

#: Chunks allowed in flight per worker (dispatch back-pressure bound).
PIPELINE_DEPTH = 2

_TRANSPORTS = ("auto", "packed", "pickle")


@dataclass(frozen=True)
class ReplicaSpec:
    """Picklable recipe for building one classifier replica in a worker.

    Worker processes cannot receive closures, so the replica factory travels
    as data: the registry ``name``, the ``ruleset`` and the factory
    ``options`` (e.g. ``{"vectorized": True, "flow_cache": True}``).  Each
    worker calls the spec once, at pool start, which builds its replica via
    :func:`~repro.api.registry.create_classifier`.
    """

    name: str
    ruleset: RuleSet
    options: Dict[str, object] = field(default_factory=dict)

    def __call__(self):
        return create_classifier(self.name, self.ruleset, **self.options)


class _ChunkOutcome(NamedTuple):
    """Compact, picklable outcome of one classified chunk."""

    counters: RunningCounters
    results: Optional["_CompactChunk"]  # None unless the caller retains results


class _CompactChunk(NamedTuple):
    """Wire form of one chunk's classifications on their way back from a worker.

    Traces are dominated by repeated flows, so a chunk's classifications
    collapse to a small *palette* of distinct records (``detail`` stripped —
    it is excluded from :class:`~repro.core.result.Classification` equality
    and would drag the whole per-packet ``LookupResult``/``CycleReport``
    graph through pickle) plus one palette index per packet.  The parent
    rehydrates through its session-wide interning memo, so records repeated
    across chunks and workers share one parent-side object.
    """

    palette: Tuple[Classification, ...]
    indices: array  # array("L"): one palette index per packet


def _compact_results(results: Tuple[Classification, ...]) -> _CompactChunk:
    """Fold a chunk's classifications into their palette + indices wire form.

    ``Classification`` is a frozen dataclass whose equality and hash span
    exactly the classification substance (``detail`` carries
    ``compare=False``), so the records themselves key the palette — two
    records equal sans detail share one palette slot.
    """
    palette: List[Classification] = []
    slots: Dict[Classification, int] = {}
    indices = array("L")
    append_index = indices.append
    for record in results:
        slot = slots.get(record)
        if slot is None:
            slot = len(palette)
            slots[record] = slot
            palette.append(
                record if record.detail is None else dataclasses.replace(record, detail=None)
            )
        append_index(slot)
    return _CompactChunk(palette=tuple(palette), indices=indices)


def _measure_chunk(batch: BatchResult, retain: bool) -> _ChunkOutcome:
    """Fold one chunk's batch through the session statistics fold."""
    counters = RunningCounters()
    counters.add(batch.results)
    results = _compact_results(batch.results) if retain else None
    return _ChunkOutcome(counters=counters, results=results)


class _Inflight(NamedTuple):
    """One dispatched chunk awaiting absorption."""

    future: object
    chunk_index: int
    #: Ring slot carrying the packed chunk, or None on the pickle transport.
    slot: Optional[int]


def _split_packed(chunk: PackedChunk, size: int):
    """Re-slice an oversized pre-packed chunk to the dispatch chunk size.

    Packed words are fixed-width, so slicing is pure byte arithmetic — the
    headers are never decoded.
    """
    if chunk.count <= size:
        yield chunk
        return
    for start in range(0, chunk.count, size):
        count = min(size, chunk.count - start)
        yield PackedChunk(
            chunk.data[start * HEADER_BYTES: (start + count) * HEADER_BYTES], count
        )


def _mixed_stream_error() -> ConfigurationError:
    return ConfigurationError(
        "mixed input stream: feed either packet headers or PackedChunk "
        "words, not both in one run"
    )


def _headers_only(items):
    """Pass a header stream through, refusing any PackedChunk mixed into it."""
    for item in items:
        if isinstance(item, PackedChunk):
            raise _mixed_stream_error()
        yield item


def _iter_dispatch_chunks(packets, size: int):
    """Chunk an input stream for dispatch, whichever shape it arrives in.

    A stream of packet headers chunks through
    :func:`~repro.api.session.iter_chunks`; a stream of pre-packed
    :class:`~repro.perf.transport.PackedChunk` words (the pcap front-end,
    :func:`~repro.perf.transport.iter_packed_chunks`) passes through without
    decoding — re-sliced by byte arithmetic when a chunk exceeds the
    dispatch size.  The first item fixes the shape; mixing is an error.
    """
    items = iter(packets)
    first = next(items, None)
    if first is None:
        return
    items = itertools.chain((first,), items)
    if not isinstance(first, PackedChunk):
        yield from iter_chunks(_headers_only(items), size)
        return
    for item in items:
        if not isinstance(item, PackedChunk):
            raise _mixed_stream_error()
        yield from _split_packed(item, size)


# ---------------------------------------------------------------------------
# Worker plumbing (module-level: must be picklable by name).
# ---------------------------------------------------------------------------

_WORKER_REPLICA = None


def _process_worker_initialize(factory) -> None:
    """Build this worker process's replica once, at pool start."""
    global _WORKER_REPLICA
    _WORKER_REPLICA = factory()


def _process_worker_info() -> Tuple[str, int]:
    return _WORKER_REPLICA.name, _WORKER_REPLICA.memory_bits()


def _process_worker_details() -> Dict[str, object]:
    return dict(_WORKER_REPLICA.stats().details)


def _process_worker_classify(chunk, retain: bool) -> _ChunkOutcome:
    if isinstance(chunk, PackedChunk):  # pre-packed input on the pickle transport
        chunk = chunk.headers()
    return _measure_chunk(_WORKER_REPLICA.classify_batch(chunk), retain)


def _process_worker_classify_packed(
    segment: str, offset: int, count: int, retain: bool
) -> _ChunkOutcome:
    """Decode one packed chunk from the shared ring and classify it."""
    headers = read_chunk(segment, offset, count)
    return _measure_chunk(_WORKER_REPLICA.classify_batch(headers), retain)


def _process_worker_apply_delta(delta: Delta) -> CommitResult:
    """Apply one control-plane delta to this worker's replica (all-or-nothing)."""
    return _WORKER_REPLICA.control.apply_delta(delta)


def _process_worker_flow_stats() -> Optional[Dict[str, object]]:
    """This replica's flow-cache counter snapshot (None without a cache)."""
    cache = getattr(_WORKER_REPLICA, "flow_cache", None)
    return cache.stats() if cache is not None else None


def _process_worker_program() -> RuleProgram:
    return _WORKER_REPLICA.control.program()


class _ProcessWorker:
    """One replica in its own worker process, built there from the factory."""

    def __init__(self, factory) -> None:
        self.factory = factory
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def started(self) -> bool:
        """True once a task was submitted: the process runs its replica."""
        return self._executor is not None

    def call(self, function, *args):
        """Submit ``function(*args)`` to the worker, starting it on first use.

        Tasks run one at a time in submission order on the worker's single
        lane, so a delta lands after the chunks already queued and before
        anything submitted later.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_process_worker_initialize,
                initargs=(self.factory,),
            )
        return self._executor.submit(function, *args)

    def submit_delta(self, delta: Delta):
        """Ship a control-plane delta to the worker process."""
        return self.call(_process_worker_apply_delta, delta)

    def program(self) -> RuleProgram:
        return self.call(_process_worker_program).result()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


class _SessionControl(ControlPlane):
    """Control plane of a replica pool: commits broadcast to every replica.

    Obtained as :attr:`ParallelSession.control`; a transaction committed
    against it lands on **all** replicas with all-or-nothing semantics
    session-wide — if any replica rejects the delta, the replicas that
    already committed replay the inverse delta (the journalled rollback each
    per-replica commit reports), so the pool never serves divergent rule
    programs.
    """

    def __init__(self, session: "ParallelSession") -> None:
        super().__init__()
        self._session = session

    def program(self) -> RuleProgram:
        """Snapshot of replica 0's rule program, stamped with the pool version.

        Replicas are kept rule-identical by the broadcast commit path, so any
        replica's program is representative; worker 0 reports it (starting
        that worker if needed).
        """
        program = self._session._replica_program()
        return dataclasses.replace(program, version=self._version)

    def _apply(self, delta: Delta) -> Tuple[List[object], List[TxnOp]]:
        return self._session._broadcast_delta(delta)


def _raise_if_broken(failures: List[Tuple[int, BaseException]]) -> None:
    """Re-raise the first dead-worker error among ``(worker, error)`` pairs."""
    for _, error in failures:
        if isinstance(error, BrokenExecutor):
            raise error


def _closes_on_broken_worker(method):
    """Close the session and raise a typed error when a worker process died.

    ``concurrent.futures`` reports a dead worker as ``BrokenExecutor`` from
    every later submit or wait on its executor.  The pool cannot serve or
    stay rule-identical without that replica, so the session closes (the
    surviving workers shut down with it) and the caller gets a
    :class:`~repro.exceptions.WorkerError` chained from the executor's error.
    """

    @functools.wraps(method)
    def guarded(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except BrokenExecutor as exc:
            self.close()
            raise WorkerError(
                f"a worker process died ({exc}); the parallel session is closed, "
                "create a new session"
            ) from exc

    return guarded


class ParallelSession:
    """Shard traces across worker-process replicas and merge their statistics.

    ``ParallelSession(factory, workers)`` (or :meth:`from_factory`) starts
    ``workers`` processes, each of which calls the picklable ``factory`` once
    to build its replica — use :class:`ReplicaSpec`.  ``transport`` selects
    how chunks reach the workers (``"auto"``/``"packed"``/``"pickle"``, see
    the module docstring).

    Workers start lazily on first use and stay alive across runs; call
    :meth:`close` (or use the session as a context manager) to release them.
    A closed session is terminal: further :meth:`run`/:meth:`feed` calls raise
    :class:`~repro.exceptions.ConfigurationError`.  See the module docstring
    for the concurrency, streaming and failure contracts.
    """

    def __init__(
        self,
        factory: Callable[[], object],
        workers: int,
        chunk_size: int = 256,
        *,
        transport: str = "auto",
    ) -> None:
        if chunk_size <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {chunk_size}")
        if workers <= 0:
            raise ConfigurationError(f"worker count must be positive, got {workers}")
        if transport not in _TRANSPORTS:
            raise ConfigurationError(
                f"unknown chunk transport {transport!r}; choose from {_TRANSPORTS}"
            )
        try:
            if not callable(factory):
                raise TypeError(f"{type(factory).__name__} is not callable")
            pickle.dumps(factory)
        except Exception as exc:
            raise ConfigurationError(
                "a parallel session needs a picklable replica factory "
                f"(e.g. ReplicaSpec); {factory!r} is not: {exc}"
            ) from exc
        if transport == "packed" and not shared_memory_available():
            raise ConfigurationError(
                "transport='packed' needs multiprocessing.shared_memory, "
                "which this platform does not grant; use transport='auto' "
                "to fall back to pickle gracefully"
            )
        if transport == "auto":
            transport = "packed" if shared_memory_available() else "pickle"
        self.chunk_size = chunk_size
        #: Resolved chunk transport: "packed" or "pickle".
        self.transport = transport
        self._ring: Optional[SharedChunkRing] = None
        self._closed = False
        #: Serialises chunk submission against control-plane delta broadcast
        #: so a delta lands at one consistent point of the dispatch sequence.
        self._dispatch_lock = threading.Lock()
        #: Parent-side interning memo rehydrating compact feed() results
        #: (records repeated across chunks share one object).
        self._result_memo = BoundedCache(RESULT_MEMO_LIMIT)
        self._control: Optional[_SessionControl] = None
        self._workers = [_ProcessWorker(factory) for _ in range(workers)]
        self._committed = RunningCounters()
        #: Last ``(name, memory_bits)`` reading of the pool (see stats()).
        self._footprint: Optional[Tuple[str, int]] = None

    @classmethod
    def from_factory(
        cls,
        factory: Callable[[], object],
        workers: int,
        chunk_size: int = 256,
        backend: str = "process",
        transport: str = "auto",
    ) -> "ParallelSession":
        """Build a ``workers``-process session; ``factory`` makes one replica.

        The factory is shipped (pickled) to each worker process and called
        there, so it must be picklable — :class:`ReplicaSpec` exists for
        exactly that.  ``backend`` survives only for callers that still name
        the one backend; any value other than ``"process"`` is rejected.
        """
        if backend != "process":
            raise ConfigurationError(
                f"backend {backend!r} is gone: a ParallelSession is a pool of "
                "worker processes (backend='process').  Use ClassificationSession "
                "for one in-process classifier, and drive the pool from an event "
                "loop with `await asyncio.to_thread(pool.feed, chunk)`"
            )
        return cls(factory, workers, chunk_size, transport=transport)

    @property
    def workers(self) -> int:
        """Number of replica pipelines."""
        return len(self._workers)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called (the session is terminal)."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "parallel session is closed; create a new session to classify again"
            )

    # -- streaming -----------------------------------------------------------
    def run(self, packets: Iterable[PacketHeader]) -> SessionStats:
        """Shard one trace across the worker pool and return the merged stats.

        Consumes the trace incrementally (constant memory, any iterable) and
        retains nothing per packet.  The trace may also arrive *pre-packed*
        — an iterable of :class:`~repro.perf.transport.PackedChunk` words
        (the pcap front-end's native output,
        :func:`~repro.io.pcap.read_pcap_packed`) — in which case the packed
        transport copies each chunk's bytes straight into the ring, no
        header ever decoded parent-side.  Holds for :meth:`feed` too.  On a
        replica failure, cancels the outstanding chunks, re-raises the
        replica's error and leaves the committed counters untouched (see the
        module failure contract).
        """
        self._execute(packets, retain=False)
        return self.stats()

    def feed(self, packets: Iterable[PacketHeader]) -> BatchResult:
        """Shard one trace and return its classifications in input order.

        The parallel twin of :meth:`ClassificationSession.feed
        <repro.api.session.ClassificationSession.feed>`: results are
        bit-identical to one replica classifying the trace alone (every
        replica holds the same rules), re-assembled in input order.  Unlike
        :meth:`run` this necessarily materialises the results.
        """
        return BatchResult(self._execute(packets, retain=True))

    # -- dispatch core -------------------------------------------------------
    def _dispatch_ring(self) -> Optional[SharedChunkRing]:
        """The chunk ring of the packed transport (None on pickle).

        A session runs one dispatch at a time, so one ring stays warm across
        runs; a failed run unlinks it and the next run builds a fresh one.
        """
        if self.transport != "packed":
            return None
        if self._ring is None:
            self._ring = SharedChunkRing(
                slots=len(self._workers) * PIPELINE_DEPTH,
                headers_per_slot=self.chunk_size,
            )
        return self._ring

    def _release_ring(self) -> None:
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def _submit(
        self,
        chunk,
        chunk_index: int,
        retain: bool,
        ring: Optional[SharedChunkRing],
    ) -> _Inflight:
        """Submit one chunk round-robin over the configured transport."""
        worker = self._workers[chunk_index % len(self._workers)]
        slot = None
        # The dispatch lock orders this submission against any concurrent
        # control-plane broadcast (see apply()): a delta either precedes or
        # follows this chunk on every replica lane, never splits it.
        with self._dispatch_lock:
            if ring is not None:
                slot = ring.acquire()
                if slot is None:  # unreachable under the bounded in-flight window
                    raise ConfigurationError(
                        "shared-memory ring exhausted; in-flight window exceeded slot count"
                    )
                descriptor = ring.write(slot, chunk)
                future = worker.call(
                    _process_worker_classify_packed,
                    descriptor.segment,
                    descriptor.offset,
                    descriptor.count,
                    retain,
                )
            else:
                future = worker.call(_process_worker_classify, chunk, retain)
        return _Inflight(future, chunk_index, slot)

    @_closes_on_broken_worker
    def _execute(self, packets, retain: bool):
        self._check_open()
        pending = RunningCounters()
        retained: Optional[Dict[int, Tuple[Classification, ...]]] = {} if retain else None
        inflight: deque = deque()
        max_inflight = len(self._workers) * PIPELINE_DEPTH
        ring = self._dispatch_ring()
        try:
            for chunk_index, chunk in enumerate(
                _iter_dispatch_chunks(packets, self.chunk_size)
            ):
                if len(inflight) >= max_inflight:
                    self._absorb_one(inflight, pending, retained, ring)
                inflight.append(self._submit(chunk, chunk_index, retain, ring))
            while inflight:
                self._absorb_one(inflight, pending, retained, ring)
        except BaseException:
            self._abort(inflight)
            raise
        # Only a fully successful run commits into the session counters.
        self._committed.merge(pending)
        if retained is None:
            return None
        ordered: List[Classification] = []
        for index in sorted(retained):
            ordered.extend(retained[index])
        return tuple(ordered)

    def _rehydrate(self, results: _CompactChunk) -> Tuple[Classification, ...]:
        """Expand a compact wire chunk back into Classification records.

        Palette entries intern through the session-wide memo, so a record
        repeated across chunks (or workers) rehydrates to one shared object.
        """
        memo = self._result_memo
        interned = []
        for record in results.palette:
            known = memo.get(record)
            if known is None:
                memo.put(record, record)
                known = record
            interned.append(known)
        return tuple(interned[index] for index in results.indices)

    def _absorb_one(self, inflight, pending, retained, ring) -> None:
        entry = inflight.popleft()
        try:
            outcome = entry.future.result()
        finally:
            if entry.slot is not None and not ring.closed:
                ring.release(entry.slot)
        pending.merge(outcome.counters)
        if retained is not None:
            retained[entry.chunk_index] = self._rehydrate(outcome.results)

    def _abort(self, inflight) -> None:
        """Cancel outstanding chunks, swallow late errors, retire the ring."""
        for entry in inflight:
            entry.future.cancel()
        for entry in inflight:
            if not entry.future.cancelled():
                try:
                    entry.future.result()
                except BaseException:
                    pass
        inflight.clear()
        self._release_ring()

    # -- control plane -------------------------------------------------------
    @property
    def control(self) -> _SessionControl:
        """The pool's transactional control plane (commits broadcast)."""
        if self._control is None:
            self._control = _SessionControl(self)
        return self._control

    def begin(self) -> Txn:
        """Open a transaction whose commit broadcasts to every replica."""
        self._check_open()
        return self.control.begin()

    def apply(self, source) -> CommitResult:
        """Apply a transaction/delta to every replica, all-or-nothing.

        ``source`` may be an open :class:`~repro.api.control.Txn` (a
        free-standing one, or one opened via :meth:`begin`), a bare
        :class:`~repro.api.control.Delta`, or the
        :class:`~repro.api.control.CommitResult` of a commit made on a
        primary classifier (its delta is re-broadcast, which is how an
        updated primary propagates to a serving pool).

        The delta crosses to each worker as a message over its task channel,
        alongside any in-flight chunk descriptors; it may be applied from
        another thread while a dispatch runs.  A replica that fails the delta
        triggers a session-wide rollback — every replica that already
        committed replays the inverse delta — and the error propagates with
        nothing committed (see :meth:`_broadcast_delta` for the
        dispatch-window and label-numbering fine print).  A dead worker
        closes the session instead (:class:`~repro.exceptions.WorkerError`).
        """
        self._check_open()
        if isinstance(source, Txn):
            if source._plane is self.control:
                return source.commit()
            if source._plane is not None:
                raise ConfigurationError(
                    "transaction belongs to another control plane; commit it "
                    "there and pass the CommitResult (or its delta) to apply()"
                )
            # A free-standing Txn stays the caller's: snapshot its staged ops
            # so the same transaction can roll out to several pools.
            source = source.delta()
        if isinstance(source, CommitResult):
            source = source.delta
        if not isinstance(source, Delta):
            raise ConfigurationError(
                f"apply() takes a Txn, Delta or CommitResult, got {type(source).__name__}"
            )
        return self.control.apply_delta(source)

    @_closes_on_broken_worker
    def _replica_program(self) -> RuleProgram:
        # Only replica 0 answers a program snapshot; no need to cold-start
        # the whole pool (a broadcast starts every worker itself).
        self._check_open()
        return self._workers[0].program()

    @_closes_on_broken_worker
    def _broadcast_delta(self, delta: Delta) -> Tuple[List[object], List[TxnOp]]:
        """Ship one delta to every replica; roll back session-wide on failure.

        The dispatch lock is held for the **whole** broadcast — submission,
        result collection and any rollback — so every chunk of a concurrent
        run is classified either entirely before the delta or entirely after
        the broadcast resolved (committed everywhere or rolled back
        everywhere); no chunk can be dispatched into the uncertainty window.
        Workers drain their lanes without the lock, so waiting on the delta
        futures here cannot deadlock.  A dead worker is not a rejection: the
        session closes, so the replicas that did commit are never served.

        After a rolled-back failure the pool's *rule programs* are identical
        again (nothing committed); the rolled-back replicas' internal label
        numbering may differ from before, exactly as after any
        remove-then-reinsert sequence (see
        :class:`~repro.api.control.ClassifierControl`).
        """
        self._check_open()  # a pre-close Txn must not resurrect worker pools
        with self._dispatch_lock:
            futures = [worker.submit_delta(delta) for worker in self._workers]
            commits: List[Tuple[int, CommitResult]] = []
            failures: List[Tuple[int, BaseException]] = []
            for index, future in enumerate(futures):
                try:
                    commits.append((index, future.result()))
                except BaseException as exc:
                    failures.append((index, exc))
            _raise_if_broken(failures)
            if not failures:
                first = commits[0][1]
                return list(first.results), list(first.inverse.ops)
            # All-or-nothing session-wide: undo the replicas that committed.
            rollback_errors: List[Tuple[int, BaseException]] = []
            undo = [
                (index, self._workers[index].submit_delta(commit.inverse))
                for index, commit in commits
            ]
            for index, future in undo:
                try:
                    future.result()
                except BaseException as exc:
                    rollback_errors.append((index, exc))
            _raise_if_broken(rollback_errors)
        failed_index, error = failures[0]
        if rollback_errors:
            unrolled = [index for index, _ in rollback_errors]
            raise UpdateError(
                f"replica {failed_index} rejected the delta and replica(s) "
                f"{unrolled} failed the rollback; the pool may serve "
                "divergent rule programs — close the session"
            ) from error
        raise UpdateError(
            f"replica {failed_index} rejected the delta; every replica rolled "
            "back, nothing committed"
        ) from error

    def reset(self) -> None:
        """Zero the committed aggregate counters."""
        self._committed.reset()

    # -- aggregation ---------------------------------------------------------
    def _read_footprint(self) -> Tuple[str, int]:
        """One fresh ``(name, memory_bits)`` reading of the whole pool.

        Submits to every worker before collecting any, so a cold pool brings
        its replicas up in parallel.  The name is the replica's, suffixed
        ``x<N>`` for N > 1 workers; the footprint sums the replicas', since a
        multi-pipeline deployment replicates the search structures.
        """
        futures = [worker.call(_process_worker_info) for worker in self._workers]
        readings = [future.result() for future in futures]
        name = readings[0][0]
        if len(readings) > 1:
            name = f"{name}x{len(readings)}"
        return name, sum(bits for _, bits in readings)

    @_closes_on_broken_worker
    def stats(self) -> SessionStats:
        """Statistics over everything successfully run through the pool.

        The streamed counters are the pool's one committed fold, so they
        equal one :class:`~repro.api.session.ClassificationSession` over the
        same trace and chunk size.  ``memory_bits`` is read fresh from every
        worker on each call (starting any idle one), so it follows commits.
        A closed session reports the reading taken last; stats of a closed
        session that never reported one are unavailable.
        """
        if not self._closed:
            self._footprint = self._read_footprint()
        elif self._footprint is None:
            raise ConfigurationError(
                "parallel session is closed and never reported replica "
                "info; create a new session"
            )
        return self._committed.to_stats(*self._footprint)

    @_closes_on_broken_worker
    def flow_cache_stats(self) -> Optional[Dict[str, object]]:
        """Flow-cache statistics summed across every replica.

        Counters (lookups / hits / misses / insertions / evictions /
        surgical drops / invalidations) and resident entries sum over the
        replicas; configuration fields (policy, per-replica capacity,
        timeouts, predictor) come from replica 0, since every worker builds
        its replica from the same factory.  ``hit_rate`` is re-derived from
        the summed counters and ``replicas`` counts the workers.  Returns
        ``None`` when the replicas carry no flow cache.
        """
        self._check_open()
        futures = [worker.call(_process_worker_flow_stats) for worker in self._workers]
        parts = [part for part in (future.result() for future in futures) if part is not None]
        if not parts:
            return None
        merged = dict(parts[0])
        summed = (
            "entries", "lookups", "hits", "misses", "insertions",
            "timeout_evictions", "capacity_evictions", "evictions",
            "surgical_drops", "invalidations",
        )
        for key in summed:
            merged[key] = sum(part[key] for part in parts)
        merged["hit_rate"] = merged["hits"] / merged["lookups"] if merged["lookups"] else 0.0
        merged["replicas"] = len(parts)
        return merged

    @_closes_on_broken_worker
    def replica_details(self) -> Dict[str, object]:
        """Engine-specific details of replica 0 (``ClassifierStats.details``).

        Representative of the deployment, since every worker builds its
        replica from the same factory; the worker reports them (starting it
        if needed).
        """
        self._check_open()
        return self._workers[0].call(_process_worker_details).result()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the worker processes down and release the shared-memory ring.

        Idempotent and terminal: processes exit, the packed transport's
        segment is unlinked (nothing lingers in ``/dev/shm``), and any later
        :meth:`run`/:meth:`feed` raises
        :class:`~repro.exceptions.ConfigurationError`.  When every worker is
        running, one last footprint reading is taken first, so committed
        statistics stay readable via :meth:`stats` (a dead worker leaves the
        previous reading).
        """
        if not self._closed and all(worker.started for worker in self._workers):
            try:
                self._footprint = self._read_footprint()
            except Exception:
                # The workers must be released whatever the reading meets (a
                # dead worker, interpreter shutdown): keep the last reading.
                pass
        self._closed = True
        for worker in self._workers:
            worker.shutdown()
        self._release_ring()

    def __enter__(self) -> "ParallelSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"ParallelSession(workers={self.workers}, transport={self.transport})"
