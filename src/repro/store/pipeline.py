"""The ingestion pipeline: a bounded, batching upload gateway.

Uploads used to be routed record-list-by-record-list straight into the
Honeycomb; the pipeline instead absorbs them into per-shard bounded
buffers and flushes each shard as one batch, with the flush scheduled on
the existing deterministic :class:`~repro.simulation.Simulator` — a
submit to an idle shard arms one flush event ``flush_delay`` seconds
out, and every upload landing in that window coalesces into the same
batch (cf. HPRM-style batched transport).  No periodic polling: an idle
shard costs zero simulator events.

When a shard's buffer is full, the configured backpressure policy
decides what gives:

- ``drop-oldest`` — evict the oldest buffered records (freshest data
  wins; bounded memory, lossy under sustained overload);
- ``reject`` — refuse the incoming batch entirely (the sender observes
  the rejection, as a real gateway returns 429/503);
- ``spill`` — divert the overflow to an unbounded per-shard spill queue
  drained at most one buffer-capacity per flush (lossless, trades
  memory and freshness for data).

A shard buffer holds the upload chunks it admitted
(:class:`~repro.store.columns.UploadChunk`, one task and user, so one
shard) and their row count, which the policies account against;
``drop-oldest`` and ``spill`` split a chunk where they cut.  A record
list becomes chunks on entry (:func:`~repro.store.columns.chunks_of`),
and its share of each shard is admitted as one.  At flush time one
builder (:func:`~repro.store.columns.batch_of`) turns the flushed chunks
into a :class:`~repro.store.columns.RecordBatch`, which is appended to
the :class:`~repro.store.dataset_store.DatasetStore` (which updates the
streaming aggregates) and handed, as the same batch, to every
registered listener — the Hive's Honeycomb routing above all.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro import obs as _obs
from repro.errors import StoreError
from repro.obs.instruments import PipelineInstruments
from repro.simulation import Simulator
from repro.store.columns import RecordBatch, UploadChunk, batch_of, chunks_of
from repro.store.dataset_store import DatasetStore

#: Backpressure policies, in the order the paper-style gateway offers them.
POLICIES = ("drop-oldest", "reject", "spill")

#: Listener signature: receives one shard flush as a
#: :class:`~repro.store.columns.RecordBatch` — the flush's
#: ``time/lat/lon/value`` columns and task/user codes, in row order.
#: The pipeline builds a flush's batch once
#: (:func:`~repro.store.columns.batch_of`) and the store, the router and
#: every listener share it; treat it as read-only.  Whatever a
#: consumer folds per task, pane or user, it observes a flush's rows in
#: row order.
#:
#: Delivery guarantee: listeners observe **every admitted record exactly
#: once**, in flush batches, regardless of what triggered the flush —
#: the timer-driven per-shard flush and a synchronous
#: :meth:`IngestPipeline.flush_all` drain go through the same flush
#: path, in the same order (store append, then the router, then
#: listeners in registration order).  Records shed by backpressure
#: (rejected / dropped) are never delivered; empty flushes are never
#: delivered.  The streaming tier's live views rely on this guarantee:
#: a campaign teardown ``flush_all()`` must feed the stream engine the
#: exact same batches a slower timer-driven drain would have.
FlushListener = Callable[[RecordBatch], None]


@dataclass
class PipelineStats:
    """Counters of one ingestion pipeline.

    Per record the counters are mutually exclusive and reconcile:

    - ``submitted = accepted + rejected`` — every offered record is
      either admitted or bounced at the gate (``reject`` policy);
    - ``dropped`` counts *admitted* records later evicted by the
      ``drop-oldest`` policy (including a giant batch's own head,
      admitted and evicted in the same call), so at any instant
      ``accepted = flushed_records + dropped + buffered + backlog``;
    - ``spilled`` tags admitted records that took the spill-queue
      detour; they are never dropped and all eventually flush.

    :attr:`IngestPipeline.unaccounted` asserts the second identity.
    """

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    dropped: int = 0
    spilled: int = 0
    flushes: int = 0
    flushed_records: int = 0
    largest_flush: int = 0

    @property
    def mean_flush_batch(self) -> float:
        return self.flushed_records / self.flushes if self.flushes else 0.0

    @property
    def loss(self) -> int:
        """Records shed by backpressure (rejected + dropped)."""
        return self.rejected + self.dropped


class _Parts:
    """Admitted chunks in order, and how many rows they hold."""

    __slots__ = ("parts", "size")

    def __init__(self, chunks: Iterable[UploadChunk] = ()) -> None:
        self.parts: deque[UploadChunk] = deque(chunks)
        self.size = sum(map(len, self.parts))

    def push(self, chunks: list[UploadChunk], size: int) -> None:
        """Append ``chunks``, which hold ``size`` rows."""
        self.parts.extend(chunks)
        self.size += size

    def pop(self, n: int) -> list[UploadChunk]:
        """Remove and return the oldest ``n`` rows (splitting a chunk)."""
        if n == self.size:  # all of it
            taken = list(self.parts)
            self.parts.clear()
            self.size = 0
            return taken
        taken = []
        self.size -= n
        while n:
            head = self.parts[0]
            if len(head) <= n:
                taken.append(self.parts.popleft())
                n -= len(head)
            else:
                first, self.parts[0] = head.split(n)
                taken.append(first)
                n = 0
        return taken


class _ShardBuffer:
    """Bounded buffer + spill queue + pending-flush flag of one shard."""

    __slots__ = ("buffer", "spill", "pending")

    def __init__(self) -> None:
        self.buffer = _Parts()
        self.spill = _Parts()
        self.pending = False


class IngestPipeline:
    """Bounded batching gateway between upload routing and the store."""

    def __init__(
        self,
        sim: Simulator,
        store: DatasetStore,
        policy: str = "spill",
        buffer_capacity: int = 4096,
        flush_delay: float = 0.2,
        obs: _obs.Obs | None = None,
    ):
        if policy not in POLICIES:
            raise StoreError(f"unknown backpressure policy {policy!r}; one of {POLICIES}")
        if buffer_capacity <= 0:
            raise StoreError(f"buffer capacity must be positive: {buffer_capacity}")
        if flush_delay < 0:
            raise StoreError(f"flush delay must be non-negative: {flush_delay}")
        self._sim = sim
        self.store = store
        self.policy = policy
        self.buffer_capacity = buffer_capacity
        self.flush_delay = flush_delay
        self._shards = [_ShardBuffer() for _ in range(store.n_shards)]
        self._router: FlushListener | None = None
        self._listeners: list[FlushListener] = []
        self.stats = PipelineStats()
        #: Registry instruments: read views of :attr:`stats` plus the
        #: flush-timing histogram the object counters cannot express.
        obs = obs or _obs.default()
        self.obs = PipelineInstruments(obs.registry, self.stats)
        self._tracer = obs.tracer

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def set_router(self, router: FlushListener) -> None:
        """Install the single downstream consumer (the Hive's routing).

        Exclusive on purpose: two Hives sharing one pipeline would each
        re-deliver every flush to their Honeycombs, duplicating data.
        """
        if self._router is not None:
            raise StoreError(
                "pipeline already has a router; each Hive needs its own pipeline"
            )
        self._router = router

    def add_listener(self, listener: FlushListener) -> None:
        """Register an observing flush listener (metrics, tests...)."""
        self._listeners.append(listener)

    @property
    def buffered(self) -> int:
        """Records currently waiting in bounded buffers."""
        return sum(s.buffer.size for s in self._shards)

    @property
    def backlog(self) -> int:
        """Records parked in spill queues (``spill`` policy only)."""
        return sum(s.spill.size for s in self._shards)

    @property
    def unaccounted(self) -> int:
        """Admitted records the counters cannot place (always 0).

        Every accepted record is exactly one of: already flushed,
        evicted by ``drop-oldest``, waiting in a buffer, or parked in a
        spill queue.  A non-zero value means the backpressure accounting
        double- or under-counted — regression-tested invariant.
        """
        stats = self.stats
        return (
            stats.accepted
            - stats.flushed_records
            - stats.dropped
            - self.buffered
            - self.backlog
        )

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    def admit(self, *uploads, **span_attrs) -> int:
        """:meth:`submit` behind the traced gate: a sampled upload carries
        its trace id downstream (the lineage travels with the data, once
        on each chunk) and submits inside an ``ingest.admit`` span
        tagged ``span_attrs``.  An empty upload takes no sampling slot."""
        n = sum(map(len, uploads))
        if not n:
            return 0
        trace_id = self._tracer.new_trace()
        if trace_id is None:
            return self.submit(*uploads)
        chunks = [
            replace(chunk, trace_id=trace_id) for upload in uploads for chunk in chunks_of(upload)
        ]
        with self._tracer.span(
            "ingest.admit", trace_id=trace_id, **span_attrs, batch=n
        ) as span:
            span.add_records({trace_id: [row[0] for chunk in chunks for row in chunk.rows]})
            return self.submit(*chunks)

    def submit(self, *uploads) -> int:
        """Offer uploads to the gateway; returns how many rows were accepted.

        Each upload is an :class:`~repro.store.columns.UploadChunk` or a
        record list (:func:`~repro.store.columns.chunks_of`).  A chunk
        is one task and one user, so one shard, and each (task, user) is
        hashed once; the chunks' share of each shard is offered to its
        buffer as one, and a full buffer invokes the backpressure policy.
        """
        route: dict[tuple[str, str], int] = {}
        by_shard: dict[int, list[UploadChunk]] = {}
        for upload in uploads:
            for chunk in chunks_of(upload):
                pair = chunk.task, chunk.user
                if pair not in route:
                    route[pair] = self.store.shard_of(*pair)
                by_shard.setdefault(route[pair], []).append(chunk)
        accepted = 0
        for shard_id, part in by_shard.items():
            accepted += self._enqueue(shard_id, part)
        self.stats.accepted += accepted
        return accepted

    def _enqueue(self, shard_id: int, chunks: list[UploadChunk]) -> int:
        shard = self._shards[shard_id]
        buffer = shard.buffer
        n = sum(map(len, chunks))
        if not n:
            return 0
        self.stats.submitted += n
        free = self.buffer_capacity - buffer.size
        if n <= free:
            buffer.push(chunks, n)
        elif self.policy == "reject":
            # Admission control: all-or-nothing, the whole batch bounces.
            self.stats.rejected += n
            return 0
        elif self.policy == "drop-oldest":
            # The policy admits the whole batch and evicts the oldest
            # records to make room — possibly the batch's own head when
            # the batch alone exceeds capacity.  Either way every batch
            # record counts as accepted and every evicted record (from
            # the buffer or the head) as dropped, keeping the counters
            # one-per-record: accepted = flushed + dropped + in flight.
            incoming = _Parts(chunks)
            if n >= self.buffer_capacity:
                self.stats.dropped += buffer.size + n - self.buffer_capacity
                buffer.pop(buffer.size)
                incoming.pop(n - self.buffer_capacity)
            else:
                self.stats.dropped += n - free
                buffer.pop(n - free)
            buffer.push(incoming.pop(incoming.size), min(n, self.buffer_capacity))
        else:  # spill
            incoming = _Parts(chunks)
            buffer.push(incoming.pop(free), free)
            shard.spill.push(incoming.pop(n - free), n - free)
            self.stats.spilled += n - free
        if not shard.pending:
            shard.pending = True
            self._sim.schedule(self.flush_delay, lambda s=shard_id: self._flush(s))
        return n

    # ------------------------------------------------------------------
    # Flush path
    # ------------------------------------------------------------------

    def _flush(self, shard_id: int, rearm: bool = True) -> None:
        shard = self._shards[shard_id]
        shard.pending = False
        parts = shard.buffer.pop(shard.buffer.size)
        # Drain at most one buffer-capacity of spill per flush so one
        # overloaded shard cannot stall the simulator in a single event.
        parts += shard.spill.pop(min(shard.spill.size, self.buffer_capacity))
        if shard.spill.size and rearm:
            shard.pending = True
            self._sim.schedule(self.flush_delay, lambda s=shard_id: self._flush(s))
        if not parts:
            return
        timed = self.obs.registry.enabled
        started = time.perf_counter() if timed else 0.0
        batch = batch_of(parts)
        self.stats.flushes += 1
        self.stats.flushed_records += len(batch)
        self.stats.largest_flush = max(self.stats.largest_flush, len(batch))
        with self._tracer.span("ingest.flush", shard=shard_id, batch=len(batch)) as span:
            if span.span is not None:
                span.add_records(batch.traced_keys())
            self.store.append(batch, ingest_time=self._sim.now, shard=shard_id)
            if self._router is not None:
                self._router(batch)
            for listener in self._listeners:
                listener(batch)
        if timed:
            self.obs.flush_seconds.observe(time.perf_counter() - started)

    def flush_all(self) -> int:
        """Synchronously drain every buffer and spill queue.

        Used at campaign teardown and by bulk loads; returns the number
        of records flushed.  Notifies the router and every flush
        listener identically to a timer-driven flush (same
        :meth:`_flush` path, same ordering, each record delivered
        exactly once — see :data:`FlushListener`); the only difference
        is that the spill queue is drained to empty in one synchronous
        loop instead of one buffer-capacity per scheduled flush.
        """
        total = 0
        for shard_id, shard in enumerate(self._shards):
            while shard.buffer.size or shard.spill.size:
                before = self.stats.flushed_records
                self._flush(shard_id, rearm=False)
                total += self.stats.flushed_records - before
        return total
