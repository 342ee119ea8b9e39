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

At flush time the batch is columnized once
(:func:`~repro.store.columns.columnize`), appended to the
:class:`~repro.store.dataset_store.DatasetStore` (which updates the
streaming aggregates) and handed, as the same
:class:`~repro.store.columns.RecordBatch`, to every registered listener
— the Hive's Honeycomb routing above all.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.errors import StoreError
from repro.obs.instruments import PipelineInstruments
from repro.simulation import Simulator
from repro.store.columns import RecordBatch, columnize
from repro.store.dataset_store import DatasetStore

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.apisense.device import SensorRecord

#: Backpressure policies, in the order the paper-style gateway offers them.
POLICIES = ("drop-oldest", "reject", "spill")

#: Listener signature: receives one shard flush as a
#: :class:`~repro.store.columns.RecordBatch` — a sequence of the flushed
#: records (``len``, iteration and indexing give ``SensorRecord``\ s in
#: record order) that also carries their ``time/lat/lon/value`` columns
#: and task/user codes.  The pipeline columnizes a flush once
#: (:func:`~repro.store.columns.columnize`, the one reader of
#: ``SensorRecord.values``) and the store, the router and every
#: listener share that batch; treat it as read-only.  Whatever a
#: consumer folds per task, pane or user, it observes a flush's records
#: in record order.
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


class _ShardBuffer:
    """Bounded buffer + spill queue + pending-flush flag of one shard."""

    __slots__ = ("buffer", "spill", "pending")

    def __init__(self) -> None:
        self.buffer: deque[SensorRecord] = deque()
        self.spill: deque[SensorRecord] = deque()
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
        self.obs = PipelineInstruments(
            obs.metrics_registry(), obs.next_instance("pipeline"), self.stats
        )
        self._tracer = obs.tracer()

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
        return sum(len(s.buffer) for s in self._shards)

    @property
    def backlog(self) -> int:
        """Records parked in spill queues (``spill`` policy only)."""
        return sum(len(s.spill) for s in self._shards)

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

    def submit(self, records: Sequence[SensorRecord]) -> int:
        """Offer a batch to the gateway; returns how many were accepted.

        Records are routed to their shard buffers; a full buffer invokes
        the backpressure policy.  Device upload batches are homogeneous
        (one task, one user → one shard) but heterogeneous batches are
        handled too.
        """
        if not records:
            return 0
        self.stats.submitted += len(records)
        # One hash per distinct (task, user), not per record.
        pairs = {(record.task, record.user) for record in records}
        route = {pair: self.store.shard_of(*pair) for pair in pairs}
        by_shard: dict[int, list[SensorRecord]] = {}
        for record in records:
            by_shard.setdefault(route[record.task, record.user], []).append(record)
        accepted = 0
        for shard_id, batch in by_shard.items():
            accepted += self._enqueue(shard_id, batch)
        self.stats.accepted += accepted
        return accepted

    def _enqueue(self, shard_id: int, batch: list[SensorRecord]) -> int:
        shard = self._shards[shard_id]
        free = self.buffer_capacity - len(shard.buffer)
        accepted = 0
        if len(batch) <= free:
            shard.buffer.extend(batch)
            accepted = len(batch)
        elif self.policy == "reject":
            # Admission control: all-or-nothing, the whole batch bounces.
            self.stats.rejected += len(batch)
            return 0
        elif self.policy == "drop-oldest":
            # The policy admits the whole batch and evicts the oldest
            # records to make room — possibly the batch's own head when
            # the batch alone exceeds capacity.  Either way every batch
            # record counts as accepted and every evicted record (from
            # the buffer or the head) as dropped, keeping the counters
            # one-per-record: accepted = flushed + dropped + in flight.
            keep = batch
            if len(batch) >= self.buffer_capacity:
                evicted = len(shard.buffer) + len(batch) - self.buffer_capacity
                self.stats.dropped += evicted
                shard.buffer.clear()
                keep = batch[-self.buffer_capacity :]
            else:
                overflow = len(batch) - free
                for _ in range(overflow):
                    shard.buffer.popleft()
                self.stats.dropped += overflow
            shard.buffer.extend(keep)
            accepted = len(batch)
        else:  # spill
            head, tail = batch[:free], batch[free:]
            shard.buffer.extend(head)
            shard.spill.extend(tail)
            self.stats.spilled += len(tail)
            accepted = len(batch)
        if accepted and not shard.pending:
            shard.pending = True
            self._sim.schedule(self.flush_delay, lambda s=shard_id: self._flush(s))
        return accepted

    # ------------------------------------------------------------------
    # Flush path
    # ------------------------------------------------------------------

    def _flush(self, shard_id: int, rearm: bool = True) -> None:
        shard = self._shards[shard_id]
        shard.pending = False
        records = list(shard.buffer)
        shard.buffer.clear()
        # Drain at most one buffer-capacity of spill per flush so one
        # overloaded shard cannot stall the simulator in a single event.
        drain = min(len(shard.spill), self.buffer_capacity)
        for _ in range(drain):
            records.append(shard.spill.popleft())
        if shard.spill and rearm:
            shard.pending = True
            self._sim.schedule(self.flush_delay, lambda s=shard_id: self._flush(s))
        if not records:
            return
        self.stats.flushes += 1
        self.stats.flushed_records += len(records)
        self.stats.largest_flush = max(self.stats.largest_flush, len(records))
        timed = self.obs.registry.enabled
        started = time.perf_counter() if timed else 0.0
        batch = columnize(records)
        with self._tracer.span("ingest.flush", shard=shard_id, batch=len(records)) as span:
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
            while shard.buffer or shard.spill:
                before = self.stats.flushed_records
                self._flush(shard_id, rearm=False)
                total += self.stats.flushed_records - before
        return total
