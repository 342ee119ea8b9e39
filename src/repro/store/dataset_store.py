"""The columnar dataset store: sharded, append-only, scan-oriented.

Uploads routed through the Hive used to accumulate in unbounded per-task
Python lists; this store replaces that with numpy-backed columnar
segments (``time/lat/lon/value/user``) sharded by ``hash(task, user)``
across N shards.  One task's data therefore spreads over every shard
(parallel ingest, no per-task hot shard) while any single user's data
for a task lives in exactly one shard — so per-user scans touch one
shard and time-range/bbox scans prune whole segments by metadata.

Writes go through :meth:`DatasetStore.append` (typically called by the
:class:`~repro.store.pipeline.IngestPipeline` at flush time with the
flush's :class:`~repro.store.columns.RecordBatch` and its shard; a plain
record list is columnized and routed on entry), which also feeds the
streaming :class:`~repro.store.aggregates.StoreAggregates`.
Sealed segments are immutable; :meth:`DatasetStore.compact` merges a
partition's sealed segments into one time-sorted run.
"""

from __future__ import annotations

import time as _time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.errors import StoreError
from repro.obs.instruments import StoreInstruments
from repro.store.aggregates import StoreAggregates, TaskAggregate
from repro.store.columns import RecordBatch, columnize, group_rows
from repro.store.segment import Segment, SegmentBuilder, merge_segments

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.apisense.device import SensorRecord


def shard_of(task: str, user: str, n_shards: int) -> int:
    """Deterministic shard routing (stable across processes and runs)."""
    key = f"{task}\x00{user}".encode()
    return zlib.crc32(key) % n_shards


@dataclass
class ColumnarBatch:
    """The result of one scan: five parallel column arrays.

    ``user_id`` indexes into ``user_table`` (the store's interning
    table); :meth:`user_names` decodes it when string ids are needed.
    """

    time: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    value: np.ndarray
    user_id: np.ndarray
    user_table: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.time)

    def user_names(self) -> list[str]:
        return [self.user_table[i] for i in self.user_id.tolist()]

    def rows(self) -> Iterator[tuple[str, float, float, float, float]]:
        """Iterate ``(user, time, lat, lon, value)`` rows (CSV export)."""
        for i in range(len(self.time)):
            yield (
                self.user_table[int(self.user_id[i])],
                float(self.time[i]),
                float(self.lat[i]),
                float(self.lon[i]),
                float(self.value[i]),
            )


@dataclass(frozen=True)
class ShardStats:
    """Size counters of one shard."""

    shard: int
    records: int
    segments: int
    sealed_segments: int
    tasks: int


@dataclass(frozen=True)
class StoreStats:
    """Size counters of the whole store."""

    n_shards: int
    records: int
    segments: int
    sealed_segments: int
    tasks: int
    users: int
    per_shard: tuple[ShardStats, ...] = field(default_factory=tuple)

    def to_text(self) -> str:
        lines = [
            f"store: {self.records} records, {self.segments} segments "
            f"({self.sealed_segments} sealed) across {self.n_shards} shards, "
            f"{self.tasks} tasks, {self.users} users"
        ]
        for shard in self.per_shard:
            lines.append(
                f"  shard {shard.shard}: {shard.records} records in "
                f"{shard.segments} segments ({shard.tasks} tasks)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction pass achieved."""

    segments_before: int
    segments_after: int
    records: int
    partitions_compacted: int


class _Partition:
    """One (shard, task) partition: an open builder + sealed segments."""

    def __init__(self, segment_capacity: int):
        self._capacity = segment_capacity
        self.open = SegmentBuilder(segment_capacity)
        self.sealed: list[Segment] = []
        self.records = 0

    def append_columns(
        self,
        time: np.ndarray,
        lat: np.ndarray,
        lon: np.ndarray,
        value: np.ndarray,
        user_id: np.ndarray,
    ) -> None:
        n = len(time)
        start = 0
        while start < n:
            if self.open.full:
                self.sealed.append(self.open.seal())
                self.open = SegmentBuilder(self._capacity)
            stop = min(n, start + self.open.remaining)
            self.open.append(time, lat, lon, value, user_id, start, stop)
            start = stop
        self.records += n

    def segments(self) -> Iterator[Segment]:
        yield from self.sealed
        if self.open.size:
            yield self.open.as_segment()

    def seal_open(self) -> None:
        if self.open.size:
            self.sealed.append(self.open.seal())
            self.open = SegmentBuilder(self._capacity)

    def compact(self) -> tuple[int, int]:
        """Merge sealed segments; returns (segments_before, after)."""
        self.seal_open()
        before = len(self.sealed)
        if before > 1:
            self.sealed = [merge_segments(self.sealed)]
        return before, len(self.sealed)

    @property
    def n_segments(self) -> int:
        return len(self.sealed) + (1 if self.open.size else 0)


class _Shard:
    """One shard: partitions keyed by task."""

    def __init__(self, shard_id: int, segment_capacity: int):
        self.shard_id = shard_id
        self._capacity = segment_capacity
        self.partitions: dict[str, _Partition] = {}
        self.records = 0

    def partition(self, task: str) -> _Partition:
        if task not in self.partitions:
            self.partitions[task] = _Partition(self._capacity)
        return self.partitions[task]


class DatasetStore:
    """Append-only columnar storage for collected sensing data."""

    def __init__(
        self,
        n_shards: int = 4,
        segment_capacity: int = 4096,
        coverage_cell_deg: float = 0.005,
    ):
        if n_shards <= 0:
            raise StoreError(f"shard count must be positive: {n_shards}")
        if segment_capacity <= 0:
            raise StoreError(f"segment capacity must be positive: {segment_capacity}")
        self.n_shards = n_shards
        self.segment_capacity = segment_capacity
        self._shards = [_Shard(i, segment_capacity) for i in range(n_shards)]
        self._user_ids: dict[str, int] = {}
        self._user_table: list[str] = []
        self.aggregates = StoreAggregates(cell_deg=coverage_cell_deg)
        self.obs = StoreInstruments(obs.metrics_registry(), obs.next_instance("store"))
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    # Routing / identity
    # ------------------------------------------------------------------

    def shard_of(self, task: str, user: str) -> int:
        return shard_of(task, user, self.n_shards)

    def _intern_user(self, user: str) -> int:
        uid = self._user_ids.get(user)
        if uid is None:
            uid = self._user_ids[user] = len(self._user_table)
            self._user_table.append(user)
        return uid

    @property
    def users(self) -> list[str]:
        return list(self._user_table)

    @property
    def tasks(self) -> list[str]:
        names: dict[str, None] = {}
        for shard in self._shards:
            for task in shard.partitions:
                names[task] = None
        return list(names)

    @property
    def n_records(self) -> int:
        return sum(shard.records for shard in self._shards)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def append(
        self,
        records: "Sequence[SensorRecord] | RecordBatch",
        ingest_time: float | None = None,
        shard: int | None = None,
    ) -> int:
        """Append a batch of records, each to its shard's task partition.

        ``shard`` is the pipeline's flush saying which shard all of the
        batch routes to (it hashed each upload's (task, user) at
        admission); without it every distinct (task, user) is routed
        here.  ``ingest_time`` (the simulation clock at flush) drives
        the freshness/lag aggregates; ``None`` (bulk loads) skips them.
        Returns the number of records appended.
        """
        batch = columnize(records)
        if not len(batch):
            return 0
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        with self._tracer.span("store.append", batch=len(batch)) as span:
            if span.span is not None:
                span.add_records(batch.traced_keys())
            user_id = np.array(
                [self._intern_user(user) for user in batch.users], dtype=np.int64
            )[batch.user_index]
            shards = self._route(batch) if shard is None else shard
            # One contiguous column run per (shard, task) partition.
            n_tasks = len(batch.tasks)
            keys = shards * n_tasks + batch.task_index
            for rows in group_rows(keys):
                shard_id, task_code = divmod(int(keys[rows[0]]), n_tasks)
                task = batch.tasks[task_code]
                time, lat, lon = batch.time[rows], batch.lat[rows], batch.lon[rows]
                users = user_id[rows]
                target = self._shards[shard_id]
                target.partition(task).append_columns(
                    time, lat, lon, batch.value[rows], users
                )
                target.records += len(rows)
                self.aggregates.update(task, time, lat, lon, users, ingest_time)
        self.obs.records_appended.inc(len(batch))
        if timed:
            self.obs.append_seconds.observe(_time.perf_counter() - started)
        return len(batch)

    def _route(self, batch: RecordBatch) -> np.ndarray:
        """Per-record shard ids, hashing each distinct (task, user) once."""
        n_users = len(batch.users)
        pairs, inverse = np.unique(
            batch.task_index * n_users + batch.user_index, return_inverse=True
        )
        routed = [
            self.shard_of(batch.tasks[pair // n_users], batch.users[pair % n_users])
            for pair in pairs.tolist()
        ]
        return np.array(routed, dtype=np.int64)[inverse]

    # ------------------------------------------------------------------
    # Scan path
    # ------------------------------------------------------------------

    def scan(
        self,
        task: str,
        t0: float | None = None,
        t1: float | None = None,
        bbox: "object | tuple[float, float, float, float] | None" = None,
        user: str | None = None,
    ) -> ColumnarBatch:
        """Filtered columnar scan of one task's data.

        Filters compose (AND).  ``t0``/``t1`` select ``t0 <= time < t1``;
        ``bbox`` is a :class:`~repro.geo.bbox.BoundingBox` or a
        ``(south, west, north, east)`` tuple and matches only records
        with a GPS fix; ``user`` narrows the scan to the single shard
        owning that (task, user) pair.
        """
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        try:
            return self._scan(task, t0, t1, bbox, user)
        finally:
            self.obs.scans.inc()
            if timed:
                self.obs.scan_seconds.observe(_time.perf_counter() - started)

    def _scan(
        self,
        task: str,
        t0: float | None = None,
        t1: float | None = None,
        bbox: "object | tuple[float, float, float, float] | None" = None,
        user: str | None = None,
    ) -> ColumnarBatch:
        box = self._unpack_bbox(bbox)
        if user is not None:
            shards: Iterable[_Shard] = (self._shards[self.shard_of(task, user)],)
            want_uid = self._user_ids.get(user)
            if want_uid is None:
                return self._empty_batch()
        else:
            shards = self._shards
            want_uid = None

        pieces: list[tuple[np.ndarray, ...]] = []
        for shard in shards:
            partition = shard.partitions.get(task)
            if partition is None:
                continue
            for segment in partition.segments():
                if not segment.overlaps_time(t0, t1):
                    continue
                if box is not None and not segment.overlaps_bbox(*box):
                    continue
                mask = np.ones(len(segment), dtype=bool)
                if t0 is not None:
                    mask &= segment.time >= t0
                if t1 is not None:
                    mask &= segment.time < t1
                if box is not None:
                    south, west, north, east = box
                    mask &= (
                        (segment.lat >= south)
                        & (segment.lat <= north)
                        & (segment.lon >= west)
                        & (segment.lon <= east)
                    )
                if want_uid is not None:
                    mask &= segment.user_id == want_uid
                if mask.any():
                    pieces.append(
                        (
                            segment.time[mask],
                            segment.lat[mask],
                            segment.lon[mask],
                            segment.value[mask],
                            segment.user_id[mask],
                        )
                    )
        if not pieces:
            return self._empty_batch()
        return ColumnarBatch(
            time=np.concatenate([p[0] for p in pieces]),
            lat=np.concatenate([p[1] for p in pieces]),
            lon=np.concatenate([p[2] for p in pieces]),
            value=np.concatenate([p[3] for p in pieces]),
            user_id=np.concatenate([p[4] for p in pieces]),
            user_table=tuple(self._user_table),
        )

    def scan_time(self, task: str, t0: float, t1: float) -> ColumnarBatch:
        return self.scan(task, t0=t0, t1=t1)

    def scan_bbox(self, task: str, bbox) -> ColumnarBatch:
        return self.scan(task, bbox=bbox)

    def scan_user(self, task: str, user: str) -> ColumnarBatch:
        return self.scan(task, user=user)

    @staticmethod
    def _unpack_bbox(bbox) -> tuple[float, float, float, float] | None:
        if bbox is None:
            return None
        if hasattr(bbox, "south"):
            return (bbox.south, bbox.west, bbox.north, bbox.east)
        south, west, north, east = bbox
        return (float(south), float(west), float(north), float(east))

    def _empty_batch(self) -> ColumnarBatch:
        empty = np.empty(0, dtype=np.float64)
        return ColumnarBatch(
            time=empty,
            lat=empty,
            lon=empty,
            value=empty,
            user_id=np.empty(0, dtype=np.int64),
            user_table=tuple(self._user_table),
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def seal(self) -> None:
        """Seal every non-empty open segment (pre-compaction / snapshot)."""
        for shard in self._shards:
            for partition in shard.partitions.values():
                partition.seal_open()

    def compact(self, task: str | None = None) -> CompactionReport:
        """Merge sealed segments per partition into one time-sorted run."""
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        before = after = compacted = records = 0
        for shard in self._shards:
            for name, partition in shard.partitions.items():
                if task is not None and name != task:
                    continue
                b, a = partition.compact()
                before += b
                after += a
                records += partition.records
                if b > a:
                    compacted += 1
        self.obs.compactions.inc()
        if timed:
            self.obs.compact_seconds.observe(_time.perf_counter() - started)
        return CompactionReport(
            segments_before=before,
            segments_after=after,
            records=records,
            partitions_compacted=compacted,
        )

    def stats(self) -> StoreStats:
        per_shard = tuple(
            ShardStats(
                shard=shard.shard_id,
                records=shard.records,
                segments=sum(p.n_segments for p in shard.partitions.values()),
                sealed_segments=sum(len(p.sealed) for p in shard.partitions.values()),
                tasks=len(shard.partitions),
            )
            for shard in self._shards
        )
        return StoreStats(
            n_shards=self.n_shards,
            records=self.n_records,
            segments=sum(s.segments for s in per_shard),
            sealed_segments=sum(s.sealed_segments for s in per_shard),
            tasks=len(self.tasks),
            users=len(self._user_table),
            per_shard=per_shard,
        )

    def aggregate(self, task: str) -> TaskAggregate:
        """The streaming aggregate view of one task."""
        return self.aggregates.task(task)
