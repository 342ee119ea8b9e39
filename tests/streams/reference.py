"""The per-record flush path and the per-group fold, kept as oracles.

Before the columnar batch, every tier walked the flushed records itself:
``DatasetStore.append`` hashed each record to its shard and filled its
columns one element at a time, ``StreamEngine.on_flush`` looked up one
pane per record and ``PaneStats.update`` fed the sketches one value at a
time.  Those loops live on here, on top of the real window-close and
scan machinery, so ``test_columnar_equivalence`` can require the
columnar path to leave the same store, panes, windows and trace paths.

Between the columnar batch and the one keyed fold, the engine folded
each (task, pane) group of a flush with its own numpy calls
(``OracleEngine._fold``, ``OraclePane.update_columns``) and the store
kept a second summary type (``OracleAggregate``, users as interned ids,
no values); ``test_fold_differential`` holds the keyed fold to them.

One deliberate difference from the loops as they were: "the record's
scalar value" is any ``numbers.Real`` that is not a ``bool``, where the
old code tested ``isinstance(item, (int, float))`` and so dropped numpy
scalars.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from repro.geo.point import GeoPoint
from repro.store import DatasetStore, QuantileSketch
from repro.store.columns import group_rows
from repro.store.quantiles import reading
from repro.streams import PaneStats, StreamEngine
from tests.store.reference import ReferenceSketch


def scalar_of(values) -> float | None:
    for name, item in values.items():
        if name == "gps" or isinstance(item, bool):
            continue
        if isinstance(item, Real):
            return float(item)
    return None


def traced_keys(records) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for record in records:
        if record.trace_id is not None:
            out.setdefault(record.trace_id, []).append(record.time)
    return out


class ReferenceStore(DatasetStore):
    """``append`` routes and columnizes record by record; each task's
    records of a flush update its :class:`OracleAggregate` at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle_aggregates: dict[str, OracleAggregate] = {}

    def append(self, records, ingest_time=None, shard=None) -> int:
        if not len(records):
            return 0
        with self._tracer.span("store.append", batch=len(records)) as span:
            if span.span is not None:
                span.add_records(traced_keys(records))
            groups: dict[tuple[int, str], list] = {}
            per_task: dict[str, list] = {}
            for record in records:
                key = (self.shard_of(record.task, record.user), record.task)
                groups.setdefault(key, []).append(record)
                per_task.setdefault(record.task, []).append(record)
            for (shard_id, task), group in groups.items():
                columns = self._columnize(group)
                target = self._shards[shard_id]
                target.partition(task).append_columns(*columns)
                target.records += len(group)
            for task, group in per_task.items():
                time, lat, lon, _value, user_id = self._columnize(group)
                aggregate = self.oracle_aggregates.setdefault(
                    task, OracleAggregate(task, self.aggregates.cell_deg)
                )
                aggregate.update(time, lat, lon, user_id, ingest_time)
        return len(records)

    def aggregate(self, task: str) -> "OracleAggregate":
        return self.oracle_aggregates[task]

    def _columnize(self, records):
        n = len(records)
        time = np.empty(n, dtype=np.float64)
        lat = np.full(n, np.nan, dtype=np.float64)
        lon = np.full(n, np.nan, dtype=np.float64)
        value = np.full(n, np.nan, dtype=np.float64)
        user_id = np.empty(n, dtype=np.int64)
        for i, record in enumerate(records):
            time[i] = record.time
            user_id[i] = self._users.setdefault(record.user, len(self._users))
            gps = record.values.get("gps")
            if isinstance(gps, GeoPoint):
                lat[i] = gps.lat
                lon[i] = gps.lon
            scalar = scalar_of(record.values)
            if scalar is not None:
                value[i] = scalar
        return time, lat, lon, value, user_id


class ReferencePane(PaneStats):
    """``update`` absorbs one record; sketches take one value per call."""

    def __init__(self, start: float, end: float):
        super().__init__(start, end)
        self.value_sketch = ReferenceSketch()
        self.lag_sketch = ReferenceSketch()

    def update(self, user, cell, value, lag) -> None:
        self.records += 1
        self.user_counts[user] = self.user_counts.get(user, 0) + 1
        if cell is not None:
            self.cells.add(cell)
        if value is not None and math.isfinite(value):
            self.value_count += 1
            self.value_sum += value
            self.value_sketch.extend((value,))
        if lag is not None:
            self.lag_sketch.extend((lag,))


class ReferenceEngine(StreamEngine):
    """``on_flush`` assigns panes and cells record by record."""

    def on_flush(self, records) -> None:
        self.stats.records_seen += len(records)
        if not self._views:
            return
        pane = self.pane_seconds
        closed_edge = self._closed_pane * pane
        max_seen = self._max_event_time
        tracing = self._tracer.enabled
        for record in records:
            t = record.time
            if t > max_seen:
                max_seen = t
            if t < closed_edge:
                self.stats.late_records += 1
                continue
            self._tasks.add(record.task)
            index = int(t // pane)
            panes = self._panes.setdefault(record.task, {})
            stats = panes.get(index)
            if stats is None:
                stats = panes[index] = ReferencePane(index * pane, (index + 1) * pane)
            cell = None
            gps = record.values.get("gps")
            if isinstance(gps, GeoPoint):
                cell = (
                    self.grid.cell_of(gps)
                    if self.grid is not None
                    else (
                        math.floor(gps.lat / self.cell_deg),
                        math.floor(gps.lon / self.cell_deg),
                    )
                )
            lag = None
            if self._sim is not None:
                lag = max(0.0, self._sim.now - t)
            stats.update(record.user, cell, scalar_of(record.values), lag)
            if tracing and record.trace_id is not None:
                pane_traces = self._traced_panes.setdefault((record.task, index), {})
                pane_traces.setdefault(record.trace_id, []).append(t)
        self._max_event_time = max_seen
        self._close_ready_panes()


# ----------------------------------------------------------------------
# The per-group fold, as it was before the one keyed fold
# ----------------------------------------------------------------------


def oracle_cells(lat, lon, cell_deg, grid=None):
    """``(row, col)`` of every fix, as ``cells_of`` returned them."""
    if grid is not None:
        rows, cols = grid.cells_of(lat, lon)
    else:
        rows = np.floor(lat / cell_deg).astype(np.int64)
        cols = np.floor(lon / cell_deg).astype(np.int64)
    return zip(rows.tolist(), cols.tolist())


class OraclePane(PaneStats):
    """A pane fed one group at a time."""

    def update_columns(self, users, counts, cells, values, lags) -> None:
        self.records += sum(counts)
        for user, count in zip(users, counts):
            self.user_counts[user] = self.user_counts.get(user, 0) + count
        self.cells.update(cells)
        self.value_count += len(values)
        self.value_sum += float(values.sum())
        self.value_sketch.extend(values)
        if lags is not None:
            self.lag_sketch.extend(lags)


class OracleEngine(StreamEngine):
    """``_fold`` runs numpy calls per (task, pane) group."""

    def _fold(self, batch, live) -> None:
        pane = self.pane_seconds
        pane_index = (batch.time // pane).astype(np.int64)
        lags = None if self._sim is None else np.maximum(0.0, self._sim.now - batch.time)
        fix = ~np.isnan(batch.lat)
        has_value = np.isfinite(batch.value)
        keys = batch.task_index * (int(pane_index.max()) + 1) + pane_index
        for rows in group_rows(keys[live]):
            rows = live[rows]
            task = batch.tasks[batch.task_index[rows[0]]]
            index = int(pane_index[rows[0]])
            self._tasks.add(task)
            panes = self._panes.setdefault(task, {})
            stats = panes.get(index)
            if stats is None:
                stats = panes[index] = OraclePane(index * pane, (index + 1) * pane)
            counts = np.bincount(batch.user_index[rows])
            users = np.flatnonzero(counts)
            located = rows[fix[rows]]
            stats.update_columns(
                [batch.users[code] for code in users.tolist()],
                counts[users].tolist(),
                oracle_cells(batch.lat[located], batch.lon[located], self.cell_deg, self.grid),
                batch.value[rows[has_value[rows]]],
                None if lags is None else lags[rows],
            )


class OracleAggregate:
    """The store's per-task aggregate as its own type: users as interned
    ids, cells, fixes, time span and lags, but no values."""

    def __init__(self, task: str, cell_deg: float):
        self.task = task
        self.cell_deg = cell_deg
        self.records = 0
        self.gps_records = 0
        self.first_time: float | None = None
        self.last_time: float | None = None
        self.user_ids: set[int] = set()
        self.cells: set[tuple[int, int]] = set()
        self.lag_count = 0
        self.lag_sum = 0.0
        self.lag_max = 0.0
        self.lag_sketch = QuantileSketch()

    @property
    def lag_p50(self) -> float:
        return reading(self.lag_sketch, 0.50)

    @property
    def lag_p95(self) -> float:
        return reading(self.lag_sketch, 0.95)

    @property
    def lag_p99(self) -> float:
        return reading(self.lag_sketch, 0.99)

    def update(self, time, lat, lon, user_id, ingest_time) -> None:
        n = len(time)
        if n == 0:
            return
        self.records += n
        batch_min = float(np.min(time))
        batch_max = float(np.max(time))
        self.first_time = batch_min if self.first_time is None else min(self.first_time, batch_min)
        self.last_time = batch_max if self.last_time is None else max(self.last_time, batch_max)
        self.user_ids.update(np.unique(user_id).tolist())
        fix = ~np.isnan(lat)
        n_fix = int(np.count_nonzero(fix))
        if n_fix:
            self.gps_records += n_fix
            self.cells.update(oracle_cells(lat[fix], lon[fix], self.cell_deg))
        if ingest_time is not None:
            lags = np.maximum(0.0, ingest_time - time)
            self.lag_count += n
            self.lag_sum += float(np.sum(lags))
            self.lag_max = max(self.lag_max, float(np.max(lags)))
            self.lag_sketch.extend(lags[np.isfinite(lags)])
