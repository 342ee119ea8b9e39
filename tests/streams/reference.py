"""The per-record flush path, kept as the columnar path's oracle.

Before the columnar batch, every tier walked the flushed records itself:
``DatasetStore.append`` hashed each record to its shard and filled its
columns one element at a time, ``StreamEngine.on_flush`` looked up one
pane per record and ``PaneStats.update`` fed the sketches one value at a
time.  Those loops live on here, on top of the real window-close and
scan machinery, so ``test_columnar_equivalence`` can require the
columnar path to leave the same store, panes, windows and trace paths.

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
from repro.store import DatasetStore
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
    """``append`` routes and columnizes record by record."""

    def append(self, records, ingest_time=None, shard=None) -> int:
        if not len(records):
            return 0
        with self._tracer.span("store.append", batch=len(records)) as span:
            if span.span is not None:
                span.add_records(traced_keys(records))
            groups: dict[tuple[int, str], list] = {}
            for record in records:
                key = (self.shard_of(record.task, record.user), record.task)
                groups.setdefault(key, []).append(record)
            for (shard_id, task), group in groups.items():
                columns = self._columnize(group)
                target = self._shards[shard_id]
                target.partition(task).append_columns(*columns)
                target.records += len(group)
                time, lat, lon, _value, user_id = columns
                self.aggregates.update(task, time, lat, lon, user_id, ingest_time)
        return len(records)

    def _columnize(self, records):
        n = len(records)
        time = np.empty(n, dtype=np.float64)
        lat = np.full(n, np.nan, dtype=np.float64)
        lon = np.full(n, np.nan, dtype=np.float64)
        value = np.full(n, np.nan, dtype=np.float64)
        user_id = np.empty(n, dtype=np.int64)
        for i, record in enumerate(records):
            time[i] = record.time
            user_id[i] = self._intern_user(record.user)
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
