"""One summary type for the store's per-task aggregates and the stream's panes.

A :class:`Summary` counts one task's records over a span of event time:
records, users by name, fixes and their distinct cells, finite values
(count, sum, sketch), ingest lags (sum, max, sketch) and the time span.
The store keeps one per task for all time (:class:`StoreAggregates`),
the stream engine one per (task, pane).  Both park each flush's rows
(:class:`Parked`) with the columns the flush derives once, fold many
flushes at a time with one keyed :func:`fold`, and combine summaries
with :meth:`Summary.merge` — counts, sums, user counts and sketch
buckets add and cells union, so every merge is exact.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import StoreError
from repro.store.columns import NO_CELL, RecordBatch, codes_of, unpack_cells
from repro.store.quantiles import QuantileSketch, reading

CellIndex = tuple[int, int]


class Summary:
    """Statistics of one task's records over ``[start, end)`` of event time."""

    __slots__ = ("task", "start", "end", "records", "gps_records", "user_counts",
                 "cells", "value_count", "value_sum", "value_sketch", "lag_sum",
                 "lag_max", "lag_sketch", "first_time", "last_time")

    def __init__(self, start: float = -math.inf, end: float = math.inf, task: str = ""):
        self.task = task
        self.start = start
        self.end = end
        self.records = 0
        self.gps_records = 0
        self.user_counts: dict[str, int] = {}
        self.cells: set[CellIndex] = set()
        self.value_count = 0
        self.value_sum = 0.0
        self.value_sketch = QuantileSketch()
        #: Finite ingest lags; ``lag_max`` is 0 while none were seen.
        self.lag_sum = 0.0
        self.lag_max = 0.0
        self.lag_sketch = QuantileSketch()
        self.first_time: float | None = None
        self.last_time: float | None = None

    @property
    def n_users(self) -> int:
        return len(self.user_counts)

    @property
    def coverage_cells(self) -> int:
        """Distinct spatial cells with a GPS fix."""
        return len(self.cells)

    @property
    def lag_count(self) -> int:
        return len(self.lag_sketch)

    @property
    def lag_mean(self) -> float:
        return self.lag_sum / self.lag_count if self.lag_count else 0.0

    @property
    def lag_p50(self) -> float:
        return reading(self.lag_sketch, 0.50)

    @property
    def lag_p95(self) -> float:
        return reading(self.lag_sketch, 0.95)

    @property
    def lag_p99(self) -> float:
        return reading(self.lag_sketch, 0.99)

    def freshness(self, now: float) -> float:
        """Seconds since the newest record (``inf`` when empty)."""
        if self.last_time is None:
            return float("inf")
        return max(0.0, now - self.last_time)

    def to_text(self) -> str:
        return (
            f"task {self.task}: {self.records} records from {self.n_users} users, "
            f"{self.coverage_cells} coverage cells, "
            f"lag mean/p50/p95 {self.lag_mean:.1f}/{self.lag_p50:.1f}/{self.lag_p95:.1f}s"
        )

    @classmethod
    def merge(cls, parts: Iterable, task: str = "") -> "Summary":
        """One summary of ``parts`` — summaries, or anything with their
        fields (a window snapshot) — every field merged exactly."""
        parts = list(parts)
        merged = cls(task=task)
        for part in parts:
            merged.records += part.records
            merged.gps_records += part.gps_records
            for user, count in part.user_counts.items():
                merged.user_counts[user] = merged.user_counts.get(user, 0) + count
            merged.cells |= part.cells
            merged.value_count += part.value_count
            merged.value_sum += part.value_sum
            merged.lag_sum += part.lag_sum
            merged.lag_max = max(merged.lag_max, part.lag_max)
            merged._span(part.first_time, part.last_time)
        if parts:
            merged.value_sketch = QuantileSketch.merge([p.value_sketch for p in parts])
            merged.lag_sketch = QuantileSketch.merge([p.lag_sketch for p in parts])
        return merged

    def _span(self, first: float | None, last: float | None) -> None:
        if first is not None:
            self.first_time = first if self.first_time is None else min(self.first_time, first)
        if last is not None:
            self.last_time = last if self.last_time is None else max(self.last_time, last)


class Columns(NamedTuple):
    """What :func:`fold` reads of each row."""

    time: np.ndarray
    value: np.ndarray
    #: Packed cells (:meth:`RecordBatch.cells`), ``NO_CELL`` without a fix.
    cells: np.ndarray
    #: Ingest lags, NaN where untracked.
    lags: np.ndarray
    #: Each row's user, as an index into ``names``.
    users: np.ndarray
    names: Sequence[str]


def fold(
    columns: Columns,
    keys: np.ndarray,
    parts: np.ndarray,
    summary_of: Callable[[int], Summary],
) -> None:
    """Fold every row into ``summary_of(key)`` of its ``keys`` entry.

    ``parts`` numbers the flushes the rows came from, non-decreasing in
    row order.  A summary's value and lag sums grow flush by flush, by
    the ``.sum()`` of the finite values and lags of its rows of that
    flush in row order: bit for bit what folding each flush on arrival
    would add.  Everything else (counts, users, cells, sketches, time
    span, largest lag) is reduced per key over all the flushes at once.
    """
    order = keys.argsort(kind="stable")
    key = keys[order]
    head = _heads(key)
    starts = head.nonzero()[0]
    group = head.cumsum() - 1
    split = _heads(key, parts[order])
    piece = split.cumsum() - 1
    summaries = [summary_of(k) for k in key[starts].tolist()]
    n, pieces = len(summaries), int(piece[-1]) + 1
    owners = [summaries[g] for g in group[split].tolist()]
    time = columns.time[order]
    cells = columns.cells[order]
    fix = cells != NO_CELL
    value = columns.value[order]
    finite = np.isfinite(value)
    values = value[finite]
    lag = columns.lags[order]
    tracked = np.isfinite(lag)
    lags = lag[tracked]
    for summary, value_sum, lag_sum in zip(
        owners, _sums(values, piece[finite], pieces), _sums(lags, piece[tracked], pieces)
    ):
        summary.value_sum += value_sum
        summary.lag_sum += lag_sum
    bounds = [*starts.tolist(), len(key)]
    names = columns.names
    pairs, user_counts = np.unique(group * len(names) + columns.users[order], return_counts=True)
    by_group, users = np.divmod(pairs, len(names))
    users, user_counts = list(map(names.__getitem__, users.tolist())), user_counts.tolist()
    cell_rows, cell_cols = (axis.tolist() for axis in unpack_cells(cells[fix]))
    value_at = lag_at = cell_at = user_at = 0
    for summary, start, stop, n_users, fixes, n_values, n_lags, lag_max, first, last in zip(
        summaries,
        bounds,
        bounds[1:],
        np.bincount(by_group, minlength=n).tolist(),
        np.bincount(group[fix], minlength=n).tolist(),
        np.bincount(group[finite], minlength=n).tolist(),
        np.bincount(group[tracked], minlength=n).tolist(),
        np.fmax.reduceat(lag, starts).tolist(),
        np.minimum.reduceat(time, starts).tolist(),
        np.maximum.reduceat(time, starts).tolist(),
    ):
        summary.records += stop - start
        counts, end = summary.user_counts, user_at + n_users
        for user, count in zip(users[user_at:end], user_counts[user_at:end]):
            counts[user] = counts.get(user, 0) + count
        user_at = end
        summary.gps_records += fixes
        end = cell_at + fixes
        summary.cells.update(zip(cell_rows[cell_at:end], cell_cols[cell_at:end]))
        cell_at = end
        summary._span(first, last)
        if n_values:
            summary.value_count += n_values
            summary.value_sketch.extend_finite(values[value_at : value_at + n_values])
            value_at += n_values
        if n_lags:
            summary.lag_max = max(summary.lag_max, lag_max)
            summary.lag_sketch.extend_finite(lags[lag_at : lag_at + n_lags])
            lag_at += n_lags


def _heads(*columns: np.ndarray) -> np.ndarray:
    """Where a run of equal rows of the sorted ``columns`` starts."""
    head = np.zeros(len(columns[0]), dtype=bool)
    head[:1] = True
    for column in columns:
        head[1:] |= column[1:] != column[:-1]
    return head


def _sums(values: np.ndarray, group: np.ndarray, n: int) -> list[float]:
    """Per group of ``n`` (``group`` ascending), the ``.sum()`` of its
    ``values``.

    ``np.add.reduceat`` seeds a segment's sum with its first element
    where ``.sum()`` starts from 0.0; a 0.0 ahead of every group's
    segment makes the two the same additions, so the sums are bit for
    bit what ``.sum()`` of each group gives.
    """
    counts = np.bincount(group, minlength=n)
    padded = np.zeros(len(values) + n)
    padded[np.arange(len(values)) + group + 1] = values
    zeros = counts.cumsum() - counts + np.arange(n)
    return np.add.reduceat(padded, zeros).tolist()


#: Parked rows at which a :class:`Parked` folds them unasked.
PENDING_ROWS = 4096


class Parked:
    """Flushes kept as :class:`Columns` until one :func:`fold` takes them
    all: a fold's numpy calls are paid once for many flushes."""

    def __init__(self) -> None:
        self._parts: list[tuple[np.ndarray, Columns]] = []
        self.rows = 0

    def park(self, keys: np.ndarray, columns: Columns) -> None:
        """Keep the rows of one flush and each row's (non-negative) key."""
        self._parts.append((keys, columns))
        self.rows += len(keys)

    def fold(self, summary_of: Callable[[int], Summary]) -> None:
        """Fold every parked row into ``summary_of(key)``, flush after flush."""
        if not self._parts:
            return
        parts, self._parts, self.rows = self._parts, [], 0
        sizes = [len(keys) for keys, _ in parts]
        keys = np.concatenate([keys for keys, _ in parts])
        flushes = np.repeat(np.arange(len(parts)), sizes)
        *columns, users = (np.concatenate(column) for column in zip(*(c[:5] for _, c in parts)))
        # Each flush codes its users by its own table: recode them by one.
        table: dict[str, int] = {}
        recode = codes_of([name for _, c in parts for name in c.names], table)
        offsets = np.cumsum([0] + [len(c.names) for _, c in parts[:-1]])
        users = recode[users + np.repeat(offsets, sizes)]
        fold(Columns(*columns, users, list(table)), keys, flushes, summary_of)


class StoreAggregates:
    """The all-time :class:`Summary` of each task of one store.

    Every row of a flush, late ones included, is :class:`Parked`, and
    folded when the aggregates are read or :data:`PENDING_ROWS` wait.
    """

    def __init__(self, cell_deg: float = 0.005):
        if cell_deg <= 0:
            raise StoreError(f"coverage cell size must be positive: {cell_deg}")
        self.cell_deg = cell_deg
        self._per_task: dict[str, Summary] = {}
        self._codes: dict[str, int] = {}
        self._parked = Parked()

    @property
    def tasks(self) -> list[str]:
        return list(self._folded())

    def task(self, name: str) -> Summary:
        summary = self._folded().get(name)
        if summary is None:
            raise StoreError(f"no aggregates for unknown task {name!r}")
        return summary

    def get(self, name: str) -> Summary | None:
        return self._folded().get(name)

    def park(self, batch: RecordBatch, ingest_time: float | None) -> None:
        """Park a flush; ``ingest_time`` is the clock at flush (``None``:
        a bulk load, which tracks no lag)."""
        self._parked.park(
            codes_of(batch.tasks, self._codes)[batch.task_index],
            Columns(batch.time, batch.value, batch.cells(self.cell_deg),
                    batch.lags(ingest_time), batch.user_index, batch.users),
        )
        if self._parked.rows >= PENDING_ROWS:
            self._folded()

    def _folded(self) -> dict[str, Summary]:
        tasks = list(self._codes)

        def summary_of(code: int) -> Summary:
            if tasks[code] not in self._per_task:
                self._per_task[tasks[code]] = Summary(task=tasks[code])
            return self._per_task[tasks[code]]

        self._parked.fold(summary_of)
        return self._per_task
