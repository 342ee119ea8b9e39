"""One flush as columns, built once from whatever the uploads were.

A sample is one ``(time, lat, lon, value)`` row (:func:`row_of`).  A
device keeps its samples as rows and uploads them as one
:class:`UploadChunk` (one device, task and user); a gateway client may
upload :class:`~repro.apisense.device.SensorRecord` lists instead.  The
ingest pipeline builds each shard flush once (:func:`batch_of`, the one
batch builder: record lists are read by :func:`row_of` in one pass over
their concatenation, chunks are concatenated) and hands the same
:class:`RecordBatch` to the store, the Hive's router and every flush
listener, so no tier downstream touches a record object to learn its
time, position, scalar value, task or user.  Every column is in row
order; the batch is also a sequence of its records (an upload's rebuilt
from its rows), built only when something reads them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, groupby
from numbers import Real
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.geo.point import GeoPoint

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.apisense.device import SensorRecord
    from repro.geo.grid import SpatialGrid

NAN = float("nan")

#: The packed cell of a row without a fix (:meth:`RecordBatch.cells`);
#: a fix packs to it only at cell sizes under 4e-8 degrees.
NO_CELL = np.iinfo(np.int64).min

#: One sample: ``(time, lat, lon, value)``.
Row = tuple[float, float, float, float]


def row_of(time: float, values: Mapping[str, object]) -> Row:
    """The row of a sample taken at ``time`` with ``values``.

    ``lat``/``lon`` come from a ``gps`` :class:`GeoPoint` (NaN without
    one); ``value`` is the first real number (Python or numpy scalar,
    never a ``bool``) among the other values (NaN without one).
    """
    gps = values.get("gps")
    if isinstance(gps, GeoPoint):
        lat, lon = gps.lat, gps.lon
    else:
        lat = lon = NAN
    for name, item in values.items():
        if name != "gps" and (
            type(item) is float or (isinstance(item, Real) and not isinstance(item, bool))
        ):
            return time, lat, lon, float(item)
    return time, lat, lon, NAN


def _rows_array(rows: Sequence[Row]) -> np.ndarray:
    """``rows`` as one ``(n, 4)`` float64 array."""
    flat = np.fromiter(chain.from_iterable(rows), np.float64, 4 * len(rows))
    return flat.reshape(-1, 4)


@dataclass(frozen=True, eq=False)
class UploadChunk:
    """One device upload as columns: one device, task and user.

    ``rows`` is ``(n, 4)`` float64, the device's ``(time, lat, lon,
    value)`` rows in the order it kept them.  The gateway stamps a
    sampled upload's ``trace_id`` once, on the chunk.  As a sequence the
    chunk reads as records (:class:`~repro.apisense.device.SensorRecord`)
    rebuilt from its rows, values ``gps`` and ``value`` only, built on
    first read.
    """

    device_id: str
    user: str
    task: str
    rows: np.ndarray
    trace_id: int | None = None

    @classmethod
    def of(cls, device_id: str, user: str, task: str, rows: Sequence[Row]) -> "UploadChunk":
        return cls(device_id, user, task, _rows_array(rows))

    @property
    def time(self) -> np.ndarray:
        return self.rows[:, 0]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(self, rows=self.rows[index])
        return self.records[index]

    def __iter__(self) -> Iterator[SensorRecord]:
        return iter(self.records)

    @cached_property
    def records(self) -> list[SensorRecord]:
        from repro.apisense.device import SensorRecord

        head = (self.device_id, self.user, self.task)
        out = []
        for time, lat, lon, value in self.rows.tolist():
            values: dict[str, object] = {}
            if lat == lat:
                values["gps"] = GeoPoint(lat, lon)
            if value == value:
                values["value"] = value
            out.append(SensorRecord(*head, time, values, self.trace_id))
        return out


@dataclass(frozen=True, eq=False)
class RecordBatch(Sequence):
    """Rows of ``time/lat/lon/value`` columns plus task/user codes.

    ``lat``/``lon`` are NaN without a ``gps`` fix and ``value`` is NaN
    without a scalar.  ``task_index``/``user_index`` index ``tasks``/
    ``users``, the batch's distinct names in first-appearance order.
    ``parts`` are what the batch was built from, in row order.

    The columns more than one tier derives from a flush (the ingest
    lags at a clock reading, the cell of every fix at a cell size or
    grid) are computed once per batch, by whichever tier reads them
    first, and shared by the rest.
    """

    parts: tuple
    time: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    value: np.ndarray
    tasks: list[str]
    task_index: np.ndarray
    users: list[str]
    user_index: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self) -> Iterator[SensorRecord]:
        return iter(self.records)

    @cached_property
    def records(self) -> list[SensorRecord]:
        """The records of every row: a record list's own, an upload
        chunk's rebuilt from its rows."""
        if len(self.parts) == 1 and isinstance(self.parts[0], list):
            return self.parts[0]
        return [record for part in self.parts for record in part]

    def select(self, rows: np.ndarray) -> Sequence[SensorRecord]:
        """The records of ``rows``, built only when read."""
        return _Selection(self, rows)

    @cached_property
    def task_groups(self) -> list[np.ndarray]:
        """:func:`group_rows` of ``task_index``: the rows of each task,
        shared by the store's append and the Hive's router."""
        return group_rows(self.task_index)

    def _derive(self, key: tuple, make: Callable[[], np.ndarray]) -> np.ndarray:
        if key not in self._derived:
            self._derived[key] = make()
        return self._derived[key]

    def lags(self, now: float | None) -> np.ndarray:
        """Each row's ingest lag at clock reading ``now`` (0 for a future
        row; NaN, untracked, without a clock)."""
        if now is None:
            return self._derive(("lags", now), lambda: np.full(len(self), NAN))
        return self._derive(("lags", now), lambda: np.maximum(0.0, now - self.time))

    def cells(self, cell_deg: float, grid: "SpatialGrid | None" = None) -> np.ndarray:
        """Each row's packed cell (:func:`cells_of`), :data:`NO_CELL`
        without a fix."""

        def make() -> np.ndarray:
            fix = ~np.isnan(self.lat)
            keys = np.full(len(self), NO_CELL)
            keys[fix] = cells_of(self.lat[fix], self.lon[fix], cell_deg, grid)
            return keys

        return self._derive(("cells", cell_deg, id(grid)), make)

    @cached_property
    def trace_id(self) -> np.ndarray:
        """Per-row trace id, -1 when untraced (built when tracing asks)."""
        ids = [
            np.full(len(part), -1 if part.trace_id is None else part.trace_id)
            if isinstance(part, UploadChunk)
            else np.array([-1 if r.trace_id is None else r.trace_id for r in part])
            for part in self.parts
        ]
        return np.concatenate([np.empty(0, np.int64), *ids]).astype(np.int64)

    def traced_keys(self, rows: "np.ndarray | slice" = slice(None)) -> dict[int, list[float]]:
        """``{trace_id: [record times]}`` of the traced records (in ``rows``)."""
        ids, times = self.trace_id[rows], self.time[rows]
        traced = ids >= 0
        out: dict[int, list[float]] = {}
        for tid, t in zip(ids[traced].tolist(), times[traced].tolist()):
            out.setdefault(tid, []).append(t)
        return out


class _Selection(Sequence):
    """Some rows of a batch as a sequence of its records."""

    __slots__ = ("_batch", "_rows")

    def __init__(self, batch: RecordBatch, rows: np.ndarray):
        self._batch = batch
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> SensorRecord:
        return self._batch.records[int(self._rows[index])]


def batch_of(parts: "Iterable[list[SensorRecord] | UploadChunk]") -> RecordBatch:
    """The one batch builder: ``parts`` as one :class:`RecordBatch`.

    Rows come in part order.  Each run of consecutive record lists is
    read in one pass over its concatenation (:func:`row_of` per record);
    upload chunks are concatenated as they are.  Task and user codes
    are assigned walking the rows, so names come in first-appearance
    order.
    """
    parts = tuple(parts)
    tasks: dict[str, int] = {}
    users: dict[str, int] = {}
    rows: list[np.ndarray] = []
    task_index: list[np.ndarray] = [np.empty(0, np.int64)]
    user_index: list[np.ndarray] = [np.empty(0, np.int64)]
    for kind, run in groupby(parts, type):
        if kind is UploadChunk:
            run = list(run)
            sizes = [len(chunk) for chunk in run]
            rows += [chunk.rows for chunk in run]
            task_index.append(np.repeat(codes_of([c.task for c in run], tasks), sizes))
            user_index.append(np.repeat(codes_of([c.user for c in run], users), sizes))
        else:
            records = list(chain.from_iterable(run))
            rows.append(_rows_array([row_of(r.time, r.values) for r in records]))
            task_index.append(codes_of([r.task for r in records], tasks))
            user_index.append(codes_of([r.user for r in records], users))
    columns = np.concatenate(rows).T.copy() if rows else np.empty((4, 0))
    time, lat, lon, value = columns
    return RecordBatch(
        parts=parts,
        time=time,
        lat=lat,
        lon=lon,
        value=value,
        tasks=list(tasks),
        task_index=np.concatenate(task_index),
        users=list(users),
        user_index=np.concatenate(user_index),
    )


def columnize(records: "Iterable[SensorRecord] | UploadChunk") -> RecordBatch:
    """The batch of one record list or upload chunk (:func:`batch_of`);
    a :class:`RecordBatch` passes through."""
    if isinstance(records, RecordBatch):
        return records
    return batch_of([records if isinstance(records, UploadChunk) else list(records)])


def codes_of(names: list[str], table: dict[str, int]) -> np.ndarray:
    """Each name's code in ``table``, new names coded in order of
    appearance (``list(table)`` names the codes)."""
    for name in dict.fromkeys(names):
        table.setdefault(name, len(table))
    return np.fromiter(map(table.__getitem__, names), np.int64, len(names))


def group_rows(codes: np.ndarray) -> list[np.ndarray]:
    """Row indices of each distinct code of a non-empty column.

    Groups come in first-appearance order and rows ascend within one, so
    folding group by group observes every group's records in record
    order.
    """
    order = np.argsort(codes, kind="stable")
    cuts = (np.flatnonzero(np.diff(codes[order])) + 1).tolist()
    groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    return sorted(groups, key=lambda rows: rows[0])


def cells_of(
    lat: np.ndarray, lon: np.ndarray, cell_deg: float, grid: "SpatialGrid | None" = None
) -> np.ndarray:
    """The cell of every fix, ``(row, col)`` packed in one int64
    (:func:`unpack_cells`): ``grid`` cells (clamped to its area) when
    given, else the global ``cell_deg`` lat/lon quantization."""
    if grid is not None:
        rows, cols = grid.cells_of(lat, lon)
    else:
        rows = np.floor(lat / cell_deg).astype(np.int64)
        cols = np.floor(lon / cell_deg).astype(np.int64)
    return (rows << 32) | (cols & 0xFFFFFFFF)


def unpack_cells(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of packed cells: the high and the low 32 bits."""
    return keys >> 32, (keys << 32) >> 32
