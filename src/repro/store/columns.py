"""One flush as columns, built once from the upload chunks it holds.

A sample is one ``(time, lat, lon, value)`` row (:func:`row_of`) and an
upload is one :class:`UploadChunk`: one task's and one user's rows.  A
device keeps its samples as rows and uploads them as a chunk, the
server decodes a wire upload straight into a chunk's rows, and a record
list (:class:`~repro.apisense.device.SensorRecord` s from a gateway
client or a replay) becomes chunks at the gateway (:func:`chunks_of`).
The ingest pipeline builds each shard flush once (:func:`batch_of`, one
row array over the flushed chunks) and hands the same
:class:`RecordBatch` to the store, the Hive's router and every flush
listener, so no tier past the gateway touches a record object.  Every
column is in row order; a Honeycomb hook reads its task's rows of a
flush as a :class:`ColumnarBatch` (:class:`TaskRows`), the shape a
store scan returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, groupby
from numbers import Real
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

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


def _rows_array(rows: Iterable[Row], n: int) -> np.ndarray:
    """``n`` rows as one ``(n, 4)`` float64 array."""
    return np.fromiter(chain.from_iterable(rows), np.float64, 4 * n).reshape(n, 4)


@dataclass(eq=False, slots=True)
class UploadChunk:
    """One upload: one device's, task's and user's ``(time, lat, lon,
    value)`` rows, in the order they were taken.

    ``rows`` is kept as it came (a device's buffered list, the rows the
    gateway decoded); the flush builds one array over all its chunks.
    The gateway stamps a sampled upload's ``trace_id`` once, on the
    chunk.
    """

    device_id: str
    user: str
    task: str
    rows: Sequence[Row]
    trace_id: int | None = None

    @classmethod
    def of(cls, device_id: str, user: str, task: str, rows: Sequence[Row]) -> "UploadChunk":
        """The chunk of ``rows`` as they were buffered (kept, not copied)."""
        return cls(device_id, user, task, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def split(self, n: int) -> tuple["UploadChunk", "UploadChunk"]:
        """The chunks of the first ``n`` rows and of the rest."""
        return replace(self, rows=self.rows[:n]), replace(self, rows=self.rows[n:])


_run_of = attrgetter("device_id", "user", "task", "trace_id")


def chunks_of(upload: "UploadChunk | Iterable[SensorRecord]") -> list[UploadChunk]:
    """An upload as chunks, the one place the gateway tells the two apart:
    a chunk is its own; a record list becomes one chunk per run of
    consecutive records of one device, user, task and trace id, its rows
    read by :func:`row_of`, so the chunks hold the records' rows in
    order."""
    match upload:
        case UploadChunk():
            return [upload]
    return [
        UploadChunk(device, user, task, [row_of(r.time, r.values) for r in run], trace_id)
        for (device, user, task, trace_id), run in groupby(upload, _run_of)
    ]


@dataclass
class ColumnarBatch:
    """The result of one scan, and what a Honeycomb hook reads of a
    flush (:meth:`TaskRows.columns`): five parallel column arrays.

    ``user_id`` indexes into ``user_table`` (the store's interning
    table, a flush's user names); :meth:`user_names` decodes it when
    string ids are needed.
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


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """Rows of ``time/lat/lon/value`` columns plus task/user codes.

    ``lat``/``lon`` are NaN without a ``gps`` fix and ``value`` is NaN
    without a scalar.  ``task_index``/``user_index`` index ``tasks``/
    ``users``, the batch's distinct names in first-appearance order.
    ``parts`` are the chunks the batch was built from, in row order.

    The columns more than one tier derives from a flush (the ingest
    lags at a clock reading, the cell of every fix at a cell size or
    grid) are computed once per batch, by whichever tier reads them
    first, and shared by the rest.
    """

    parts: tuple[UploadChunk, ...]
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

    @cached_property
    def task_groups(self) -> list[tuple[int, "np.ndarray | slice"]]:
        """``(task code, rows)`` of each task, shared by the store's
        append and the Hive's router: every row as a slice when the
        batch holds one task, else :func:`group_rows` of ``task_index``."""
        if len(self.tasks) == 1:
            return [(0, slice(None))]
        return [(int(self.task_index[rows[0]]), rows) for rows in group_rows(self.task_index)]

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
        ids = [-1 if part.trace_id is None else part.trace_id for part in self.parts]
        return np.repeat(np.array(ids, np.int64), [len(part) for part in self.parts])

    def traced_keys(self, rows: "np.ndarray | slice" = slice(None)) -> dict[int, list[float]]:
        """``{trace_id: [record times]}`` of the traced records (in ``rows``)."""
        ids, times = self.trace_id[rows], self.time[rows]
        traced = ids >= 0
        out: dict[int, list[float]] = {}
        for tid, t in zip(ids[traced].tolist(), times[traced].tolist()):
            out.setdefault(tid, []).append(t)
        return out


@dataclass(frozen=True, eq=False)
class TaskRows:
    """One task's rows of a flush, as the Hive routes them to the task's
    owner: their count, and their columns built only when read."""

    batch: RecordBatch
    rows: "np.ndarray | slice"

    def __len__(self) -> int:
        return len(self.batch.time[self.rows])

    def columns(self) -> ColumnarBatch:
        """The rows as a :class:`ColumnarBatch`, users named by the
        flush's ``users``."""
        batch, rows = self.batch, self.rows
        return ColumnarBatch(
            batch.time[rows], batch.lat[rows], batch.lon[rows], batch.value[rows],
            batch.user_index[rows], tuple(batch.users),
        )


def batch_of(chunks: Iterable[UploadChunk]) -> RecordBatch:
    """The one batch builder: ``chunks`` as one :class:`RecordBatch`.

    Rows come in chunk order, read into one array.  Task and user codes
    are assigned walking the chunks, so names come in first-appearance
    order.
    """
    parts = tuple(chunks)
    sizes = [len(chunk) for chunk in parts]
    rows = _rows_array(chain.from_iterable(chunk.rows for chunk in parts), sum(sizes))
    time, lat, lon, value = rows.T.copy()
    tasks: dict[str, int] = {}
    users: dict[str, int] = {}
    task_index = np.repeat(codes_of([chunk.task for chunk in parts], tasks), sizes)
    user_index = np.repeat(codes_of([chunk.user for chunk in parts], users), sizes)
    return RecordBatch(
        parts=parts,
        time=time,
        lat=lat,
        lon=lon,
        value=value,
        tasks=list(tasks),
        task_index=task_index,
        users=list(users),
        user_index=user_index,
    )


def columnize(records: "Iterable[SensorRecord] | RecordBatch") -> RecordBatch:
    """The batch of a record list (:func:`chunks_of`, :func:`batch_of`);
    a :class:`RecordBatch` passes through."""
    if isinstance(records, RecordBatch):
        return records
    return batch_of(chunks_of(records))


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
