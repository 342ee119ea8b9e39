"""One flush as columns: the only reader of ``SensorRecord.values``.

The ingest pipeline columnizes each shard flush once and hands the same
:class:`RecordBatch` to the store, the Hive's router and every flush
listener, so no tier downstream touches a record object to learn its
time, position, scalar value, task or user.  Every column is in record
order; the batch is also a plain sequence of its records, which is what
listeners that only count or forward them iterate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.geo.point import GeoPoint

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.apisense.device import SensorRecord
    from repro.geo.grid import SpatialGrid


@dataclass(frozen=True, eq=False)
class RecordBatch(Sequence):
    """Records plus their ``time/lat/lon/value`` columns and task/user codes.

    ``lat``/``lon`` are NaN without a ``gps`` fix and ``value`` is NaN
    without a scalar.  ``task_index``/``user_index`` index ``tasks``/
    ``users``, the batch's distinct names in first-appearance order.
    """

    records: list[SensorRecord]
    time: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    value: np.ndarray
    tasks: list[str]
    task_index: np.ndarray
    users: list[str]
    user_index: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self) -> Iterator[SensorRecord]:
        return iter(self.records)

    @cached_property
    def trace_id(self) -> np.ndarray:
        """Per-record trace id, -1 when untraced (built when tracing asks)."""
        return np.array(
            [-1 if r.trace_id is None else r.trace_id for r in self.records],
            dtype=np.int64,
        )

    def traced_keys(self, rows: "np.ndarray | slice" = slice(None)) -> dict[int, list[float]]:
        """``{trace_id: [record times]}`` of the traced records (in ``rows``)."""
        ids, times = self.trace_id[rows], self.time[rows]
        traced = ids >= 0
        out: dict[int, list[float]] = {}
        for tid, t in zip(ids[traced].tolist(), times[traced].tolist()):
            out.setdefault(tid, []).append(t)
        return out


def columnize(records: "Iterable[SensorRecord]") -> RecordBatch:
    """The columns of ``records``; a :class:`RecordBatch` passes through.

    ``lat``/``lon`` come from a ``gps`` value when present; ``value`` is
    the first real number (Python or numpy scalar, never a ``bool``)
    among the remaining sensor values.
    """
    if isinstance(records, RecordBatch):
        return records
    records = list(records)
    nan = float("nan")
    lat: list[float] = []
    lon: list[float] = []
    value: list[float] = []
    for record in records:
        values = record.values
        gps = values.get("gps")
        if isinstance(gps, GeoPoint):
            lat.append(gps.lat)
            lon.append(gps.lon)
        else:
            lat.append(nan)
            lon.append(nan)
        for name, item in values.items():
            if name != "gps" and (
                type(item) is float
                or (isinstance(item, Real) and not isinstance(item, bool))
            ):
                value.append(float(item))
                break
        else:
            value.append(nan)
    tasks, task_index = _encode([r.task for r in records])
    users, user_index = _encode([r.user for r in records])
    return RecordBatch(
        records=records,
        time=np.array([r.time for r in records], dtype=np.float64),
        lat=np.array(lat, dtype=np.float64),
        lon=np.array(lon, dtype=np.float64),
        value=np.array(value, dtype=np.float64),
        tasks=tasks,
        task_index=task_index,
        users=users,
        user_index=user_index,
    )


def _encode(names: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct names in first-appearance order and each row's index."""
    codes = {name: code for code, name in enumerate(dict.fromkeys(names))}
    index = np.fromiter(map(codes.__getitem__, names), np.int64, len(names))
    return list(codes), index


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
) -> Iterator[tuple[int, int]]:
    """``(row, col)`` of every fix: ``grid`` cells (clamped to its area)
    when given, else the global ``cell_deg`` lat/lon quantization."""
    if grid is not None:
        rows, cols = grid.cells_of(lat, lon)
    else:
        rows = np.floor(lat / cell_deg).astype(np.int64)
        cols = np.floor(lon / cell_deg).astype(np.int64)
    return zip(rows.tolist(), cols.tolist())
