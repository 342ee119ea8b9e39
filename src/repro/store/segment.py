"""Columnar segments: the append-only storage unit of the dataset store.

A segment holds five parallel numpy arrays — ``time``, ``lat``, ``lon``,
``value``, ``user_id`` — for one (shard, task) partition.  Open segments
(:class:`SegmentBuilder`) absorb flush batches with amortized O(1)
appends; once full they are *sealed* into immutable :class:`Segment`
instances carrying the pruning metadata (time span, spatial extent) that
lets scans skip non-overlapping segments entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StoreError

#: Column order of every batch travelling through the store.
COLUMNS = ("time", "lat", "lon", "value", "user_id")


@dataclass(frozen=True)
class Segment:
    """An immutable columnar run of records plus pruning metadata.

    ``lat``/``lon`` are NaN for records without a GPS fix and ``value``
    is NaN for records without a scalar payload; the spatial extent
    fields are NaN when *no* record in the segment has a fix.
    """

    time: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    value: np.ndarray
    user_id: np.ndarray
    t_min: float
    t_max: float
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    #: Sealed segments are frozen; the store's one open segment per
    #: partition is exposed through the same type with ``sealed=False``.
    sealed: bool = True

    def __len__(self) -> int:
        return len(self.time)

    def overlaps_time(self, t0: float | None, t1: float | None) -> bool:
        """Whether any record could fall in ``[t0, t1)``."""
        if t0 is not None and self.t_max < t0:
            return False
        if t1 is not None and self.t_min >= t1:
            return False
        return True

    def overlaps_bbox(self, south: float, west: float, north: float, east: float) -> bool:
        """Whether the segment's spatial extent intersects the box.

        Segments with no GPS fixes at all (NaN extent) never match.
        """
        if np.isnan(self.lat_min):
            return False
        return not (
            self.lat_max < south
            or self.lat_min > north
            or self.lon_max < west
            or self.lon_min > east
        )


class SegmentBuilder:
    """The open (mutable) segment of one partition.

    Pre-allocates ``capacity`` rows and fills them by slice assignment.
    Appends copy rows and nothing else: the pruning metadata is computed
    over the filled rows when a scan view or the sealed segment is asked
    for, and kept until the next append.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise StoreError(f"segment capacity must be positive: {capacity}")
        self.capacity = capacity
        self.size = 0
        self._time = np.empty(capacity, dtype=np.float64)
        self._lat = np.empty(capacity, dtype=np.float64)
        self._lon = np.empty(capacity, dtype=np.float64)
        self._value = np.empty(capacity, dtype=np.float64)
        self._user_id = np.empty(capacity, dtype=np.int64)
        self._bounds: tuple[float, ...] | None = None

    @property
    def remaining(self) -> int:
        return self.capacity - self.size

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def append(
        self,
        time: np.ndarray,
        lat: np.ndarray,
        lon: np.ndarray,
        value: np.ndarray,
        user_id: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Copy rows ``[start, stop)`` of a column batch into the segment."""
        n = stop - start
        if n > self.remaining:
            raise StoreError(
                f"segment overflow: {n} rows into {self.remaining} free slots"
            )
        at = self.size
        self._time[at : at + n] = time[start:stop]
        self._lat[at : at + n] = lat[start:stop]
        self._lon[at : at + n] = lon[start:stop]
        self._value[at : at + n] = value[start:stop]
        self._user_id[at : at + n] = user_id[start:stop]
        self.size += n
        self._bounds = None

    def _columns(self) -> list[np.ndarray]:
        n = self.size
        return [c[:n] for c in (self._time, self._lat, self._lon, self._value, self._user_id)]

    def as_segment(self) -> Segment:
        """A zero-copy scan view over the rows written so far."""
        columns = self._columns()
        if self._bounds is None:
            self._bounds = _bounds(*columns[:3])
        return Segment(*columns, *self._bounds, sealed=False)

    def seal(self) -> Segment:
        """Freeze the builder into an immutable right-sized segment."""
        return _sealed([column.copy() for column in self._columns()])


def _bounds(time: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> tuple[float, ...]:
    """A segment's pruning metadata over its rows: the time span, then
    the extent of its fixes (NaN without one)."""
    span = (float(time.min()), float(time.max())) if len(time) else (np.inf, -np.inf)
    if np.isnan(lat).all():
        return (*span, np.nan, np.nan, np.nan, np.nan)
    return (*span, np.nanmin(lat), np.nanmax(lat), np.nanmin(lon), np.nanmax(lon))


def _sealed(columns: list[np.ndarray]) -> Segment:
    """An immutable segment of ``COLUMNS``-ordered columns it owns."""
    for column in columns:
        column.setflags(write=False)
    return Segment(*columns, *_bounds(*columns[:3]), sealed=True)


def merge_segments(segments: list[Segment]) -> Segment:
    """Compact several sealed segments into one, sorted by time."""
    if not segments:
        raise StoreError("cannot merge an empty segment list")
    order = np.argsort(np.concatenate([s.time for s in segments]), kind="stable")
    return _sealed([
        np.concatenate([getattr(s, name) for s in segments])[order] for name in COLUMNS
    ])
