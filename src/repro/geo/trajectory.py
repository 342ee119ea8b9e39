"""Trajectories: ordered sequences of timestamped location fixes.

A trajectory is its columns (:class:`TraceColumns`: read-only float64
``time``/``lat``/``lon`` arrays, what the generator, the audit's kernels
and a device's position lookup use) plus the times ``bisect`` reads; its
tuple of :class:`Record` objects — what scalar mechanisms and CSV files
exchange — is a second form of the same fixes.  Each form is built at
most once and cached; trajectories are immutable, so nothing invalidates it.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import TrajectoryError
from repro.geo.bbox import BoundingBox
from repro.geo.distance import haversine_m, interpolate
from repro.geo.point import GeoPoint, Record
from repro.units import DAY


def _read_only(values) -> np.ndarray:
    """A private float64 copy of ``values`` that refuses writes."""
    column = np.array(values, dtype=np.float64)
    column.flags.writeable = False
    return column


class TraceColumns(NamedTuple):
    """Row-aligned float64 columns of one location trace.

    The array form of a trajectory, or of a piece of one (a day, a
    filtered day): fix ``i`` is ``(time[i], lat[i], lon[i])``.  Kernels
    that read fixes take anything exposing these three names, so a
    :class:`Trajectory` and a bare column slice are interchangeable.
    """

    time: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def with_positions(self, lat: np.ndarray, lon: np.ndarray) -> "TraceColumns":
        """The same instants at new coordinates."""
        return self._replace(lat=lat, lon=lon)


class Trajectory:
    """One user's timestamped path, sorted by strictly increasing time.

    A trajectory is immutable; every transformation returns a new instance.
    Privacy mechanisms operate on single trajectories (typically one day of
    data, per the paper) and datasets group them per user.

    Built from records, it keeps them and builds columns on first array
    use.  Built by :meth:`from_columns`, it builds no ``Record`` until a
    scalar access materialises ``records``: iteration, indexing,
    ``points``, ``map_points``, ``length_m``, ``speeds``,
    ``resample_uniform_distance``.  Length, time span, bounding box,
    equality, renaming, slicing, splitting and ``point_at_time`` never do.
    """

    def __init__(self, user: str, records: tuple[Record, ...]):
        if not records:
            raise TrajectoryError(f"trajectory for {user!r} is empty")
        times = tuple(r.time for r in records)
        if not all(map(math.isfinite, times)):
            raise TrajectoryError(f"records for {user!r} have a non-finite time")
        for earlier, later in zip(times, times[1:]):
            if not later > earlier:
                raise TrajectoryError(
                    f"records for {user!r} not strictly increasing in "
                    f"time ({earlier} then {later})"
                )
        vars(self).update(user=user, _times=times, records=records)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"trajectories are immutable; cannot set {name!r}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, user: str, records: Sequence[Record]) -> "Trajectory":
        """Build a trajectory, sorting records and dropping duplicate times.

        This is the forgiving constructor used at ingestion boundaries; the
        plain constructor enforces (rather than repairs) the invariants.
        """
        ordered = sorted(records, key=lambda r: r.time)
        deduped: list[Record] = []
        for record in ordered:
            if deduped and record.time <= deduped[-1].time:
                continue
            deduped.append(record)
        return cls(user=user, records=tuple(deduped))

    @classmethod
    def from_unsorted_columns(
        cls, user: str, time: np.ndarray, lat: np.ndarray, lon: np.ndarray
    ) -> "Trajectory":
        """:meth:`from_records` over columns: sort stably, drop repeated times."""
        order = np.argsort(time, kind="stable")
        keep = order[np.diff(time[order], prepend=np.nan) != 0]
        return cls.from_columns(user, time[keep], lat[keep], lon[keep])

    @classmethod
    def from_columns(
        cls, user: str, time: np.ndarray, lat: np.ndarray, lon: np.ndarray
    ) -> "Trajectory":
        """Build a trajectory from row-aligned columns, without a ``Record``.

        The columns (copied, read-only) are checked as arrays against the
        same invariants as the per-fix path — non-empty, coordinates in
        range and not NaN, time finite and strictly increasing — and any
        failure re-runs that path, so it raises its exact error.
        """
        columns = TraceColumns(*(_read_only(column) for column in (time, lat, lon)))
        time, lat, lon = columns
        if not time.size == lat.size == lon.size:
            raise TrajectoryError(f"columns for {user!r} differ in length")
        times = tuple(time.tolist())
        trajectory = cls._with_state(user=user, _times=times, columns=columns)
        in_range = (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
        valid = time.size and in_range.all() and np.isfinite(time).all()
        if not valid or (time[1:] <= time[:-1]).any():
            cls(user, trajectory.records)  # the per-fix path raises its own error
        return trajectory

    @classmethod
    def _with_state(cls, **state: object) -> "Trajectory":
        """An instance over already-validated state, skipping ``__init__``."""
        trajectory = object.__new__(cls)
        vars(trajectory).update(state)
        return trajectory

    # ------------------------------------------------------------------
    # The two forms: records and columns
    # ------------------------------------------------------------------

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """The fixes as records, built once on first use."""
        time, lat, lon = self.columns
        points = map(GeoPoint, lat.tolist(), lon.tolist())
        return tuple(map(Record, points, time.tolist()))

    @cached_property
    def columns(self) -> TraceColumns:
        """The trajectory as read-only arrays, built once on first use."""
        points = [r.point for r in self.records]
        return TraceColumns(
            _read_only(self._times),
            _read_only([p.lat for p in points]),
            _read_only([p.lon for p in points]),
        )

    @property
    def time(self) -> np.ndarray:
        return self.columns.time

    @property
    def lat(self) -> np.ndarray:
        return self.columns.lat

    @property
    def lon(self) -> np.ndarray:
        return self.columns.lon

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.user == other.user
            and self._times == other._times
            and np.array_equal(self.lat, other.lat)
            and np.array_equal(self.lon, other.lon)
        )

    def __hash__(self) -> int:
        return hash((self.user, self._times))

    def __repr__(self) -> str:
        return f"Trajectory({self.user!r}, {len(self)} fixes)"

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    @property
    def points(self) -> list[GeoPoint]:
        return [r.point for r in self.records]

    @property
    def start_time(self) -> float:
        return self._times[0]

    @property
    def end_time(self) -> float:
        return self._times[-1]

    @property
    def duration(self) -> float:
        """Elapsed seconds between first and last record."""
        return self.end_time - self.start_time

    @property
    def length_m(self) -> float:
        """Total path length in metres."""
        total = 0.0
        for a, b in zip(self.records, self.records[1:]):
            total += haversine_m(a.point, b.point)
        return total

    @property
    def bounding_box(self) -> BoundingBox:
        _, lat, lon = self.columns
        return BoundingBox(
            south=float(lat.min()),
            west=float(lon.min()),
            north=float(lat.max()),
            east=float(lon.max()),
        )

    def speeds(self) -> list[float]:
        """Per-segment speeds in m/s (length n-1)."""
        result = []
        for a, b in zip(self.records, self.records[1:]):
            dt = b.time - a.time
            result.append(haversine_m(a.point, b.point) / dt)
        return result

    def mean_speed(self) -> float:
        """Overall mean speed: path length over duration (m/s)."""
        if self.duration == 0:
            return 0.0
        return self.length_m / self.duration

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def map_points(self, transform: Callable[[Record], GeoPoint]) -> "Trajectory":
        """Apply a spatial transform to every record, keeping timestamps."""
        return Trajectory(
            user=self.user,
            records=tuple(r.moved(transform(r)) for r in self.records),
        )

    def with_positions(self, lat: np.ndarray, lon: np.ndarray) -> "Trajectory":
        """:meth:`map_points` over columns: fix ``i`` moves to ``(lat[i], lon[i])``."""
        return Trajectory.from_columns(self.user, self.time, lat, lon)

    def renamed(self, user: str) -> "Trajectory":
        """A copy attributed to a different (e.g. pseudonymous) user id."""
        return Trajectory._with_state(**{**vars(self), "user": user})

    def slice_time(self, start: float, end: float) -> "Trajectory | None":
        """Records with ``start <= time < end``; None if that is empty."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        if lo >= hi:
            return None
        return self._piece(lo, hi)

    def split_by_day(self, day_length: float = DAY) -> list["Trajectory"]:
        """Split into per-day sub-trajectories (the paper's unit of work).

        Day ``k`` covers ``[k * day_length, (k + 1) * day_length)``.  Days
        without records produce no entry.
        """
        return [self._piece(lo, hi) for lo, hi in self._day_bounds(day_length)]

    def day_columns(self, day_length: float = DAY) -> list[TraceColumns]:
        """:meth:`split_by_day` over the column view: one slice per day."""
        time, lat, lon = self.columns
        return [
            TraceColumns(time[lo:hi], lat[lo:hi], lon[lo:hi])
            for lo, hi in self._day_bounds(day_length)
        ]

    def _piece(self, lo: int, hi: int) -> "Trajectory":
        """Fixes ``[lo, hi)`` in whichever forms this trajectory holds."""
        state = {"user": self.user, "_times": self._times[lo:hi]}
        if "records" in vars(self):
            state["records"] = self.records[lo:hi]
        if "columns" in vars(self):
            state["columns"] = TraceColumns(*(c[lo:hi] for c in self.columns))
        return Trajectory._with_state(**state)

    def _day_bounds(self, day_length: float) -> list[tuple[int, int]]:
        """Record index range ``[lo, hi)`` of every non-empty day."""
        if day_length <= 0:
            raise TrajectoryError(f"day length must be positive: {day_length}")
        first_day = int(self.start_time // day_length)
        last_day = int(self.end_time // day_length)
        edges = [
            bisect.bisect_left(self._times, day * day_length)
            for day in range(first_day, last_day + 2)
        ]
        return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]

    def resample_uniform_distance(self, step_m: float) -> list[GeoPoint]:
        """Points at uniform curvilinear spacing ``step_m`` along the path.

        Always includes the first point; includes the final point as the
        last sample.  This is the geometric half of speed smoothing: the
        output deliberately discards all timing information.
        """
        if step_m <= 0:
            raise TrajectoryError(f"resampling step must be positive: {step_m}")
        points = self.points
        if len(points) == 1 or self.length_m == 0.0:
            return [points[0]]
        resampled = [points[0]]
        carried = 0.0  # distance already walked into the current segment
        for a, b in zip(points, points[1:]):
            segment = haversine_m(a, b)
            if segment == 0.0:
                continue
            position = carried
            while position + step_m <= segment:
                position += step_m
                resampled.append(interpolate(a, b, position / segment))
            carried = position - segment
        if resampled[-1] != points[-1]:
            resampled.append(points[-1])
        return resampled

    def split_gaps(self, max_gap: float) -> list["Trajectory"]:
        """Split the trajectory wherever consecutive fixes are more than
        ``max_gap`` seconds apart.

        Radio dropouts and phones switched off leave holes; interpolating
        across them fabricates movement.  Segmenting at gaps lets
        consumers treat each contiguous stretch honestly.
        """
        if max_gap <= 0:
            raise TrajectoryError(f"max gap must be positive: {max_gap}")
        segments: list[Trajectory] = []
        start = 0
        for index in range(1, len(self._times)):
            if self._times[index] - self._times[index - 1] > max_gap:
                segments.append(self._piece(start, index))
                start = index
        segments.append(self._piece(start, len(self._times)))
        return segments

    def resample_chord(self, step_m: float) -> list[GeoPoint]:
        """Points emitted each time the path gets ``step_m`` metres away
        from the last emitted point (chord distance).

        Unlike :meth:`resample_uniform_distance`, which measures distance
        *along* the path, chord resampling is insensitive to GPS jitter: a
        user dwelling at a place accumulates curvilinear path length from
        fix noise but never strays ``step_m`` away from the last emitted
        point, so a stop contributes no samples at all.  This is the
        geometric core of speed smoothing.
        """
        if step_m <= 0:
            raise TrajectoryError(f"resampling step must be positive: {step_m}")
        from repro.geo.projection import LocalProjection

        projection = LocalProjection(self.bounding_box.center)
        x, y = projection.to_xy_columns(self.lat, self.lon)
        xy = list(zip(x.tolist(), y.tolist()))
        emitted = [xy[0]]
        ex, ey = xy[0]
        for (ax, ay), (bx, by) in zip(xy, xy[1:]):
            sx, sy = ax, ay
            while True:
                dx, dy = bx - sx, by - sy
                seg2 = dx * dx + dy * dy
                if seg2 == 0.0:
                    break
                fx, fy = sx - ex, sy - ey
                half_b = fx * dx + fy * dy
                c = fx * fx + fy * fy - step_m * step_m
                disc = half_b * half_b - seg2 * c
                if disc < 0.0:
                    break
                t = (-half_b + disc**0.5) / seg2
                if not (0.0 <= t <= 1.0):
                    break
                sx, sy = sx + t * dx, sy + t * dy
                emitted.append((sx, sy))
                ex, ey = sx, sy
        return [projection.to_point(x, y) for x, y in emitted]

    def point_at_time(self, time: float) -> GeoPoint:
        """Linear interpolation of the position at ``time``.

        Times before the first record clamp to the first point and times
        after the last clamp to the last point.
        """
        _, lat, lon = self.columns
        if time <= self.start_time:
            return GeoPoint(lat.item(0), lon.item(0))
        if time >= self.end_time:
            return GeoPoint(lat.item(-1), lon.item(-1))
        after = bisect.bisect_right(self._times, time)
        t0, t1 = self._times[after - 1], self._times[after]
        fraction = (time - t0) / (t1 - t0)
        lat0, lon0 = lat.item(after - 1), lon.item(after - 1)
        return GeoPoint(
            lat0 + (lat.item(after) - lat0) * fraction,
            lon0 + (lon.item(after) - lon0) * fraction,
        )

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`point_at_time` over an array of instants: ``(lat, lon)``.

        Same clamping and the same ``a + (b - a) * fraction`` per element,
        so every sample equals the scalar call bit for bit.
        """
        time, lat, lon = self.columns
        times = np.asarray(times, dtype=np.float64)
        early = times <= time[0]
        sampled_lat = np.where(early, lat[0], lat[-1])
        sampled_lon = np.where(early, lon[0], lon[-1])
        inside = np.flatnonzero(~early & (times < time[-1]))
        after = np.searchsorted(time, times[inside], side="right")
        before = after - 1
        fraction = (times[inside] - time[before]) / (time[after] - time[before])
        sampled_lat[inside] = lat[before] + (lat[after] - lat[before]) * fraction
        sampled_lon[inside] = lon[before] + (lon[after] - lon[before]) * fraction
        return sampled_lat, sampled_lon
