"""A trajectory built from columns against one built from records.

``Trajectory.from_columns`` validates as arrays and builds its records
only on the first scalar access; ``Trajectory(user, records)`` walks the
fixes.  Both must hold the same trace and refuse the same input with the
same words, and the column-only operations must never build a record.
"""

from __future__ import annotations

import bisect
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeoError, TrajectoryError
from repro.geo.distance import interpolate
from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.units import DAY

lats = st.floats(-90.0, 90.0, allow_nan=False)
lons = st.floats(-180.0, 180.0, allow_nan=False)


@st.composite
def valid_fixes(draw) -> tuple[list[float], list[float], list[float]]:
    time = sorted(
        draw(st.sets(st.floats(-1e7, 1e7, allow_nan=False), min_size=1, max_size=40))
    )
    lat = draw(st.lists(lats, min_size=len(time), max_size=len(time)))
    lon = draw(st.lists(lons, min_size=len(time), max_size=len(time)))
    return time, lat, lon


def per_fix(user: str, time, lat, lon) -> Trajectory:
    """The reference path: one GeoPoint and one Record per fix."""
    return Trajectory(
        user, tuple(Record(GeoPoint(a, b), t) for t, a, b in zip(time, lat, lon))
    )


def from_columns(user: str, time, lat, lon) -> Trajectory:
    return Trajectory.from_columns(user, np.array(time), np.array(lat), np.array(lon))


def raised(build, *columns) -> tuple[type, str]:
    with pytest.raises((GeoError, TrajectoryError)) as info:
        build("u", *columns)
    return type(info.value), str(info.value)


@given(valid_fixes())
def test_from_columns_equals_the_record_path(fixes):
    eager, lazy = per_fix("u", *fixes), from_columns("u", *fixes)
    assert (len(lazy), lazy.start_time, lazy.end_time, lazy.bounding_box) == (
        len(eager), eager.start_time, eager.end_time, eager.bounding_box,
    )
    for column, expected in zip(lazy.columns, eager.columns):
        assert column.tobytes() == expected.tobytes()
    assert lazy == eager
    assert lazy.records == eager.records


DEFECTS = (
    "nan-lat", "nan-lon", "lat-above", "lat-below", "lon-above", "lon-below",
    "repeated-time", "decreasing-time", "empty",
)


@given(valid_fixes(), st.sampled_from(DEFECTS), st.integers(0, 39))
def test_a_defect_raises_the_same_error_on_both_paths(fixes, defect, where):
    time, lat, lon = (list(column) for column in fixes)
    i = where % len(time)
    if defect == "empty":
        time, lat, lon = [], [], []
    elif defect.endswith("-time"):
        if len(time) < 2:
            time, lat, lon = time * 2, lat * 2, lon * 2
        i = max(i, 1)
        time[i] = time[i - 1] - (defect == "decreasing-time")
    else:
        column, value = {
            "nan-lat": (lat, np.nan), "nan-lon": (lon, np.nan),
            "lat-above": (lat, 90.5), "lat-below": (lat, -91.0),
            "lon-above": (lon, 180.25), "lon-below": (lon, -200.0),
        }[defect]
        column[i] = value
    assert raised(from_columns, time, lat, lon) == raised(per_fix, time, lat, lon)


@pytest.mark.parametrize(
    "time",
    [[0.0, np.nan, 2.0], [np.nan], [0.0, 1.0, np.inf], [-np.inf, 0.0], [np.nan, 1.0]],
    ids=["nan-inside", "nan-alone", "inf-last", "minus-inf-first", "nan-first"],
)
def test_non_finite_times_refused_on_both_paths(time):
    lat, lon = [45.0] * len(time), [5.0] * len(time)
    for build in (per_fix, from_columns):
        with pytest.raises(TrajectoryError):
            build("u", time, lat, lon)
    assert raised(from_columns, time, lat, lon) == raised(per_fix, time, lat, lon)


def reference_point_at_time(trajectory: Trajectory, time: float) -> GeoPoint:
    """``point_at_time`` as a walk over ``records``, before it read columns."""
    records = trajectory.records
    if time <= trajectory.start_time:
        return records[0].point
    if time >= trajectory.end_time:
        return records[-1].point
    index = bisect.bisect_right([r.time for r in records], time)
    before, after = records[index - 1], records[index]
    fraction = (time - before.time) / (after.time - before.time)
    return interpolate(before.point, after.point, fraction)


def bits(point: GeoPoint) -> bytes:
    return struct.pack("<2d", point.lat, point.lon)


@st.composite
def instants(draw, time: list[float]) -> list[float]:
    """Instants before, on, between and after the fixes at ``time``."""
    inside = st.floats(time[0], time[-1], allow_nan=False)
    return [
        draw(st.floats(-2e7, time[0], allow_nan=False)),
        *draw(st.lists(st.sampled_from(time), max_size=5)),
        *draw(st.lists(inside, max_size=10)),
        draw(st.floats(time[-1], 2e7, allow_nan=False)),
    ]


@given(st.data(), valid_fixes())
def test_point_at_time_equals_the_record_walk_on_both_forms(data, fixes):
    eager, lazy = per_fix("u", *fixes), from_columns("u", *fixes)
    for time in data.draw(instants(fixes[0])):
        expected = bits(reference_point_at_time(per_fix("u", *fixes), time))
        assert bits(eager.point_at_time(time)) == expected
        assert bits(lazy.point_at_time(time)) == expected


def test_unaligned_columns_refused():
    with pytest.raises(TrajectoryError):
        from_columns("u", [0.0, 1.0], [45.0], [5.0, 5.0])


@pytest.fixture
def three_days() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    time = np.arange(0.0, 3 * DAY, 600.0)
    rng = np.random.default_rng(3)
    return time, 44.8 + rng.uniform(0, 0.1, time.size), -0.6 + rng.uniform(0, 0.1, time.size)


def test_column_operations_build_no_record(monkeypatch, three_days):
    built: list[Record] = []
    init = Record.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", counting_init)
    trajectory = Trajectory.from_columns("u", *three_days)
    other = Trajectory.from_columns("v", *three_days)
    assert len(trajectory) == len(three_days[0])
    assert trajectory.duration == trajectory.end_time - trajectory.start_time
    assert trajectory.bounding_box.north <= 44.9
    assert trajectory == other.renamed("u") and trajectory != other
    piece = trajectory.slice_time(DAY, 2 * DAY)
    assert len(piece) == sum(len(day) for day in trajectory.split_by_day()[1:2])
    assert [len(day.time) for day in trajectory.day_columns()] == [144, 144, 144]
    assert [len(segment) for segment in trajectory.split_gaps(600.0)] == [len(trajectory)]
    for time in (-1.0, 0.0, 900.0, DAY + 1.0, 3 * DAY):
        trajectory.point_at_time(time)
    dataset = MobilityDataset([trajectory, other])
    published, _ = dataset.pseudonymized()
    assert published.n_records == dataset.n_records == 2 * len(trajectory)
    assert built == []

    eager = per_fix("u", *(column.tolist() for column in three_days))
    assert len(built) == len(eager)
    assert trajectory.records == eager.records
    assert trajectory.records is trajectory.records  # built once
    assert len(built) == 2 * len(eager)
