"""Fixtures for platform tests: a bound device in a tiny simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apisense.battery import Battery, BatteryModel
from repro.apisense.device import MobileDevice
from repro.apisense.hive import Hive
from repro.apisense.preferences import UserPreferences
from repro.apisense.sensors import default_sensor_suite
from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.simulation import Simulator


@pytest.fixture()
def sim() -> Simulator:
    return Simulator()


@pytest.fixture()
def hive(sim) -> Hive:
    return Hive(sim, seed=1)


@pytest.fixture(scope="session")
def sensor_suite(test_city):
    return default_sensor_suite(test_city, np.random.default_rng(3))


#: A battery that never charges (for depletion tests).
NO_CHARGE = BatteryModel(charge_per_hour=0.0)


def build_device(
    population,
    sensor_suite,
    index: int = 0,
    preferences: UserPreferences | None = None,
    battery_level: float = 1.0,
    battery_model: BatteryModel | None = None,
) -> MobileDevice:
    user = population.dataset.users[index]
    return MobileDevice(
        device_id=f"dev-{index}",
        user=user,
        trajectory=population.dataset.get(user),
        sensors=sensor_suite,
        battery=Battery(battery_model or BatteryModel(), level=battery_level),
        preferences=preferences,
        seed=index,
    )


@pytest.fixture()
def device(small_population, sensor_suite) -> MobileDevice:
    return build_device(small_population, sensor_suite)


def collect_rows(honeycomb) -> list:
    """Every ``(user, time, lat, lon, value)`` row routed to ``honeycomb``
    from now on, in arrival order, read from the hooks' columns."""
    seen: list = []
    honeycomb.add_hook(lambda task_name, columns: seen.extend(columns.rows()))
    return seen


def trajectories_from_rows(rows) -> dict:
    """One forgiving trajectory per user over the rows' GPS fixes.

    Users come in first-arrival order: the reference a Honeycomb's
    mobility dataset is checked against.
    """
    per_user: dict[str, list[Record]] = {}
    for user, time, lat, lon, _ in rows:
        if lat == lat:  # NaN without a fix
            per_user.setdefault(user, []).append(Record(GeoPoint(lat, lon), time))
    return {user: Trajectory.from_records(user, fixes) for user, fixes in per_user.items()}


def assert_same_trajectories(dataset, expected: dict, ordered: bool = True) -> None:
    """``dataset`` holds ``expected``'s trajectories, time/lat/lon bit for bit."""
    if ordered:
        assert dataset.users == list(expected)
    assert sorted(dataset.users) == sorted(expected)
    for user, want in expected.items():
        got = dataset.get(user)
        for column in ("time", "lat", "lon"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
