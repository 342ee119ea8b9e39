"""Unit tests for recruitment policies."""

import numpy as np
import pytest

from repro.apisense.battery import Battery, BatteryModel
from repro.apisense.preferences import UserPreferences
from repro.apisense.recruitment import (
    AllDevices,
    BatteryFloorRecruitment,
    QuotaRecruitment,
    RegionRecruitment,
    SensorCapabilityRecruitment,
)
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.geo.bbox import BoundingBox
from repro.units import HOUR
from tests.apisense.conftest import build_device

TASK = SensingTask(name="t", sensors=("gps",), sampling_period=300.0)


@pytest.fixture()
def fleet(small_population, sensor_suite):
    return [
        build_device(small_population, sensor_suite, index=i)
        for i in range(len(small_population.dataset))
    ]


class TestAllDevices:
    def test_passthrough(self, fleet, rng):
        assert AllDevices().select(fleet, TASK, 0.0, rng) == fleet


class TestRegion:
    def test_far_region_empty(self, fleet, rng):
        region = BoundingBox(south=10.0, west=10.0, north=11.0, east=11.0)
        assert RegionRecruitment(region).select(fleet, TASK, 12 * HOUR, rng) == []

    def test_city_region_keeps_all(self, fleet, rng, small_population):
        region = small_population.city.bounding_box
        selected = RegionRecruitment(region).select(fleet, TASK, 12 * HOUR, rng)
        assert len(selected) == len(fleet)

    def test_falls_back_to_task_region(self, fleet, rng, small_population):
        task = SensingTask(
            name="r",
            sensors=("gps",),
            sampling_period=300.0,
            region=small_population.city.bounding_box,
        )
        assert len(RegionRecruitment().select(fleet, task, 12 * HOUR, rng)) == len(fleet)

    def test_no_region_anywhere_passes_all(self, fleet, rng):
        assert RegionRecruitment().select(fleet, TASK, 0.0, rng) == fleet


class TestBatteryFloor:
    def test_validation(self):
        with pytest.raises(PlatformError):
            BatteryFloorRecruitment(min_level=1.5)

    def test_filters_weak_batteries(self, fleet, rng):
        fleet[0].battery = Battery(
            BatteryModel(charge_per_hour=0.0), level=0.1, time=12 * HOUR
        )
        selected = BatteryFloorRecruitment(0.3).select(fleet, TASK, 12 * HOUR, rng)
        assert fleet[0] not in selected
        assert len(selected) == len(fleet) - 1


class TestQuota:
    def test_validation(self):
        with pytest.raises(PlatformError):
            QuotaRecruitment(0)

    def test_caps_size(self, fleet, rng):
        selected = QuotaRecruitment(2).select(fleet, TASK, 0.0, rng)
        assert len(selected) == 2
        assert all(device in fleet for device in selected)

    def test_small_fleet_untouched(self, fleet, rng):
        assert len(QuotaRecruitment(100).select(fleet, TASK, 0.0, rng)) == len(fleet)

    def test_sampling_varies_with_rng(self, fleet):
        a = QuotaRecruitment(2).select(fleet, TASK, 0.0, np.random.default_rng(1))
        b = QuotaRecruitment(2).select(fleet, TASK, 0.0, np.random.default_rng(9))
        ids_a = [d.device_id for d in a]
        ids_b = [d.device_id for d in b]
        assert ids_a != ids_b  # different seeds, different panels (w.h.p.)


class TestCapability:
    def test_filters_opted_out_users(self, small_population, sensor_suite, rng):
        devices = [
            build_device(small_population, sensor_suite, index=0),
            build_device(
                small_population,
                sensor_suite,
                index=1,
                preferences=UserPreferences(allowed_sensors=frozenset({"battery"})),
            ),
        ]
        selected = SensorCapabilityRecruitment().select(devices, TASK, 0.0, rng)
        assert len(selected) == 1
        assert selected[0] is devices[0]


class TestComposition:
    def test_and_composes(self, fleet, rng):
        fleet[0].battery = Battery(
            BatteryModel(charge_per_hour=0.0), level=0.1, time=12 * HOUR
        )
        policy = BatteryFloorRecruitment(0.3) & QuotaRecruitment(2)
        selected = policy.select(fleet, TASK, 12 * HOUR, rng)
        assert len(selected) == 2
        assert fleet[0] not in selected
        assert "battery-floor&quota" == policy.name


class TestHiveIntegration:
    def test_publish_with_quota(self, sim, hive, small_population, sensor_suite):
        for index in range(5):
            hive.register_device(build_device(small_population, sensor_suite, index=index))

        class Owner:
            def add_source(self, task_name, store):
                pass

            def receive_dataset(self, task_name, records):
                pass

        hive.publish_task(TASK, owner=Owner(), recruitment=QuotaRecruitment(2))
        assert hive.stats.per_task["t"].offers == 2
