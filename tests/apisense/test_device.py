"""Unit tests for the device task runtime.

Device behaviour is tested against a minimal fake Hive so the unit under
test is the device alone; the real Hive wiring is covered by
``test_hive.py`` and the campaign integration tests.
"""

import pytest

from repro.apisense.preferences import UserPreferences
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.units import DAY, HOUR
from tests.apisense.conftest import build_device


class FakeHive:
    """Collects uploads like the real Hive would."""

    def __init__(self):
        self.uploads = []

    def receive_upload(self, device_id, user, task_name, records):
        self.uploads.append((device_id, user, task_name, records))

    @property
    def n_records(self):
        return sum(len(records) for _, _, _, records in self.uploads)


def gps_task(**overrides) -> SensingTask:
    defaults = dict(
        name="gps-task",
        sensors=("gps",),
        sampling_period=300.0,
        upload_period=3600.0,
        start=0.0,
        end=DAY,
    )
    defaults.update(overrides)
    return SensingTask(**defaults)


@pytest.fixture()
def fake_hive() -> FakeHive:
    return FakeHive()


@pytest.fixture()
def bound_device(sim, fake_hive, small_population, sensor_suite):
    device = build_device(small_population, sensor_suite)
    device.bind(sim, fake_hive)
    return device


class TestOfferLogic:
    def test_unbound_device_rejects_offer(self, small_population, sensor_suite):
        device = build_device(small_population, sensor_suite)
        with pytest.raises(PlatformError):
            device.offer_task(gps_task(), 1.0)

    def test_accepts_with_probability_one(self, bound_device):
        assert bound_device.offer_task(gps_task(), 1.0)
        assert "gps-task" in bound_device.running_tasks

    def test_declines_with_probability_zero(self, bound_device):
        assert not bound_device.offer_task(gps_task(), 0.0)

    def test_declines_forbidden_sensor(self, sim, fake_hive, small_population, sensor_suite):
        device = build_device(
            small_population,
            sensor_suite,
            preferences=UserPreferences(allowed_sensors=frozenset({"battery"})),
        )
        device.bind(sim, fake_hive)
        assert not device.offer_task(gps_task(), 1.0)

    def test_duplicate_task_rejected(self, bound_device):
        bound_device.offer_task(gps_task(), 1.0)
        with pytest.raises(PlatformError):
            bound_device.offer_task(gps_task(), 1.0)


class TestSamplingLoop:
    def test_samples_at_requested_rate(self, sim, bound_device):
        task = gps_task(end=6 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end + task.upload_period)
        stats = bound_device.stats[task.name]
        expected = 6 * HOUR / task.sampling_period
        assert stats.samples_taken == pytest.approx(expected, rel=0.1)

    def test_uploads_batched_by_period(self, sim, fake_hive, bound_device):
        task = gps_task(end=6 * HOUR, upload_period=3600.0)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end + task.upload_period)
        # ~6 hourly uploads, each ~12 samples (300 s period).
        assert 5 <= len(fake_hive.uploads) <= 7
        assert fake_hive.n_records == bound_device.stats[task.name].samples_taken

    def test_records_carry_gps_values(self, sim, fake_hive, bound_device):
        task = gps_task(end=2 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end + task.upload_period)
        for _, _, _, chunk in fake_hive.uploads:
            assert chunk.task == task.name
            # Every row holds a gps fix (NaN without one).
            assert all(lat == lat and lon == lon for _, lat, lon, _ in chunk.rows)

    def test_script_filters_and_errors_counted(self, sim, bound_device):
        calls = {"n": 0}

        def flaky_tick(ctx):
            calls["n"] += 1
            values = ctx.read_all()
            if calls["n"] % 5 == 0:
                raise RuntimeError("script bug")
            if calls["n"] % 2 == 0:
                return
            ctx.save(values)

        def flaky_script(ctx):
            ctx.every(ctx.task.sampling_period, flaky_tick)

        task = gps_task(end=6 * HOUR, script=flaky_script)
        bound_device.offer_task(task, 1.0)
        sim.run_until(6 * HOUR)
        stats = bound_device.stats[task.name]
        assert stats.script_errors > 0
        assert stats.samples_script_dropped > 0
        assert stats.samples_taken > 0

    def test_quiet_hours_suppress_samples(self, sim, fake_hive, small_population, sensor_suite):
        preferences = UserPreferences(quiet_hours=((0.0, 23 * HOUR),))
        device = build_device(small_population, sensor_suite, preferences=preferences)
        device.bind(sim, fake_hive)
        task = gps_task(end=12 * HOUR)
        device.offer_task(task, 1.0)
        sim.run_until(12 * HOUR)
        stats = device.stats[task.name]
        assert stats.samples_taken == 0
        assert stats.samples_filtered > 0

    def test_region_fence_limits_sampling(self, sim, bound_device, small_population):
        # A fence far from the city: nothing should be sampled.
        from repro.geo.bbox import BoundingBox

        region = BoundingBox(south=10.0, west=10.0, north=11.0, east=11.0)
        task = gps_task(end=6 * HOUR, region=region)
        bound_device.offer_task(task, 1.0)
        sim.run_until(6 * HOUR)
        assert bound_device.stats[task.name].samples_taken == 0

    def test_dead_battery_refuses_samples(self, sim, fake_hive, small_population, sensor_suite):
        from tests.apisense.conftest import NO_CHARGE

        device = build_device(
            small_population, sensor_suite, battery_level=0.0, battery_model=NO_CHARGE
        )
        device.bind(sim, fake_hive)
        task = gps_task(end=4 * HOUR)
        device.offer_task(task, 1.0)
        sim.run_until(4 * HOUR)
        stats = device.stats[task.name]
        assert stats.samples_taken == 0
        assert stats.samples_battery_refused > 0

    def test_stop_task_flushes_and_cancels(self, sim, fake_hive, bound_device):
        task = gps_task(end=DAY)
        bound_device.offer_task(task, 1.0)
        sim.run_until(2 * HOUR)
        taken_before = bound_device.stats[task.name].samples_taken
        bound_device.stop_task(task.name)
        assert "gps-task" not in bound_device.running_tasks
        assert fake_hive.n_records == taken_before  # flush delivered buffer
        sim.run_until(6 * HOUR)
        assert bound_device.stats[task.name].samples_taken == taken_before


class TestDirectReads:
    def test_read_sensor_costs_energy(self, sim, bound_device):
        level_before = bound_device.battery.level(sim.now)
        bound_device.read_sensor("gps", 8 * HOUR)
        assert bound_device.battery.level(8 * HOUR) < level_before

    def test_read_sensor_dead_battery_raises(self, sim, fake_hive, small_population, sensor_suite):
        from tests.apisense.conftest import NO_CHARGE

        device = build_device(
            small_population, sensor_suite, battery_level=0.0, battery_model=NO_CHARGE
        )
        device.bind(sim, fake_hive)
        with pytest.raises(PlatformError):
            device.read_sensor("gps", 12 * HOUR)

    def test_availability(self, sim, fake_hive, small_population, sensor_suite):
        device = build_device(small_population, sensor_suite, battery_level=1.0)
        device.bind(sim, fake_hive)
        assert device.is_available(12 * HOUR)
        quiet = build_device(
            small_population,
            sensor_suite,
            index=1,
            preferences=UserPreferences(quiet_hours=((0.0, 23.9 * HOUR),)),
        )
        quiet.bind(sim, fake_hive)
        assert not quiet.is_available(12 * HOUR)
