"""Unit tests for the v2 Sensing Script API (repro.apisense.scripting).

Timer and facade behaviour is exercised on a real device (the runtime
the crowd actually runs); trigger edge semantics are pinned against the
deterministic synthetic runtime the Honeycomb vets with, where the
trajectory and battery curve are known in closed form.
"""

from __future__ import annotations

import pytest

from repro.apisense.scripting import (
    CollectAll,
    TaskDispatcher,
    TaskScript,
    resolve_script,
)
from repro.apisense.tasks import SensingTask
from repro.apisense.vetting import DEFAULT_VET_REGION, SyntheticRuntime, dry_run_task
from repro.errors import PlatformError, TaskValidationError
from repro.geo.bbox import BoundingBox
from repro.simulation import Simulator
from repro.units import DAY, HOUR
from tests.apisense.conftest import build_device


class FakeHive:
    def __init__(self):
        self.uploads = []

    def receive_upload(self, device_id, user, task_name, records):
        self.uploads.append((device_id, user, task_name, records))
        return len(records)

    @property
    def n_records(self):
        return sum(len(records) for _, _, _, records in self.uploads)


@pytest.fixture()
def fake_hive() -> FakeHive:
    return FakeHive()


@pytest.fixture()
def bound_device(sim, fake_hive, small_population, sensor_suite):
    device = build_device(small_population, sensor_suite)
    device.bind(sim, fake_hive)
    return device


def v2_task(setup, sensors=("gps", "battery"), **overrides) -> SensingTask:
    defaults = dict(
        name="v2-task",
        sensors=sensors,
        sampling_period=300.0,
        upload_period=3600.0,
        end=DAY,
        script=setup,
    )
    defaults.update(overrides)
    return SensingTask(**defaults)


def synthetic_dispatcher(task, n_ticks=200, seed=0):
    """Dispatcher over the deterministic vetting runtime."""
    sim = Simulator(start_time=task.start)
    runtime = SyntheticRuntime(
        task, sim, window=n_ticks * task.sampling_period, seed=seed
    )
    dispatcher = TaskDispatcher(task, runtime)
    dispatcher.start()
    return sim, runtime, dispatcher


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------


class TestTimers:
    def test_timer_fires_at_period_and_saves(self, sim, fake_hive, bound_device):
        def setup(ctx):
            ctx.every(300.0, lambda c: c.save({"gps": c.location.current}))

        task = v2_task(setup, end=6 * HOUR)
        assert bound_device.offer_task(task, 1.0)
        sim.run_until(task.end + task.upload_period)
        stats = bound_device.stats[task.name]
        assert stats.samples_taken == pytest.approx(6 * HOUR / 300.0, rel=0.1)
        assert fake_hive.n_records == stats.samples_taken

    def test_reschedule_from_inside_handler_backs_off(self, sim, bound_device):
        fired = []

        def setup(ctx):
            def tick(c):
                fired.append(c.now)
                if len(fired) == 3:
                    timer.reschedule(1200.0)

            timer = ctx.every(300.0, tick)

        task = v2_task(setup, end=2 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        # 3 fires at 300 s, then every 1200 s: 300, 600, 900, 2100, 3300...
        assert fired[:3] == [300.0, 600.0, 900.0]
        assert fired[3] == 2100.0
        assert all(b - a == 1200.0 for a, b in zip(fired[3:], fired[4:]))

    def test_reschedule_from_outside_moves_pending_firing(self, sim, bound_device):
        fired = []
        handles = {}

        def setup(ctx):
            handles["slow"] = ctx.every(1800.0, lambda c: fired.append(c.now))
            ctx.every(
                600.0,
                lambda c: handles["slow"].reschedule(300.0)
                if c.now == 600.0
                else None,
            )

        task = v2_task(setup, end=1 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        # Rescheduled at t=600 from another handler: the pending t=1800
        # firing moves to 600+300=900, then every 300 s.
        assert fired[0] == 900.0
        assert fired[1] == 1200.0

    def test_reschedule_below_floor_rejected(self, sim, bound_device):
        problems = []

        def setup(ctx):
            timer = ctx.every(300.0, lambda c: None)
            try:
                timer.reschedule(0.5)
            except PlatformError as error:
                problems.append(error)

        task = v2_task(setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        assert len(problems) == 1

    def test_cancelled_timer_stops(self, sim, bound_device):
        fired = []

        def setup(ctx):
            def tick(c):
                fired.append(c.now)
                if len(fired) == 2:
                    timer.cancel()

            timer = ctx.every(300.0, tick)

        task = v2_task(setup, end=6 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        assert len(fired) == 2

    def test_timers_stop_at_task_end(self, sim, bound_device):
        fired = []

        def setup(ctx):
            ctx.every(300.0, lambda c: fired.append(c.now))

        task = v2_task(setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(3 * HOUR)
        assert fired and max(fired) <= task.end

    def test_handler_error_counted_and_contained(self, sim, bound_device):
        def setup(ctx):
            def bad(c):
                raise RuntimeError("handler bug")

            ctx.every(300.0, bad)
            ctx.every(300.0, lambda c: c.save({"battery": c.battery.level}))

        task = v2_task(setup, end=2 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        stats = bound_device.stats[task.name]
        assert stats.script_errors > 0
        assert stats.samples_taken > 0  # the healthy handler kept going

    def test_stop_task_cancels_dispatcher(self, sim, bound_device):
        fired = []

        def setup(ctx):
            ctx.every(300.0, lambda c: fired.append(c.now))

        task = v2_task(setup, end=DAY)
        bound_device.offer_task(task, 1.0)
        sim.run_until(HOUR)
        count = len(fired)
        bound_device.stop_task(task.name)
        sim.run_until(4 * HOUR)
        assert len(fired) == count


# ----------------------------------------------------------------------
# Sensor facades
# ----------------------------------------------------------------------


class TestFacades:
    def test_lazy_reads_cost_only_sensors_read(self, sim, fake_hive, small_population, sensor_suite):
        """A script reading only the (free) battery facade drains no
        sampling energy; a legacy task sampling gps+battery does."""
        from tests.apisense.conftest import NO_CHARGE

        lazy = build_device(
            small_population, sensor_suite, index=0, battery_model=NO_CHARGE
        )
        eager = build_device(
            small_population, sensor_suite, index=1, battery_model=NO_CHARGE
        )
        lazy.bind(sim, fake_hive)
        eager.bind(sim, fake_hive)

        def setup(ctx):
            ctx.every(60.0, lambda c: c.save({"battery": c.battery.level}))

        lazy_task = v2_task(setup, name="lazy", sampling_period=60.0, end=12 * HOUR)
        eager_task = SensingTask(
            name="eager",
            sensors=("gps", "battery"),
            sampling_period=60.0,
            upload_period=3600.0,
            end=12 * HOUR,
        )
        assert lazy.offer_task(lazy_task, 1.0)
        assert eager.offer_task(eager_task, 1.0)
        sim.run_until(12 * HOUR)
        # Same tick count, same baseline drain; the eager task paid the
        # per-sample gps cost ~720 times on top.
        assert lazy.battery.level(12 * HOUR) > eager.battery.level(12 * HOUR)
        assert lazy.stats["lazy"].samples_taken > 0

    def test_undeclared_sensor_read_is_a_script_error(self, sim, bound_device):
        """Reading a sensor the task never declared is a script bug:
        counted, surfaced, and (see TestV2Vetting) caught by vetting."""

        def setup(ctx):
            ctx.every(300.0, lambda c: c.network.rssi)

        task = v2_task(setup, sensors=("gps",), end=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        stats = bound_device.stats[task.name]
        assert stats.script_errors > 0
        assert stats.samples_taken == 0

    def test_battery_refusal_not_a_script_error(self, sim, fake_hive, small_population, sensor_suite):
        from tests.apisense.conftest import NO_CHARGE

        device = build_device(
            small_population, sensor_suite, battery_level=0.0, battery_model=NO_CHARGE
        )
        device.bind(sim, fake_hive)

        def setup(ctx):
            ctx.every(300.0, lambda c: c.save({"gps": c.location.current}))

        task = v2_task(setup, sensors=("gps",), end=2 * HOUR)
        device.offer_task(task, 1.0)
        sim.run_until(task.end)
        stats = device.stats[task.name]
        assert stats.samples_battery_refused > 0
        assert stats.script_errors == 0  # environmental, not a bug

    def test_facade_reads_cached_within_a_tick(self, sim, bound_device):
        reads = []

        def setup(ctx):
            def tick(c):
                first = c.location.current
                second = c.location.current
                reads.append((first, second))

            ctx.every(300.0, tick)

        task = v2_task(setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        assert reads
        for first, second in reads:
            assert first is second

    def test_generic_sensor_facade(self, sim, bound_device):
        values = []

        def setup(ctx):
            ctx.every(300.0, lambda c: values.append(c.sensor("battery").read()))

        task = v2_task(setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        assert values and all(isinstance(v, float) for v in values)


# ----------------------------------------------------------------------
# Triggers (deterministic synthetic runtime)
# ----------------------------------------------------------------------


class TestTriggers:
    def test_battery_below_fires_once_per_excursion(self):
        events = []

        def setup(ctx):
            ctx.on_battery_below(0.5, lambda c: events.append(c.event))

        task = v2_task(setup)
        sim, runtime, dispatcher = synthetic_dispatcher(task, n_ticks=200)
        sim.run_until(task.start + 200 * task.sampling_period)
        # The synthetic battery ramps 1.0 -> 0.05 monotonically: exactly
        # one crossing, one firing.
        assert len(events) == 1
        assert events[0].kind == "battery_below"
        assert events[0].value < 0.5

    def test_location_changed_fires_on_movement(self):
        small, huge = [], []

        def setup(ctx):
            ctx.on_location_changed(100.0, lambda c: small.append(c.event))
            ctx.on_location_changed(1e7, lambda c: huge.append(c.event))

        task = v2_task(setup)
        sim, runtime, dispatcher = synthetic_dispatcher(task, n_ticks=200)
        sim.run_until(task.start + 200 * task.sampling_period)
        assert len(small) > 10  # the synthetic walk sweeps the box
        assert huge == []  # the planet-sized threshold never trips

    def test_geofence_enter_and_exit_edges(self):
        entered, exited = [], []
        box = DEFAULT_VET_REGION
        # Northern third of the vetting box: the Lissajous sweep crosses
        # its southern edge several times.
        fence = BoundingBox(
            south=box.north - (box.north - box.south) / 3.0,
            west=box.west,
            north=box.north,
            east=box.east,
        )

        def setup(ctx):
            ctx.on_region_enter(fence, lambda c: entered.append(c.now))
            ctx.on_region_exit(fence, lambda c: exited.append(c.now))

        task = v2_task(setup)
        sim, runtime, dispatcher = synthetic_dispatcher(task, n_ticks=200)
        sim.run_until(task.start + 200 * task.sampling_period)
        assert entered and exited
        # Edges alternate: between two enters there is an exit.
        merged = sorted((t, "in") for t in entered) + sorted((t, "out") for t in exited)
        merged.sort()
        kinds = [kind for _, kind in merged]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_trigger_handler_receives_payload(self):
        payloads = []

        def setup(ctx):
            ctx.on_location_changed(100.0, lambda c: payloads.append(c.event.value))

        task = v2_task(setup)
        sim, runtime, dispatcher = synthetic_dispatcher(task, n_ticks=50)
        sim.run_until(task.start + 50 * task.sampling_period)
        assert payloads
        assert all(task.region is None or task.region.contains(p) for p in payloads)

    def test_trigger_validation(self):
        task = v2_task(lambda ctx: None)
        sim, runtime, dispatcher = synthetic_dispatcher(task)
        with pytest.raises(PlatformError):
            dispatcher.ctx.on_battery_below(1.5, lambda c: None)
        with pytest.raises(PlatformError):
            dispatcher.ctx.on_location_changed(-5.0, lambda c: None)


# ----------------------------------------------------------------------
# TaskScript classes and adaptive composition
# ----------------------------------------------------------------------


class AdaptiveScript(TaskScript):
    """Backs sampling off 4x when the battery drops below threshold."""

    def __init__(self, base_period: float = 300.0, threshold: float = 0.5):
        self.base_period = base_period
        self.threshold = threshold
        self.timer = None
        self.backed_off_at = None

    def setup(self, ctx):
        self.timer = ctx.every(self.base_period, self._sample)
        ctx.on_battery_below(self.threshold, self._back_off)

    def _sample(self, ctx):
        ctx.save({"battery": ctx.battery.level})

    def _back_off(self, ctx):
        self.backed_off_at = ctx.now
        self.timer.reschedule(self.base_period * 4)


class TestTaskScriptClasses:
    def test_adaptive_script_backs_off(self):
        script = AdaptiveScript(base_period=300.0, threshold=0.5)
        task = v2_task(script)
        sim, runtime, dispatcher = synthetic_dispatcher(task, n_ticks=200)
        window = 200 * task.sampling_period
        sim.run_until(task.start + window)
        assert script.backed_off_at is not None
        # Sampling at 300 s for the first half, 1200 s after: clearly
        # fewer saves than the non-adaptive 200, clearly more than the
        # fully-backed-off 50.
        assert 50 < runtime.stats.samples_taken < 200

    def test_setup_error_counted(self, sim, bound_device):
        def broken_setup(ctx):
            raise ValueError("bad setup")

        task = v2_task(broken_setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        stats = bound_device.stats[task.name]
        assert stats.script_errors == 1
        assert stats.samples_taken == 0

    def test_scriptless_task_resolves_to_collect_all(self):
        script = resolve_script(SensingTask(name="t", sensors=("gps",)))
        assert type(script) is CollectAll
        assert isinstance(script, TaskScript)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


class TestScriptField:
    def test_non_script_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("gps",), script="not-a-script")  # type: ignore[arg-type]
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("gps",), script=int)  # a class, not a TaskScript


# ----------------------------------------------------------------------
# Sensor registry
# ----------------------------------------------------------------------


class TestSensorRegistry:
    def test_custom_suite_sensor_becomes_requestable(self, test_city, rng):
        from repro.apisense.sensors import (
            Sensor,
            SensorSuite,
            default_sensor_suite,
            sensor_registry,
        )

        class Co2Sensor(Sensor):
            name = "co2"

            def read(self, device, time, rng):
                return 400.0

        base = default_sensor_suite(test_city, rng)
        assert "co2" not in sensor_registry
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("co2",))
        SensorSuite(sensors={**base.sensors, "co2": Co2Sensor()})
        assert "co2" in sensor_registry
        task = SensingTask(name="t", sensors=("co2",))
        assert task.sensors == ("co2",)

    def test_unknown_sensor_still_rejected(self):
        with pytest.raises(TaskValidationError) as error:
            SensingTask(name="t", sensors=("tricorder",))
        assert "tricorder" in str(error.value)

    def test_registry_rejects_bad_names(self):
        from repro.apisense.sensors import SensorRegistry

        registry = SensorRegistry()
        with pytest.raises(PlatformError):
            registry.register("")


# ----------------------------------------------------------------------
# Vetting the v2 lifecycle
# ----------------------------------------------------------------------


class TestV2Vetting:
    def test_v2_script_vets_with_per_handler_stats(self):
        script = AdaptiveScript(base_period=300.0, threshold=0.5)
        report = dry_run_task(v2_task(script), n_samples=200)
        assert report.acceptable()
        assert report.saves > 0
        kinds = {handler.kind for handler in report.handlers}
        assert kinds == {"timer", "battery_below"}
        assert all(h.fires > 0 for h in report.handlers)

    def test_v2_setup_crash_rejected(self):
        def broken(ctx):
            raise ValueError("bad setup")

        report = dry_run_task(v2_task(broken))
        assert report.setup_error is not None
        assert not report.acceptable()

    def test_undeclared_sensor_read_rejected_by_vetting(self):
        """A script reading beyond its declared sensors collects nothing
        fleet-wide; vetting must reject it, not wave it through."""

        def setup(ctx):
            ctx.every(300.0, lambda c: c.save({"rssi": c.network.rssi}))

        report = dry_run_task(v2_task(setup, sensors=("gps",)))
        assert report.error_rate == 1.0
        assert not report.acceptable()
        assert any("did not declare" in message for message in report.error_messages)

    def test_v2_crashing_handler_rejected(self):
        def setup(ctx):
            def bad(c):
                raise RuntimeError("boom")

            ctx.every(300.0, bad)

        report = dry_run_task(v2_task(setup))
        assert report.error_rate == 1.0
        assert not report.acceptable()

    def test_region_task_vetted_inside_its_fence(self):
        fence = BoundingBox(south=40.0, west=2.0, north=40.1, east=2.1)
        outside = []

        def check_inside(ctx):
            values = ctx.read_all()
            if not fence.contains(values["gps"]):
                outside.append(values["gps"])
                return
            ctx.save(values)

        def setup(ctx):
            ctx.every(ctx.task.sampling_period, check_inside)

        task = SensingTask(name="fenced", sensors=("gps",), region=fence, script=setup)
        report = dry_run_task(task, n_samples=100)
        assert outside == []
        assert report.drop_rate == 0.0

    def test_deploy_vets_v2_scripts(self, sim, hive):
        from repro.apisense.honeycomb import Honeycomb

        def broken(ctx):
            def bad(c):
                raise RuntimeError("kaput")

            ctx.every(60.0, bad)

        honeycomb = Honeycomb("lab", hive)
        with pytest.raises(TaskValidationError):
            honeycomb.deploy(v2_task(broken, name="kaput"), vet=True)
        honeycomb.deploy(
            v2_task(AdaptiveScript(), name="fine"), vet=True
        )
        assert len(honeycomb.tasks) == 1


# ----------------------------------------------------------------------
# Quiet hours and region gating for v2 timers
# ----------------------------------------------------------------------


class TestGating:
    def test_quiet_hours_suppress_v2_timers(self, sim, fake_hive, small_population, sensor_suite):
        from repro.apisense.preferences import UserPreferences

        device = build_device(
            small_population,
            sensor_suite,
            preferences=UserPreferences(quiet_hours=((0.0, 23 * HOUR),)),
        )
        device.bind(sim, fake_hive)

        def setup(ctx):
            ctx.every(300.0, lambda c: c.save({"battery": c.battery.level}))

        task = v2_task(setup, end=12 * HOUR)
        device.offer_task(task, 1.0)
        sim.run_until(12 * HOUR)
        stats = device.stats[task.name]
        assert stats.samples_taken == 0
        assert stats.samples_filtered > 0

    def test_region_fence_gates_v2_timers(self, sim, bound_device):
        far = BoundingBox(south=10.0, west=10.0, north=11.0, east=11.0)

        def setup(ctx):
            ctx.every(300.0, lambda c: c.save({"gps": c.location.current}))

        task = v2_task(setup, end=6 * HOUR, region=far)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        assert bound_device.stats[task.name].samples_taken == 0

    def test_region_fence_gates_trigger_driven_saves(self, sim, bound_device):
        """Trigger handlers may *fire* outside the fence, but their
        saves are dropped — the v1 'collect only inside' invariant."""
        far = BoundingBox(south=10.0, west=10.0, north=11.0, east=11.0)
        fired = []

        def setup(ctx):
            def on_move(c):
                fired.append(c.now)
                c.save({"gps": c.event.value})

            ctx.on_location_changed(10.0, on_move)

        task = v2_task(setup, end=6 * HOUR, region=far)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        assert fired  # the device moved, the trigger fired...
        assert bound_device.stats[task.name].samples_taken == 0  # ...fenced


# ----------------------------------------------------------------------
# NaN periods: a script's 0/0 may not starve the simulation
# ----------------------------------------------------------------------


class TestNanPeriods:
    """``nan < 1.0`` is false, so a NaN period used to pass the sampling
    floor, reach ``Simulator.schedule_at`` and sit at the heap's root for
    ever after: every later event of every device silently never fired."""

    def test_every_nan_is_a_contained_setup_error(self, sim, bound_device):
        elsewhere = []

        def setup(ctx):
            ctx.every(float("nan"), lambda c: None)

        task = v2_task(setup, end=2 * HOUR)
        bound_device.offer_task(task, 1.0)
        sim.schedule_at(600.0, lambda: elsewhere.append(sim.now))
        sim.run_until(task.end)
        dispatcher = bound_device.dispatcher(task.name)
        assert dispatcher.setup_error.startswith("PlatformError")
        assert bound_device.stats[task.name].script_errors == 1
        assert elsewhere == [600.0]

    def test_reschedule_nan_is_a_counted_script_error(self, sim, bound_device):
        fired = []

        def setup(ctx):
            def tick(c):
                fired.append(c.now)
                timer.reschedule(0.0 * float("inf"))  # an adaptive 0/0

            timer = ctx.every(300.0, tick)

        task = v2_task(setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end)
        assert fired == [300.0 * k for k in range(1, 13)]  # the period stands
        assert bound_device.stats[task.name].script_errors == 12

    def test_reschedule_nan_from_outside_leaves_the_pending_firing(self, sim, bound_device):
        fired, handles = [], {}

        def setup(ctx):
            handles["timer"] = ctx.every(300.0, lambda c: fired.append(c.now))

        task = v2_task(setup, end=HOUR)
        bound_device.offer_task(task, 1.0)
        with pytest.raises(PlatformError):
            handles["timer"].reschedule(float("nan"))
        sim.run_until(900.0)
        assert fired == [300.0, 600.0, 900.0]


# ----------------------------------------------------------------------
# One copy per record, and it is save()'s
# ----------------------------------------------------------------------


class TestOneCopyPerRecord:
    def test_a_mapping_mutated_and_saved_again_is_stored_as_saved(
        self, sim, fake_hive, bound_device
    ):
        def setup(ctx):
            sample = {}

            def tick(c):
                sample["battery"] = c.now  # one dict, re-used every tick
                c.save(sample)

            ctx.every(300.0, tick)

        task = v2_task(setup, end=HOUR, upload_period=HOUR)
        bound_device.offer_task(task, 1.0)
        sim.run_until(task.end + task.upload_period)
        rows = [row for *_, chunk in fake_hive.uploads for row in chunk.rows]
        # Each row was read at save time (uploads carry rows: the scalar
        # comes back as ``value``).
        assert [value for *_, value in rows] == [time for time, *_ in rows]
        assert len(rows) == 12

    @pytest.mark.parametrize("chain", ["blur", "field-drop"])
    def test_filters_never_write_to_the_scripts_mapping(
        self, chain, sim, fake_hive, small_population, sensor_suite
    ):
        from repro.apisense.filters import FieldDropFilter, PrivacyFilterChain
        from repro.apisense.preferences import UserPreferences

        device = build_device(
            small_population, sensor_suite, preferences=UserPreferences(blur_cell_m=400.0)
        )
        if chain == "field-drop":
            device._filters = PrivacyFilterChain([FieldDropFilter(frozenset({"battery"}))])
        device.bind(sim, fake_hive)
        saved = []

        def setup(ctx):
            def tick(c):
                sample = {"gps": c.location.current, "battery": c.battery.level}
                saved.append((sample, dict(sample)))
                c.save(sample)

            ctx.every(300.0, tick)

        task = v2_task(setup, end=HOUR, upload_period=HOUR)
        device.offer_task(task, 1.0)
        sim.run_until(task.end + task.upload_period)
        rows = [row for *_, chunk in fake_hive.uploads for row in chunk.rows]
        assert len(rows) == len(saved) == 12
        assert all(sample == as_saved for sample, as_saved in saved)
        for (_, lat, lon, value), (sample, _) in zip(rows, saved):
            gps = sample["gps"]
            if chain == "blur":
                assert (lat, lon) != (gps.lat, gps.lon)
                assert value == sample["battery"]
            else:
                assert (lat, lon) == (gps.lat, gps.lon) and value != value


class TestSensorRecordIsAValue:
    """``SensorRecord`` is frozen and slotted; what the tiers do to one
    must keep working without an instance ``__dict__``."""

    def record(self, values):
        from repro.apisense.device import SensorRecord

        return SensorRecord("dev-0", "alice", "t", 12.5, values)

    def test_replace_equality_and_no_instance_dict(self):
        import dataclasses

        from repro.geo.point import GeoPoint

        record = self.record({"gps": GeoPoint(1.0, 2.0), "rssi": -70.0})
        traced = dataclasses.replace(record, trace_id=7)  # the gateway's stamp
        assert traced.trace_id == 7 and record.trace_id is None
        assert traced.values is record.values
        assert traced != record
        assert dataclasses.replace(traced, trace_id=None) == record
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.time = 0.0

    def test_hashable_when_its_values_are(self):
        class FrozenValues(dict):
            def __hash__(self):
                return hash(frozenset(self.items()))

        one = self.record(FrozenValues(rssi=-70.0))
        assert hash(one) == hash(self.record(FrozenValues(rssi=-70.0)))
        assert len({one, self.record(FrozenValues(rssi=-70.0))}) == 1
        with pytest.raises(TypeError):
            hash(self.record({"rssi": -70.0}))

    def test_pickle_round_trip(self):
        import pickle

        from repro.geo.point import GeoPoint

        record = self.record({"gps": GeoPoint(1.0, 2.0), "rssi": -70.0})
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
