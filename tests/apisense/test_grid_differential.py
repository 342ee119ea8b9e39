"""Differential oracle: a scriptless task's tick grid against the per-tick path.

A scriptless task runs :class:`~repro.apisense.scripting.CollectAll`,
whose timer a device samples as a grid: every tick since it last
settled, in one pass, with no simulator event per tick.  ``PerTick``
below is the same policy written as an ordinary script
(``ctx.save(ctx.read_all())``), which keeps one event per tick.  The
same deployment runs once with each, and everything the platform
computes must be identical — stored columns, closed windows, every
device's counters, handler stats, buffered rows, final battery bytes
and RNG states, the transport's and the gateway's counters — while the
grid run processes fewer simulator events.

Hypothesis draws the sampling and upload periods and the start, the
sensors, the user's privacy preferences (quiet hours, a forbidden zone,
a blur cell), uplink loss, ``reject`` backpressure, multi-day churn and
rejoin, a second task on every device (scriptless in the grid run, or a
``PerTick`` or ``Triggered`` script in both runs: a scripted task and a
grid then share the battery and the RNG) and a virtual-sensor read at a
tick instant.  The examples
are derandomized (``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import struct

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apisense.battery import BatteryModel
from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.preferences import UserPreferences
from repro.apisense.scheduling import RoundRobinStrategy
from repro.apisense.scripting import TaskContext, TaskScript
from repro.apisense.tasks import SensingTask
from repro.apisense.virtual_sensor import VirtualSensor
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.streams import WindowSpec
from repro.units import DAY, HOUR

N_DAYS = 2


class PerTick(TaskScript):
    """CollectAll's policy on the per-tick path: one event per tick."""

    def setup(self, ctx: TaskContext) -> None:
        ctx.every(ctx.task.sampling_period, self._tick)

    def _tick(self, ctx: TaskContext) -> None:
        ctx.save(ctx.read_all())


class Triggered(TaskScript):
    """A second task's script with trigger ticks and an adaptive timer:
    its events are scheduled at other instants than a timer's."""

    def setup(self, ctx: TaskContext) -> None:
        self._timer = ctx.every(ctx.task.sampling_period, self._tick)
        ctx.on_location_changed(50.0, self._moved)
        ctx.on_battery_below(0.9999, self._back_off)

    def _tick(self, ctx: TaskContext) -> None:
        ctx.save({"battery": ctx.battery.level(), "gps": ctx.location.current()})

    def _moved(self, ctx: TaskContext) -> None:
        ctx.save({"network": ctx.network.rssi()})

    def _back_off(self, ctx: TaskContext) -> None:
        self._timer.reschedule(3 * ctx.task.sampling_period)


@functools.lru_cache(maxsize=None)
def population():
    config = GeneratorConfig(n_users=2, n_days=N_DAYS, sampling_period=120.0)
    return MobilityGenerator(config).generate(seed=11)


SENSORS = (
    ("gps",),
    ("gps", "network"),
    ("gps", "battery"),
    ("gps", "network", "battery", "accelerometer"),
)

scenarios = st.fixed_dictionaries(
    {
        "period": st.sampled_from([60.0, 97.3, 120.0, 300.0]),
        "uploads_per_period": st.sampled_from([1.0, 2.0, 2.5, 15.0]),
        "start": st.sampled_from([0.0, HOUR, 5000.5]),
        "sensors": st.sampled_from(SENSORS),
        "quiet_hours": st.booleans(),
        "forbidden_zone": st.booleans(),
        "blur": st.booleans(),
        "low_battery": st.booleans(),
        "uplink_loss": st.sampled_from([0.0, 0.3]),
        "reject": st.booleans(),
        "churn": st.booleans(),
        "second_task": st.sampled_from(
            [None, "same", "double", "half", "later", "other"]
        ),
        "second_script": st.sampled_from(["same", "per_tick", "triggered"]),
        "virtual_read": st.booleans(),
        "seed": st.integers(0, 3),
    }
)


def tasks_of(scenario: dict, script) -> list[SensingTask]:
    period, start = scenario["period"], scenario["start"]
    tasks = [
        SensingTask(
            name="grid",
            sensors=scenario["sensors"],
            sampling_period=period,
            upload_period=period * scenario["uploads_per_period"],
            start=start,
            end=N_DAYS * DAY - 1000.0,
            script=script,
        )
    ]
    second = scenario["second_task"]
    if second is not None:
        # "same" ticks at every instant of the first task, "double" at
        # every other one, "half" twice per period, "later" joins a
        # delayed first task's grid ten ticks in (set up before that
        # instant's tick, so it ticks first from then on); "other"
        # shares nothing but the device.
        later = start
        for _ in range(10):
            later += period
        period2, start2 = {
            "same": (period, start),
            "double": (2 * period, start),
            "half": (period / 2, start),
            "later": (period, later),
            "other": (150.0, 0.0),
        }[second]
        tasks.append(
            SensingTask(
                name="second",
                # Its value column is the battery level after the drain:
                # which task ticks first at a shared instant shows there.
                sensors=("gps", "battery", "network"),
                sampling_period=period2,
                upload_period=4 * period2,
                start=start2,
                end=N_DAYS * DAY,
                script={"same": script, "per_tick": PerTick, "triggered": Triggered}[
                    scenario["second_script"]
                ],
            )
        )
    return tasks


def preferences_of(scenario: dict) -> dict[str, UserPreferences]:
    data = population().dataset
    preferences = {}
    for user in data.users:
        first = data.get(user).point_at_time(0.0)
        preferences[user] = UserPreferences(
            quiet_hours=((22 * HOUR, 2 * HOUR),) if scenario["quiet_hours"] else (),
            forbidden_zones=((first, 400.0),) if scenario["forbidden_zone"] else (),
            blur_cell_m=250.0 if scenario["blur"] else 0.0,
        )
    return preferences


def counters(device) -> dict:
    """A device's task counters."""
    return {name: dataclasses.astuple(stats) for name, stats in device.stats.items()}


def handlers(device) -> dict:
    """The handler stats of a device's running tasks."""
    return {
        name: [dataclasses.astuple(h) for h in device.dispatcher(name).handler_stats]
        for name in device.running_tasks
    }


def run_world(scenario: dict, script) -> dict:
    """One deployment; what it computed, keyed by part, as exact reprs."""
    config = CampaignConfig(
        n_days=N_DAYS,
        seed=scenario["seed"],
        uplink_loss=scenario["uplink_loss"],
        daily_churn=0.9 if scenario["churn"] else 0.0,
        rejoin_factor=1.0,
        initial_battery=(0.001, 0.02) if scenario["low_battery"] else (0.5, 1.0),
        battery_model=BatteryModel(charge_per_hour=0.05)
        if scenario["low_battery"]
        else BatteryModel(),
    )
    campaign = Campaign(population(), config=config, preferences=preferences_of(scenario))
    hive = campaign.hive
    if scenario["reject"]:
        # A small gateway that holds batches for a while: concurrent
        # uploads bounce and ride the device's next upload.
        hive.pipeline.policy = "reject"
        hive.pipeline.buffer_capacity = 20
        hive.pipeline.flush_delay = 40.0
    hive.streams.register_view("hourly", WindowSpec.tumbling(HOUR))
    windows: list = []
    hive.streams.on_window(windows.append)
    tasks = tasks_of(scenario, script)
    for task in tasks:
        campaign.deploy(task)
    reads = []
    if scenario["virtual_read"]:
        # Mid-run readers at two of the first task's tick instants (the
        # grid of a delayed start is the repeated sum from its start),
        # each reaching the devices through one settle point first: the
        # handler stats, then the counters, then a virtual sensor.
        at = scenario["start"]
        for _ in range(7):
            at += scenario["period"]
        campaign.sim.run_until(at)
        reads.append([handlers(device) for device in campaign.devices])
        campaign.sim.run_until(at + scenario["period"])
        reads.append([counters(device) for device in campaign.devices])
        sensor = VirtualSensor(
            "vs", "network", campaign.devices, RoundRobinStrategy(), campaign.sim
        )
        reads += [sensor.read(), sensor.read(), sensor.battery_levels()]
    report = campaign.run()
    hive.streams.finalize()

    now = campaign.sim.now
    out: dict[str, object] = {"reads": repr(reads), "messages": report.messages_sent}
    for task in tasks:
        batch = hive.store.scan(task.name)
        out[f"store/{task.name}"] = (
            b"".join(
                column.tobytes()
                for column in (batch.time, batch.lat, batch.lon, batch.value)
            ),
            batch.user_names(),
        )
    out["windows"] = repr(
        [
            (
                window.task,
                window.records,
                sorted(window.user_counts.items()),
                sorted(window.cells),
                struct.pack("<3d", window.start, window.end, window.value_sum),
            )
            for window in windows
        ]
    )
    for device in campaign.devices:
        out[device.device_id] = repr(
            (
                counters(device),
                handlers(device),
                struct.pack("<d", device.battery.level(now)),
                device._rng.bit_generator.state,
                dict(device._buffers),  # (time, lat, lon, value) rows
            )
        )
    out["transport"] = repr(
        (hive.transport._rng.bit_generator.state, hive.transport.stats)
    )
    out["pipeline"] = repr(hive.pipeline.stats)
    out["events"] = report.events_processed
    # Whether any device ever ran the first task (no user may accept).
    out["started"] = any(tasks[0].name in device.stats for device in campaign.devices)
    return out


#: A second task joining a delayed first task's grid: its setup event
#: was scheduled at the offer, long before the first task's tick at that
#: instant, so from then on it ticks first at every shared instant.
JOINS_FIRST = {
    "period": 60.0,
    "uploads_per_period": 2.0,
    "start": HOUR,
    "sensors": ("gps", "network"),
    "quiet_hours": False,
    "forbidden_zone": False,
    "blur": False,
    "low_battery": False,
    "uplink_loss": 0.0,
    "reject": False,
    "churn": False,
    "second_task": "later",
    "second_script": "same",
    "virtual_read": True,
    "seed": 0,
}

#: A grid at P beside a scripted task at 2P, both set up at the same
#: delayed start (an offer's delivery latency would put two chains
#: started at once off each other's instants): at a shared instant the
#: scripted tick was scheduled one 2P earlier, before the grid's tick
#: (one P earlier), so it drains the battery and draws the RNG first.
SCRIPTED_AT_TWICE_THE_PERIOD = {
    **JOINS_FIRST,
    "second_task": "double",
    "second_script": "per_tick",
}

#: The same at half the period: the grid's tick goes first.
SCRIPTED_AT_HALF_THE_PERIOD = {
    **SCRIPTED_AT_TWICE_THE_PERIOD,
    "second_task": "half",
}

#: A trigger script at 2P whose timer backs off: trigger ticks and a
#: rescheduled timer beside the grid.
TRIGGERED_AT_TWICE_THE_PERIOD = {
    **SCRIPTED_AT_TWICE_THE_PERIOD,
    "second_script": "triggered",
}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios)
@example(scenario=JOINS_FIRST)
@example(scenario=SCRIPTED_AT_TWICE_THE_PERIOD)
@example(scenario=SCRIPTED_AT_HALF_THE_PERIOD)
@example(scenario=TRIGGERED_AT_TWICE_THE_PERIOD)
def test_grid_equals_per_tick_path(scenario: dict) -> None:
    grid = run_world(scenario, None)
    per_tick = run_world(scenario, PerTick)
    grid_events, tick_events = grid.pop("events"), per_tick.pop("events")
    for part in per_tick:
        assert grid[part] == per_tick[part], part
    # The oracle is not vacuous: where the first task ran, the grid run
    # saved its ticks' events.
    if grid["started"]:
        assert grid_events < tick_events
    else:
        assert grid_events == tick_events
