#!/usr/bin/env python
"""The v2 Sensing Script API end to end: triggers + adaptive sampling.

An environment-quality experiment written as an event-driven script
against the paper's scripting facade, exercising three trigger kinds —
periodic timers, geofence enter/exit, and a battery threshold — plus
adaptive re-scheduling: when a device's battery drops below 40% the
script backs its own sampling timer off 4x, and restores the base rate
when the battery recovers (night charging re-arms the trigger).

The collected records flow through the full platform: device dispatcher
-> store-and-forward uplink -> Hive ingest pipeline -> columnar
DatasetStore -> Honeycomb datasets and hooks.

The module doubles as a CLI task spec::

    python -m repro task describe --spec examples/adaptive_scripting.py
    python -m repro task vet      --spec examples/adaptive_scripting.py

Run:  python examples/adaptive_scripting.py
"""

from repro.apisense import (
    BatteryModel,
    Campaign,
    CampaignConfig,
    SensingTask,
    TaskScript,
    WinWinIncentive,
)
from repro.geo.bbox import BoundingBox
from repro.mobility import GeneratorConfig, MobilityGenerator
from repro.units import DAY

#: Downtown Bordeaux: the geofence the script watches.
DOWNTOWN = BoundingBox(south=44.82, west=-0.60, north=44.85, east=-0.56)

BASE_PERIOD = 300.0
BACKOFF_FACTOR = 4.0
LOW_BATTERY = 0.4


class AdaptiveEnvironmentScript(TaskScript):
    """Sample network quality, densify downtown, back off on low battery."""

    def __init__(self):
        self.timer = None
        self.backoffs = 0
        self.geofence_events = 0

    def setup(self, ctx):
        self.timer = ctx.every(BASE_PERIOD, self.sample)
        ctx.on_battery_below(LOW_BATTERY, self.back_off)
        ctx.on_region_enter(DOWNTOWN, self.entered_downtown)
        ctx.on_region_exit(DOWNTOWN, self.left_downtown)

    def sample(self, ctx):
        # Restore the base rate once the battery has recovered (the
        # battery trigger re-arms above the threshold at the same time).
        if self.timer.period != BASE_PERIOD and ctx.battery.level >= LOW_BATTERY:
            self.timer.reschedule(BASE_PERIOD)
        ctx.save(
            {
                "gps": ctx.location.current,
                "network": ctx.network.rssi,
                "battery": ctx.battery.level,
            }
        )

    def back_off(self, ctx):
        self.backoffs += 1
        self.timer.reschedule(BASE_PERIOD * BACKOFF_FACTOR)

    def entered_downtown(self, ctx):
        self.geofence_events += 1
        ctx.save({"gps": ctx.event.value, "event": "enter-downtown"})

    def left_downtown(self, ctx):
        self.geofence_events += 1
        ctx.save({"gps": ctx.event.value, "event": "exit-downtown"})


def build_task() -> SensingTask:
    """The task spec (also what ``python -m repro task vet`` loads)."""
    return SensingTask(
        name="adaptive-env",
        sensors=("gps", "network", "battery"),
        sampling_period=BASE_PERIOD,
        upload_period=1800.0,
        end=3 * DAY,
        # A class, not an instance: every device instantiates its own
        # script, so per-device state (the timer handle) never collides.
        script=AdaptiveEnvironmentScript,
    )


def main() -> None:
    population = MobilityGenerator(
        GeneratorConfig(n_users=15, n_days=3, sampling_period=120.0)
    ).generate(seed=11)

    campaign = Campaign(
        population,
        incentive=WinWinIncentive(),
        # Heavy-use phones: full at dawn, below the script's 40%
        # threshold by late afternoon, recharged overnight — so the
        # back-off / restore cycle runs daily on every device.
        config=CampaignConfig(
            n_days=3,
            seed=4,
            battery_model=BatteryModel(baseline_drain_per_hour=0.06),
        ),
    )
    task = build_task()
    honeycomb = campaign.deploy(task)
    report = campaign.run()

    print(
        f"campaign: {report.total_records} records from {report.n_devices} devices "
        f"(acceptance {report.acceptance_rate_per_task[task.name]:.0%})"
    )

    # What the adaptive scripts did, device by device.
    backoffs = geofence_events = 0
    for device in campaign.devices:
        if task.name not in device.stats:
            continue
        try:
            dispatcher = device.dispatcher(task.name)
        except Exception:
            continue  # task already wound down on this device
        for stats in dispatcher.handler_stats:
            if stats.kind == "battery_below":
                backoffs += stats.fires
            elif stats.kind in ("region_enter", "region_exit"):
                geofence_events += stats.fires
    print(f"adaptive back-offs across the fleet: {backoffs}")
    print(f"geofence enter/exit events: {geofence_events}")

    # The same data, server side: pipeline -> columnar store -> Honeycomb.
    store_stats = campaign.hive.store.stats()
    print(
        f"store: {store_stats.records} records in {store_stats.segments} segments "
        f"/ {store_stats.n_shards} shards"
    )
    aggregate = honeycomb.aggregate(task.name)
    if aggregate is not None:
        print(f"streaming aggregate: {aggregate.records} records")
    downtown_view = honeycomb.dataset_view(
        task.name, bbox=(DOWNTOWN.south, DOWNTOWN.west, DOWNTOWN.north, DOWNTOWN.east)
    )
    print(f"downtown scan: {len(downtown_view)} records inside the geofence")
    print(f"honeycomb datasets: {honeycomb.n_records(task.name)} records")


if __name__ == "__main__":
    main()
