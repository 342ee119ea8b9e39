"""Pinned campaign outcomes: what a device campaign stores, bit for bit.

The device tier's per-sample path (simulator kernel, timers, dispatcher,
task context, device runtime, battery) and the per-flush sketch feed are
performance-critical and therefore rewritten from time to time.  This
file pins what a small campaign of the e2e benchmark's ``device_campaign``
shape *computes* at seeds 2014 and 7919: a sha256 over the store's
columns and user names, every closed window's counts, cells and lag and
value percentiles, every device's runtime counters and final battery
level, and the simulator's event and message counts.  Floats are hashed
by their IEEE-754 bytes, so one ulp of battery drift or one reordered
same-instant event moves the digest.  A digest that moves is a finding
to report, not a constant to update.

CI runs this file again under ``PYTHONHASHSEED=0`` and ``=1``: set and
dict iteration order may not leak into stored data or battery state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import pytest

from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.scripting import TaskContext, TaskScript
from repro.apisense.tasks import SensingTask
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.streams import WindowSpec
from repro.units import DAY

TASK = "gps-trace"
SAMPLING_SECONDS = 120.0
UPLOAD_SECONDS = 1800.0


class AdaptiveTrace(TaskScript):
    """A v2 script on the pinned path: ``every`` + ``reschedule`` + ``save``.

    Samples every 120 s, backs off to 240 s while the battery reads below
    95 % (from about noon until the night charge), and saves the fix
    with the level it decided on.
    """

    def setup(self, ctx: TaskContext) -> None:
        self.timer = ctx.every(SAMPLING_SECONDS, self.tick)

    def tick(self, ctx: TaskContext) -> None:
        level = ctx.battery.level
        self.timer.reschedule(
            2 * SAMPLING_SECONDS if level < 0.95 else SAMPLING_SECONDS
        )
        ctx.save({"gps": ctx.location.current, "battery": level})


def _task(sensors: tuple[str, ...], script_v2=None) -> SensingTask:
    return SensingTask(
        name=TASK,
        sensors=sensors,
        sampling_period=SAMPLING_SECONDS,
        upload_period=UPLOAD_SECONDS,
        end=DAY,
        script_v2=script_v2,
    )


CASES = {
    # The benchmark's task: scriptless, one sensor, no RNG draw per sample.
    "gps": lambda: _task(("gps",)),
    # The RNG-drawing sensor and the scalar value column.
    "gps+network": lambda: _task(("gps", "network")),
    # Facade reads, a re-scheduled timer and an explicit save.
    "v2-adaptive": lambda: _task(("gps", "battery"), AdaptiveTrace),
}

#: (case, seed) -> (digest, records stored, events processed, messages sent)
PINNED = {
    ("gps", 2014): (
        "133e5409613cee2285a9f1f43790993e509ddd15c88186a9df8caa9fdb17ebb3",
        1438, 1732, 102,
    ),
    ("gps", 7919): (
        "11b16bec2407605c9146c9f5d45724d489cc1d4323747373648dea4aa4de357e",
        3595, 4274, 246,
    ),
    ("gps+network", 2014): (
        "4b2c3810347ae7a8bfe20ab395e2ce765dfa5d6856f40af36556899b48a8c7fb",
        1438, 1732, 102,
    ),
    ("gps+network", 7919): (
        "798356547972444de6e5b1f19d5bbad997999fa7fc3818e75f0521f61aa5f88d",
        3595, 4274, 246,
    ),
    ("v2-adaptive", 2014): (
        "32517cbf9d18acb3ecf1d8d2f5883192f234f6121f4f412aac5f4206b1bc63ee",
        1108, 1402, 102,
    ),
    ("v2-adaptive", 7919): (
        "ceb9612989660f4ed205a5aaacca010a7f0fd3d3079fc0e9a9eb95952f617547",
        2764, 3443, 246,
    ),
}


def _floats(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def run_pinned_campaign(case: str, seed: int) -> tuple[str, int, int, int]:
    """Run one pinned campaign; ``(digest, stored, events, messages)``."""
    population = MobilityGenerator(
        GeneratorConfig(n_users=6, n_days=1, sampling_period=SAMPLING_SECONDS)
    ).generate(seed)
    campaign = Campaign(population, config=CampaignConfig(n_days=1, seed=seed))
    hive = campaign.hive
    hive.streams.register_view("hourly", WindowSpec.tumbling(3600.0))
    windows: list = []
    hive.streams.on_window(windows.append)
    campaign.deploy(CASES[case]())
    report = campaign.run()
    hive.streams.finalize()

    digest = hashlib.sha256()
    batch = hive.store.scan(TASK)
    for column in (batch.time, batch.lat, batch.lon, batch.value):
        digest.update(column.tobytes())
    digest.update("\n".join(batch.user_names()).encode())
    for window in windows:
        digest.update(
            repr(
                (
                    window.task,
                    window.view,
                    window.records,
                    sorted(window.user_counts.items()),
                    sorted(window.cells),
                )
            ).encode()
        )
        digest.update(
            _floats(
                window.start,
                window.end,
                window.lag_quantile(0.5),
                window.lag_quantile(0.95),
                window.value_quantile(0.5),
                window.value_quantile(0.95),
                window.value_sum,
            )
        )
    for device in campaign.devices:
        stats = device.stats.get(TASK)
        digest.update(
            repr(
                (device.device_id, stats and dataclasses.astuple(stats))
            ).encode()
        )
        digest.update(_floats(device.battery.level(campaign.sim.now)))
    digest.update(repr((report.events_processed, report.messages_sent)).encode())
    return (
        digest.hexdigest(),
        hive.store.n_records,
        report.events_processed,
        report.messages_sent,
    )


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED))
def test_campaign_outcome_is_pinned(case: str, seed: int) -> None:
    assert run_pinned_campaign(case, seed) == PINNED[(case, seed)]
