"""Pinned campaign outcomes: what a device campaign stores, bit for bit.

The device tier's per-sample path (simulator kernel, timers, dispatcher,
task context, device runtime, battery) and the per-flush sketch feed are
performance-critical and therefore rewritten from time to time.  This
file pins what a small campaign of the e2e benchmark's ``device_campaign``
shape *computes* at seeds 2014 and 7919, in two sha256 digests:

- the outcome digest: the store's columns and user names, every closed
  window's counts, cells, bounds and value sum, every device's runtime
  counters and final battery level, and the Hive's message count;
- the quantile digest: every closed window's lag and value percentiles
  (p50, p95), which belong to the sketch rather than to the campaign.

A third pin, the mechanics pin, holds the simulator's event count
alone: it says how the campaign was computed (how many heap events the
device tier schedules), not what it computed, so a change to the
scheduling mechanics may move it while both digests stay put.

Beside the digests, every window's value p50/p95 is checked to lie
within the sketch's relative accuracy of the exact quantile over the
values the store holds for that window.

Floats are hashed by their IEEE-754 bytes, so one ulp of battery drift
or one reordered same-instant event moves a digest.  A digest that moves
is a finding to report, not a constant to update.

CI runs this file again under ``PYTHONHASHSEED=0`` and ``=1``: set and
dict iteration order may not leak into stored data or battery state.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import struct

import numpy as np
import pytest

from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.scripting import TaskContext, TaskScript
from repro.apisense.tasks import SensingTask
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.store.quantiles import RELATIVE_ACCURACY
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


def _task(sensors: tuple[str, ...], script=None) -> SensingTask:
    return SensingTask(
        name=TASK,
        sensors=sensors,
        sampling_period=SAMPLING_SECONDS,
        upload_period=UPLOAD_SECONDS,
        end=DAY,
        script=script,
    )


CASES = {
    # The benchmark's task: scriptless, one sensor, no RNG draw per sample.
    "gps": lambda: _task(("gps",)),
    # The RNG-drawing sensor and the scalar value column.
    "gps+network": lambda: _task(("gps", "network")),
    # Facade reads, a re-scheduled timer and an explicit save.
    "v2-adaptive": lambda: _task(("gps", "battery"), AdaptiveTrace),
}

#: (case, seed) -> (outcome digest, records stored, messages sent)
PINNED = {
    ("gps", 2014): (
        "b14b943b624afaacce91af9c802c2c06581481dec8b512b1cbf4cca242764419",
        1438, 102,
    ),
    ("gps", 7919): (
        "80bd3ceb832ad0cd833b78868418d0d9b97717d70ee545c72ea158ca4c568902",
        3595, 246,
    ),
    ("gps+network", 2014): (
        "a8388c30a1271cc2a17717f0c6a195d9a2c58df44f7ff5b66370cb80490f4f4c",
        1438, 102,
    ),
    ("gps+network", 7919): (
        "9b46c74b17a7509ae97042d396265e50bcae75c1159e0716885da16fc96eaacc",
        3595, 246,
    ),
    ("v2-adaptive", 2014): (
        "04e787329dac5b0894865137c099b0d2dccdfa45037f0f452db6da05f71098d2",
        1108, 102,
    ),
    ("v2-adaptive", 7919): (
        "c0be0a4321c29cb4f7a7d697d42908f7f5f133130d071db52b53c3743c564758",
        2764, 246,
    ),
}

#: (case, seed) -> simulator events processed: the mechanics pin.  A
#: scriptless task samples its ticks as a grid at upload time, so its
#: campaigns hold one event per upload, not per sample: 1438 and 3595
#: fewer events than when every tick was an event (1732, 4274), exactly
#: one per record stored.  The scripted case keeps one event per tick.
PINNED_EVENTS = {
    ("gps", 2014): 294,
    ("gps", 7919): 679,
    ("gps+network", 2014): 294,
    ("gps+network", 7919): 679,
    ("v2-adaptive", 2014): 1402,
    ("v2-adaptive", 7919): 3443,
}

#: (case, seed) -> quantile digest: the windows' lag and value p50/p95,
#: as the log-bucket sketch reads them (α = RELATIVE_ACCURACY)
PINNED_QUANTILES = {
    ("gps", 2014):
        "d790ae31baa37596f88109a9b35d1a1114ad263fb5e5949ff36abdd15037488d",
    ("gps", 7919):
        "89a46e9dbe5d3078850a84c65118fb5d4b1be1ea195d8144b531cee06d9da3c6",
    ("gps+network", 2014):
        "9c0978a5a40f48ea5b143ff20e2a11413eacb00db588e9d4ef3def96e06304e2",
    ("gps+network", 7919):
        "e79f41396f3f7667a7be4174dca07aa25b97109d345d159c5f71ddbb51d00999",
    ("v2-adaptive", 2014):
        "445d0aa5800d86dd94fc34b55a24c31ced8bd38fbaaccb0669d2ce1bfb91a91e",
    ("v2-adaptive", 7919):
        "6048076204751671c6d8353e40cfbc409b31df4ca43fd1389f4ccccca504be59",
}


def _floats(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@functools.lru_cache(maxsize=None)
def run_pinned_campaign(case: str, seed: int) -> tuple[str, str, int, int, int, tuple]:
    """Run one pinned campaign; ``(outcome digest, quantile digest,
    stored, messages, events, percentiles)``.

    ``percentiles`` holds, per window with scalar values and per p in
    (0.5, 0.95), the window's value percentile beside the exact one over
    the values the store holds for the window.
    """
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
    quantiles = hashlib.sha256()
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
        digest.update(_floats(window.start, window.end, window.value_sum))
        quantiles.update(
            _floats(
                window.lag_quantile(0.5),
                window.lag_quantile(0.95),
                window.value_quantile(0.5),
                window.value_quantile(0.95),
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
    digest.update(repr(report.messages_sent).encode())
    percentiles = []
    for window in windows:
        values = hive.store.scan_time(TASK, window.start, window.end).value
        values = values[np.isfinite(values)]
        assert len(values) == window.value_count
        if len(values):
            percentiles.extend(
                (window.value_quantile(p), float(np.quantile(values, p, method="lower")))
                for p in (0.5, 0.95)
            )
    return (
        digest.hexdigest(),
        quantiles.hexdigest(),
        hive.store.n_records,
        report.messages_sent,
        report.events_processed,
        tuple(percentiles),
    )


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED))
def test_campaign_outcome_is_pinned(case: str, seed: int) -> None:
    digest, _quantiles, stored, messages, _events, _ = run_pinned_campaign(case, seed)
    assert (digest, stored, messages) == PINNED[(case, seed)]


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED_EVENTS))
def test_campaign_mechanics_are_pinned(case: str, seed: int) -> None:
    assert run_pinned_campaign(case, seed)[4] == PINNED_EVENTS[(case, seed)]


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED_QUANTILES))
def test_campaign_quantiles_are_pinned(case: str, seed: int) -> None:
    assert run_pinned_campaign(case, seed)[1] == PINNED_QUANTILES[(case, seed)]


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED))
def test_window_percentiles_are_within_alpha(case: str, seed: int) -> None:
    for reported, exact in run_pinned_campaign(case, seed)[-1]:
        assert abs(reported - exact) <= (RELATIVE_ACCURACY + 1e-12) * abs(exact)
