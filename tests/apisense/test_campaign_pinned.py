"""Pinned campaign outcomes: what a device campaign stores, bit for bit.

The device tier's per-sample path (simulator kernel, timers, dispatcher,
task context, device runtime, battery) and the per-flush sketch feed are
performance-critical and therefore rewritten from time to time.  This
file pins what a small campaign of the e2e benchmark's ``device_campaign``
shape *computes* at seeds 2014 and 7919, in two sha256 digests:

- the outcome digest: the store's columns and user names, every closed
  window's counts, cells, bounds and value sum, every device's runtime
  counters and final battery level, and the simulator's event and
  message counts;
- the quantile digest: every closed window's lag and value percentiles
  (p50, p95), which belong to the sketch rather than to the campaign.

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

#: (case, seed) -> (outcome digest, records stored, events processed,
#: messages sent)
PINNED = {
    ("gps", 2014): (
        "3a048fbe8ee218432f6a82c7412bca56b8c49bceb09006639efd1f3609b23129",
        1438, 1732, 102,
    ),
    ("gps", 7919): (
        "074d07585b0cfe7fb81d4e8a8f571a99c872eb09dffbaac3e6c6246f3447fd5f",
        3595, 4274, 246,
    ),
    ("gps+network", 2014): (
        "e63ddd4bdec62b8db97f8a03a979b4c80e7f13b9953d7eb2e4704496ae889b42",
        1438, 1732, 102,
    ),
    ("gps+network", 7919): (
        "17a598f1694259aa4299a83f8e0a1ab7f34bc1078eaaae63597f62457166f1b7",
        3595, 4274, 246,
    ),
    ("v2-adaptive", 2014): (
        "13aea62578828fca1eddd971f7b847663ae6adcc3980f8d233e90a0c2b6b467e",
        1108, 1402, 102,
    ),
    ("v2-adaptive", 7919): (
        "aca9fed5d94e457b3469b319773c11a094e1848894a1ce1fc9610c30d7f0d54d",
        2764, 3443, 246,
    ),
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
    stored, events, messages, percentiles)``.

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
    digest.update(repr((report.events_processed, report.messages_sent)).encode())
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
        report.events_processed,
        report.messages_sent,
        tuple(percentiles),
    )


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED))
def test_campaign_outcome_is_pinned(case: str, seed: int) -> None:
    digest, _quantiles, *counts, _percentiles = run_pinned_campaign(case, seed)
    assert (digest, *counts) == PINNED[(case, seed)]


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED_QUANTILES))
def test_campaign_quantiles_are_pinned(case: str, seed: int) -> None:
    assert run_pinned_campaign(case, seed)[1] == PINNED_QUANTILES[(case, seed)]


@pytest.mark.parametrize(("case", "seed"), sorted(PINNED))
def test_window_percentiles_are_within_alpha(case: str, seed: int) -> None:
    for reported, exact in run_pinned_campaign(case, seed)[-1]:
        assert abs(reported - exact) <= (RELATIVE_ACCURACY + 1e-12) * abs(exact)
