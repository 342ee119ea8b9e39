"""Which upload a sample taken at an upload instant rides.

A device samples on one schedule and uploads on another, and both are
repeated sums (``t + P``, ``t + U``), so with ``U`` a multiple of ``P``
a sampling tick falls on every upload instant.  The device then has to
decide whether that tick's record leaves with the upload at the same
instant or waits for the next one.  The answer is pinned here, on one
device with ideal synchronous delivery (no transport), for a task that
starts now and for one whose start lies in the future:

- ``P < U``: the tick at an upload instant rides the *next* upload;
- ``P == U``, starting now: it rides *that* upload;
- ``P == U``, starting later: it rides the next one.

The tick instants themselves are pinned as the repeated sum from the
task's start, which is what ``np.cumsum`` computes and is not
``start + k * P`` (the two differ for a period like 7.3 s).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apisense.tasks import SensingTask
from repro.simulation import Simulator
from repro.units import HOUR
from tests.apisense.conftest import build_device


class RecordingHive:
    """Keeps every upload as ``(arrival time, record times)``."""

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.uploads: list[tuple[float, list[float]]] = []

    def receive_upload(self, device_id, user, task_name, records):
        self.uploads.append((self._sim.now, [row[0] for row in records.rows]))
        return len(records)


def run_device(
    small_population, sensor_suite, period, upload, start=0.0, end=3 * HOUR
):
    sim = Simulator()
    hive = RecordingHive(sim)
    device = build_device(small_population, sensor_suite)
    device.bind(sim, hive)
    task = SensingTask(
        name="boundary",
        sensors=("gps",),
        sampling_period=period,
        upload_period=upload,
        start=start,
        end=end,
    )
    assert device.offer_task(task, 1.0)
    sim.run_until(end + 2 * upload)
    return hive.uploads, device.stats["boundary"]


def repeated_sum(start: float, period: float, end: float) -> list[float]:
    ticks, t = [], start + period
    while t <= end:
        ticks.append(t)
        t += period
    return ticks


class TestUploadBoundary:
    def test_period_below_upload_tick_rides_the_next_upload(
        self, small_population, sensor_suite
    ):
        uploads, stats = run_device(small_population, sensor_suite, 120.0, 1800.0)
        first_at, first = uploads[0]
        assert first_at == 1800.0
        assert first == [120.0 * k for k in range(1, 15)]  # 14 ticks, not 15
        second_at, second = uploads[1]
        assert second_at == 3600.0
        assert second[0] == 1800.0 and second[-1] == 3480.0
        # The tick at the task's end rides one more upload after it.
        assert uploads[-1] == (3 * HOUR + 1800.0, [3 * HOUR])
        assert stats.uploads == len(uploads) == 7

    def test_equal_periods_tick_rides_that_upload(self, small_population, sensor_suite):
        uploads, stats = run_device(small_population, sensor_suite, 1800.0, 1800.0)
        assert uploads == [(1800.0 * k, [1800.0 * k]) for k in range(1, 7)]
        assert stats.uploads == 6

    def test_future_start_equal_periods_tick_rides_the_next_upload(
        self, small_population, sensor_suite
    ):
        uploads, stats = run_device(
            small_population, sensor_suite, 1800.0, 1800.0, start=HOUR, end=4 * HOUR
        )
        # The upload at 5400 finds an empty buffer and sends nothing.
        assert uploads == [(1800.0 * (k + 1), [1800.0 * k]) for k in range(3, 9)]
        assert stats.uploads == 6

    def test_future_start_period_below_upload(self, small_population, sensor_suite):
        uploads, _ = run_device(
            small_population, sensor_suite, 120.0, 1800.0, start=HOUR, end=4 * HOUR
        )
        first_at, first = uploads[0]
        assert first_at == HOUR + 1800.0
        assert first == [HOUR + 120.0 * k for k in range(1, 15)]

    @pytest.mark.parametrize("start", [0.0, 1000.0])
    def test_tick_instants_are_the_repeated_sum(
        self, small_population, sensor_suite, start
    ):
        period, end = 7.3, 2000 * 7.3
        uploads, _ = run_device(
            small_population, sensor_suite, period, 1800.0, start=start, end=start + end
        )
        times = [t for _, batch in uploads for t in batch]
        expected = repeated_sum(start, period, start + end)
        assert times == expected
        grid = np.cumsum(np.r_[start, np.full(len(expected), period)])[1:]
        assert grid.tolist() == expected
        products = [start + k * period for k in range(1, len(expected) + 1)]
        assert products != expected
