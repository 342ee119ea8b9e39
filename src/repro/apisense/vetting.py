"""Task script vetting: dry-run a task before offering it to the crowd.

The real APISENSE vets uploaded JavaScript before offloading it onto
phones.  The reproduction's equivalent runs the task's *full script
lifecycle* on the Honeycomb: a :class:`~repro.apisense.scripting.
TaskDispatcher` drives the task's script (or
:class:`~repro.apisense.scripting.CollectAll` for a scriptless task)
over a :class:`SyntheticRuntime` that synthesizes a trajectory and
sensor streams, so a crashing, idle or over-aggressive script (and a
trigger handler that never fires cleanly) is caught before it wastes a
single device's battery.

The synthetic trajectory is drawn *inside the task's own region* when
the task has one, so region-fenced scripts are vetted against points
within their fence, and geofence / location-change triggers actually
exercise.  The synthetic battery discharges across the vetting window,
so ``on_battery_below`` handlers fire too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.apisense.scripting import (
    HandlerStats,
    ScriptRuntime,
    TaskDispatcher,
    TaskRuntimeStats,
)
from repro.apisense.tasks import SensingTask
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.simulation import Simulator

#: Where vetting walks a task that has no region of its own (Bordeaux,
#: the paper deployment's city).
DEFAULT_VET_REGION = BoundingBox(south=44.75, west=-0.63, north=44.85, east=-0.53)


@dataclass(frozen=True)
class HandlerReport:
    """Vetting outcome of one registered handler."""

    handler: str
    kind: str
    fires: int
    errors: int
    saves: int


@dataclass
class DryRunReport:
    """Outcome of vetting one task."""

    task: str
    samples: int
    errors: int = 0
    dropped: int = 0
    saves: int = 0
    error_messages: list[str] = field(default_factory=list)
    handlers: tuple[HandlerReport, ...] = ()
    setup_error: str | None = None

    @property
    def error_rate(self) -> float:
        return self.errors / self.samples if self.samples else 0.0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.samples if self.samples else 0.0

    def acceptable(self, max_error_rate: float = 0.01, max_drop_rate: float = 0.95) -> bool:
        """Platform policy: scripts may filter but not crash or drop all.

        A script whose setup crashes or registers no handler would
        collect nothing and is rejected outright; one erroring on more
        than ``max_error_rate`` of handler firings is buggy; one dropping
        (returning without ``ctx.save``) on more than ``max_drop_rate``
        would waste the crowd's battery for almost no data.
        """
        if self.setup_error is not None or not self.handlers:
            return False
        return self.error_rate <= max_error_rate and self.drop_rate <= max_drop_rate

    def to_text(self) -> str:
        """Human-readable report (the ``task vet`` CLI output)."""
        lines = [
            f"dry run of task {self.task!r}: "
            f"{self.samples} handler firings, {self.saves} saves, "
            f"{self.errors} errors ({self.error_rate:.0%}), "
            f"{self.dropped} dropped ({self.drop_rate:.0%})",
        ]
        if self.setup_error is not None:
            lines.append(f"  setup FAILED: {self.setup_error}")
        elif not self.handlers:
            lines.append("  setup registered no handler: the task would collect nothing")
        for handler in self.handlers:
            lines.append(
                f"  {handler.handler}: {handler.fires} fires, "
                f"{handler.saves} saves, {handler.errors} errors"
            )
        for message in self.error_messages:
            lines.append(f"  error: {message}")
        lines.append(f"verdict: {'ACCEPTABLE' if self.acceptable() else 'REJECTED'}")
        return "\n".join(lines)


def _synthetic_values(
    sensors: tuple[str, ...],
    rng: np.random.Generator,
    region: BoundingBox | None = None,
) -> dict[str, object]:
    """One plausible sample for each requested sensor.

    GPS points are drawn inside ``region`` (the task's own fence) when
    given, so region-filtering scripts are not vetted against points
    outside their fence; the default is the Bordeaux deployment box.
    """
    box = region or DEFAULT_VET_REGION
    values: dict[str, object] = {}
    for sensor in sensors:
        if sensor == "gps":
            values["gps"] = GeoPoint(
                float(rng.uniform(box.south, box.north)),
                float(rng.uniform(box.west, box.east)),
            )
        elif sensor == "battery":
            values["battery"] = float(rng.uniform(0.0, 1.0))
        elif sensor == "network":
            values["network"] = float(rng.uniform(-120.0, -40.0))
        elif sensor == "accelerometer":
            values["accelerometer"] = float(abs(rng.normal(0.0, 5.0)))
        else:  # registry sensors beyond the built-ins: hand *something*
            values[sensor] = float(rng.uniform(0.0, 1.0))
    return values


class SyntheticRuntime(ScriptRuntime):
    """Dispatcher host for vetting: synthetic trajectory + sensor streams.

    The trajectory is a smooth Lissajous walk inside the vetting region
    (several box traversals over the window, so location-change and
    geofence triggers fire); the battery discharges linearly from full
    to nearly empty (so ``on_battery_below`` fires once).  Emitted
    samples are only counted — there is no privacy chain on the
    Honeycomb side of vetting.
    """

    def __init__(self, task: SensingTask, sim: Simulator, window: float, seed: int = 0):
        self.sim = sim
        self.stats = TaskRuntimeStats()
        self._task = task
        self._rng = np.random.default_rng(seed)
        self._region = task.region or DEFAULT_VET_REGION
        self._t0 = task.start
        self._window = max(window, task.sampling_period)
        self._phase_lat = float(self._rng.uniform(0.0, 2.0 * math.pi))
        self._phase_lon = float(self._rng.uniform(0.0, 2.0 * math.pi))

    def position(self, time: float) -> GeoPoint:
        box = self._region
        lat_c = (box.south + box.north) / 2.0
        lon_c = (box.west + box.east) / 2.0
        lat_amp = (box.north - box.south) / 2.0 * 0.95
        lon_amp = (box.east - box.west) / 2.0 * 0.95
        # Two traversals one way, three the other: a Lissajous sweep
        # that covers the box and crosses any interior geofence.
        progress = (time - self._t0) / self._window
        return GeoPoint(
            lat_c + lat_amp * math.sin(2.0 * math.pi * 2.0 * progress + self._phase_lat),
            lon_c + lon_amp * math.sin(2.0 * math.pi * 3.0 * progress + self._phase_lon),
        )

    def battery_level(self, time: float) -> float:
        progress = min(1.0, max(0.0, (time - self._t0) / self._window))
        return 1.0 - 0.95 * progress

    def in_quiet_hours(self, time: float) -> bool:
        return False

    def acquire(self, sensors: tuple[str, ...], time: float) -> bool:
        return True

    def read_sensor(self, name: str, time: float) -> object:
        if name == "gps":
            return self.position(time)
        if name == "battery":
            return self.battery_level(time)
        return _synthetic_values((name,), self._rng, self._region)[name]

    def emit(self, values: Mapping[str, object], time: float) -> bool:
        self.stats.samples_taken += 1
        return True


def dry_run_task(task: SensingTask, n_samples: int = 200, seed: int = 0) -> DryRunReport:
    """Vet a task by running its full lifecycle through the dispatcher.

    The dispatcher executes the task's script for ``n_samples``
    sampling periods of simulated time against synthetic trajectory and
    sensor streams, counting firings, saves, drops, and errors per
    handler.  Error messages are deduplicated and capped at ten.
    """
    sim = Simulator(start_time=task.start)
    window = n_samples * task.sampling_period
    runtime = SyntheticRuntime(task, sim, window=window, seed=seed)
    dispatcher = TaskDispatcher(task, runtime)
    dispatcher.start()
    sim.run_until(min(task.end, task.start + window))
    return DryRunReport(
        task=task.name,
        samples=dispatcher.total_fires,
        errors=runtime.stats.script_errors,
        dropped=runtime.stats.samples_script_dropped,
        saves=runtime.stats.samples_taken,
        error_messages=list(dispatcher.error_messages),
        handlers=tuple(
            HandlerReport(
                handler=stats.name,
                kind=stats.kind,
                fires=stats.fires,
                errors=stats.errors,
                saves=stats.saves,
            )
            for stats in dispatcher.handler_stats
        ),
        setup_error=dispatcher.setup_error,
    )


def describe_task(task: SensingTask) -> str:
    """Static + behavioural description (the ``task describe`` CLI).

    Instantiates the script against a synthetic runtime (setup only, no
    ticks) to list the handlers it registers.
    """
    sim = Simulator(start_time=task.start)
    runtime = SyntheticRuntime(task, sim, window=task.duration, seed=0)
    dispatcher = TaskDispatcher(task, runtime)
    dispatcher.start()
    mode = "event script" if task.script is not None else "no script: CollectAll"
    lines = [
        f"task {task.name!r} [{mode}]",
        f"  sensors: {', '.join(task.sensors)}",
        f"  sampling period: {task.sampling_period:.0f}s, "
        f"upload period: {task.upload_period:.0f}s",
        f"  window: [{task.start:.0f}, {task.end:.0f}]s "
        f"({task.duration / 86400.0:.1f} days)",
    ]
    if task.region is not None:
        box = task.region
        lines.append(
            f"  region: [{box.south:.4f}, {box.west:.4f}] .. "
            f"[{box.north:.4f}, {box.east:.4f}]"
        )
    if dispatcher.setup_error is not None:
        lines.append(f"  setup FAILED: {dispatcher.setup_error}")
    elif dispatcher.handler_stats:
        lines.append("  handlers:")
        for stats in dispatcher.handler_stats:
            lines.append(f"    {stats.name} ({stats.kind})")
        for timer in dispatcher.timers:
            lines.append(f"    timer period {timer.period:.0f}s")
    dispatcher.cancel()
    return "\n".join(lines)
