"""Crowd-sensing task descriptions — the platform's "scripts".

The real APISENSE describes tasks as JavaScript offloaded to phones.  The
reproduction keeps the same contract — *a task is data plus behaviour* —
as a declarative dataclass whose ``script`` is an event-driven script (a
:class:`~repro.apisense.scripting.TaskScript` or bare ``setup(ctx)``
function) that registers timers, sensor-change triggers, and geofence
handlers against a :class:`~repro.apisense.scripting.TaskContext`.  A
task without one runs :class:`~repro.apisense.scripting.CollectAll`.

The static validation performed here plays the role of the Honeycomb's
script vetting step; which sensors are requestable is decided by the
:data:`~repro.apisense.sensors.sensor_registry`, so custom sensors added
to a :class:`~repro.apisense.sensors.SensorSuite` become requestable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TaskValidationError
from repro.geo.bbox import BoundingBox
from repro.units import DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.scripting import SetupFn, TaskScript

#: The built-in sensors every stock device ships with.  Kept for
#: backwards compatibility; validation consults the live
#: :data:`~repro.apisense.sensors.sensor_registry`, which starts from
#: this set and grows as sensor suites register custom sensors.
KNOWN_SENSORS = frozenset({"gps", "battery", "network", "accelerometer"})


@dataclass(frozen=True)
class SensingTask:
    """One deployable crowd-sensing experiment.

    Parameters
    ----------
    name:
        Unique task identifier.
    sensors:
        Sensors the task may read (must be registered in the sensor
        registry).  Scripts read them lazily through facades;
        :class:`~repro.apisense.scripting.CollectAll` reads all of them.
    sampling_period:
        Seconds between samples on each device: the trigger-evaluation
        cadence and :class:`~repro.apisense.scripting.CollectAll`'s period.
    upload_period:
        Seconds between buffer uploads from device to Hive.
    start / end:
        Campaign window in simulation seconds.
    region:
        Optional geographic fence; devices sample only inside it.
    script:
        Optional event-driven script: a ``TaskScript`` subclass
        (instantiated per device — the recommended style for stateful
        scripts), a ``TaskScript`` instance (shared across devices), or
        a bare ``setup(ctx)`` callable.  Handler exceptions are counted
        and contained — a bad script never kills collection.
    """

    name: str
    sensors: tuple[str, ...]
    sampling_period: float = 60.0
    upload_period: float = 3600.0
    start: float = 0.0
    end: float = 7 * DAY
    region: BoundingBox | None = None
    script: "type[TaskScript] | TaskScript | SetupFn | None" = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Static validation; raises :class:`TaskValidationError`."""
        from repro.apisense.sensors import sensor_registry

        if not self.name:
            raise TaskValidationError("task name must be non-empty")
        if not self.sensors:
            raise TaskValidationError(f"task {self.name!r} requests no sensors")
        unknown = {name for name in self.sensors if name not in sensor_registry}
        if unknown:
            raise TaskValidationError(
                f"task {self.name!r} requests unknown sensors {sorted(unknown)}; "
                f"registered sensors: {sorted(sensor_registry.registered())}"
            )
        if len(set(self.sensors)) != len(self.sensors):
            raise TaskValidationError(f"task {self.name!r} lists a sensor twice")
        if self.sampling_period <= 0:
            raise TaskValidationError(
                f"task {self.name!r}: sampling period must be positive"
            )
        if self.sampling_period < 1.0:
            raise TaskValidationError(
                f"task {self.name!r}: sampling faster than 1 Hz would drain "
                "batteries in hours; rejected by platform policy"
            )
        if self.upload_period < self.sampling_period:
            raise TaskValidationError(
                f"task {self.name!r}: upload period shorter than sampling period"
            )
        if self.end <= self.start:
            raise TaskValidationError(
                f"task {self.name!r}: ends ({self.end}) before it starts ({self.start})"
            )
        if self.script is not None:
            from repro.apisense.scripting import TaskScript

            if isinstance(self.script, type):
                if not issubclass(self.script, TaskScript):
                    raise TaskValidationError(
                        f"task {self.name!r}: script class must subclass TaskScript"
                    )
            elif not isinstance(self.script, TaskScript) and not callable(self.script):
                raise TaskValidationError(
                    f"task {self.name!r}: script must be a TaskScript (class "
                    "or instance) or a setup(ctx) callable"
                )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def expected_samples(self) -> int:
        """Upper bound on per-device samples over the campaign window."""
        return int(self.duration // self.sampling_period)
