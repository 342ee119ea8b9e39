"""The simulated mobile device: task runtime, sensors, privacy layer.

A device is driven entirely by simulator events: when it accepts a task
it hands execution to a :class:`~repro.apisense.scripting.TaskDispatcher`
— the event-driven runtime behind the v2 scripting API — and schedules
its own upload ticks.  Every sample a script saves passes through the
user's privacy filter chain before it is buffered, and the buffer leaves
the device only on upload ticks — mirroring the real APISENSE client's
store-and-forward design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.apisense.battery import Battery
from repro.apisense.filters import PrivacyFilterChain
from repro.apisense.preferences import UserPreferences
from repro.apisense.scripting import ScriptRuntime, TaskDispatcher, TaskRuntimeStats
from repro.apisense.sensors import SensorSuite
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.geo.point import GeoPoint
from repro.geo.trajectory import Trajectory
from repro.simulation import CancelToken, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.hive import Hive

__all__ = ["MobileDevice", "SensorRecord", "TaskRuntimeStats", "DeviceScriptRuntime"]


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One collected sample as it travels device -> Hive -> Honeycomb.

    Carries both the device id (platform routing) and the user id (data
    attribution), so endpoints never need to resolve devices through a
    specific Hive — which is what lets federated deployments route data
    across communities.
    """

    device_id: str
    user: str
    task: str
    time: float
    values: Mapping[str, object]
    #: Observability lineage: set by the ingest gateway when the upload
    #: is traced (see :mod:`repro.obs.tracing`).  ``None`` — the vast
    #: majority of records — means untraced; comparisons and hashing
    #: still work upload-batch-wide because the id is per-upload.
    trace_id: int | None = None


class DeviceScriptRuntime(ScriptRuntime):
    """Bridge from the scripting dispatcher to a real device.

    Physical context (position, battery level, quiet hours) is read from
    the device's simulated state for free — it drives trigger predicates.
    Actual sensor reads pay the battery cost via :meth:`acquire`, and
    emitted samples run the privacy filter chain before landing in the
    task's store-and-forward buffer.
    """

    def __init__(self, device: "MobileDevice", task: SensingTask):
        assert device._sim is not None
        self.sim = device._sim
        self.stats = device.stats[task.name]
        self._device = device
        # What no sample changes, resolved once: the task's sensors (the
        # offer was declined unless the device has them all), its
        # store-and-forward buffer and a record's constant fields.
        self._sensors = {name: device.sensors.get(name) for name in task.sensors}
        self._buffer = device._buffers[task.name]
        self._record_head = (device.device_id, device.user, task.name)

    def position(self, time: float) -> GeoPoint:
        return self._device.position(time)

    def battery_level(self, time: float) -> float:
        return self._device.battery.level(time)

    def in_quiet_hours(self, time: float) -> bool:
        return self._device.preferences.in_quiet_hours(time)

    def acquire(self, sensors: tuple[str, ...], time: float) -> bool:
        return self._device.battery.drain_sample(sensors, time)

    def read_sensor(self, name: str, time: float) -> object:
        device = self._device
        return self._sensors[name].read(device, time, device._rng)

    def emit(self, values: Mapping[str, object], time: float) -> bool:
        # ``values`` is the copy ``TaskContext.save`` took at the script
        # boundary: the filters never write to it (one that rewrites
        # builds its own mapping) and the record keeps whichever mapping
        # comes out of the chain.
        filtered = self._device._filters.apply(values, time)
        if filtered is None:
            self.stats.samples_filtered += 1
            return False
        self.stats.samples_taken += 1
        self._buffer.append(SensorRecord(*self._record_head, time, filtered))
        return True


class MobileDevice:
    """One participant's phone."""

    def __init__(
        self,
        device_id: str,
        user: str,
        trajectory: Trajectory,
        sensors: SensorSuite,
        battery: Battery,
        preferences: UserPreferences | None = None,
        seed: int = 0,
    ):
        self.device_id = device_id
        self.user = user
        self.trajectory = trajectory
        self.sensors = sensors
        self.battery = battery
        self.preferences = preferences or UserPreferences()
        self._filters = PrivacyFilterChain.from_preferences(self.preferences)
        self._rng = np.random.default_rng(seed)
        self._sim: Simulator | None = None
        self._hive: "Hive | None" = None
        self._transport = None
        self._buffers: dict[str, list[SensorRecord]] = {}
        self._dispatchers: dict[str, TaskDispatcher] = {}
        self._upload_tokens: dict[str, CancelToken] = {}
        self.stats: dict[str, TaskRuntimeStats] = {}

    # ------------------------------------------------------------------
    # Binding / physical context
    # ------------------------------------------------------------------

    def bind(self, sim: Simulator, hive: "Hive", transport=None) -> None:
        """Attach the device to the simulation and its Hive.

        ``transport`` (a :class:`repro.apisense.transport.Transport`)
        models the wireless uplink; ``None`` means ideal synchronous
        delivery (unit tests).
        """
        self._sim = sim
        self._hive = hive
        self._transport = transport

    def position(self, time: float) -> GeoPoint:
        """Physical position at ``time`` (trajectory interpolation)."""
        return self.trajectory.point_at_time(time)

    @property
    def running_tasks(self) -> list[str]:
        return list(self._dispatchers)

    def dispatcher(self, task_name: str) -> TaskDispatcher:
        """The running dispatcher of a task (introspection / tests)."""
        if task_name not in self._dispatchers:
            raise PlatformError(f"task {task_name!r} not running on {self.device_id}")
        return self._dispatchers[task_name]

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def offer_task(self, task: SensingTask, acceptance_probability: float) -> bool:
        """Present a task offer; the user accepts or declines.

        Declines happen for three reasons, checked in order: preferences
        forbid a requested sensor, the device lacks one, or the user just
        is not motivated (random draw against ``acceptance_probability``).
        """
        if self._sim is None or self._hive is None:
            raise PlatformError(f"device {self.device_id} is not bound to a simulation")
        if task.name in self._dispatchers:
            raise PlatformError(f"task {task.name!r} already running on {self.device_id}")
        if not self.preferences.allows_sensors(task.sensors):
            return False
        if not all(sensor in self.sensors for sensor in task.sensors):
            return False
        if self._rng.uniform() > acceptance_probability:
            return False
        self._start_task(task)
        return True

    def _start_task(self, task: SensingTask) -> None:
        assert self._sim is not None
        self._buffers[task.name] = []
        self.stats[task.name] = TaskRuntimeStats()
        dispatcher = TaskDispatcher(task, DeviceScriptRuntime(self, task))
        dispatcher.start()
        self._dispatchers[task.name] = dispatcher
        start = max(task.start, self._sim.now)
        self._upload_tokens[task.name] = self._sim.schedule_periodic(
            task.upload_period,
            lambda: self._upload(task),
            until=task.end + task.upload_period,
            first_at=start + task.upload_period,
        )

    def stop_task(self, task_name: str) -> None:
        """Cancel a running task and flush its buffer."""
        dispatcher = self._dispatchers.pop(task_name, None)
        if dispatcher is None:
            return
        dispatcher.cancel()
        token = self._upload_tokens.pop(task_name, None)
        if token is not None:
            token.cancel()
        self._flush(task_name)

    # ------------------------------------------------------------------
    # Upload ticks
    # ------------------------------------------------------------------

    def _upload(self, task: SensingTask) -> None:
        self._flush(task.name)

    def _flush(self, task_name: str) -> None:
        """Attempt to upload the buffer; on transport loss the buffer is
        retained and retried at the next upload tick (store-and-forward)."""
        assert self._hive is not None
        buffer = self._buffers.get(task_name)
        if not buffer:
            return
        batch = list(buffer)
        stats = self.stats[task_name]
        if self._transport is None:
            buffer.clear()
            stats.uploads += 1
            self._deliver_upload(task_name, batch)
            return
        delivered = self._transport.send(
            self._sim,
            lambda: self._deliver_upload(task_name, batch),
            payload_items=len(batch),
        )
        if delivered:
            buffer.clear()
            stats.uploads += 1
        else:
            stats.uploads_failed += 1

    def _deliver_upload(self, task_name: str, batch: list[SensorRecord]) -> None:
        """Hand a delivered batch to the Hive's ingest gateway.

        A gateway that sheds the whole batch (``reject`` backpressure)
        is the server-side analogue of a lost upload: the records go
        back to the front of the buffer and ride the next upload tick,
        so backpressure costs freshness, not data.
        """
        assert self._hive is not None
        accepted = self._hive.receive_upload(
            self.device_id, self.user, task_name, batch
        )
        if accepted == 0 and batch:
            stats = self.stats.get(task_name)
            if stats is not None:
                stats.uploads_rejected += 1
            buffer = self._buffers.get(task_name)
            if buffer is not None:
                buffer[0:0] = batch

    # ------------------------------------------------------------------
    # Direct reads (virtual sensors)
    # ------------------------------------------------------------------

    def read_sensor(self, sensor_name: str, time: float) -> object:
        """One on-demand read, paying the energy cost.

        Used by virtual sensors; raises if the battery is dead so the
        scheduling strategy learns the device is unavailable.
        """
        if not self.battery.drain_sample((sensor_name,), time):
            raise PlatformError(f"device {self.device_id}: battery empty")
        return self.sensors.get(sensor_name).read(self, time, self._rng)

    def is_available(self, time: float) -> bool:
        """Whether the device could serve a read right now."""
        return not self.battery.is_empty(time) and not self.preferences.in_quiet_hours(time)
