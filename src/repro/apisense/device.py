"""The simulated mobile device: task runtime, sensors, privacy layer.

A device is driven by simulator events: when it accepts a task it hands
execution to a :class:`~repro.apisense.scripting.TaskDispatcher` — the
event-driven runtime behind the scripting API — and schedules its own
upload ticks.  Every sample a script saves passes through the user's
privacy filter chain before it is buffered, as one ``(time, lat, lon,
value)`` row (:func:`~repro.store.columns.row_of`), and the buffer
leaves the device only on upload ticks, as one
:class:`~repro.store.columns.UploadChunk` of columns — mirroring the
real APISENSE client's store-and-forward design.  A sample builds no
:class:`SensorRecord`; a task stopped while its last upload was lost
retries it every upload period until the buffer is empty or the task
rejoins.

Tick grids.  A scriptless task (``task.script is None``, so it runs
:class:`~repro.apisense.scripting.CollectAll`) schedules no event per
sample.  Its runtime, a :class:`TickGrid`, keeps CollectAll's timer as
a grid of instants, each the previous one plus the period (the sum the
event path computes), and the device samples every tick since it last
settled in one pass: positions from one
:meth:`~repro.geo.trajectory.Trajectory.sample` call per block of
ticks, then per tick what ``CollectAll._tick`` does through the
dispatcher (quiet hours, region fence, battery, sensor reads in task
order, filter chain, counters, row).  Unless a filter of the user's
reads samples (a forbidden zone, a blur), a tick builds no ``GeoPoint``
and no values mapping: its row is the sampled position and the first
real reading.  What a campaign stores, its counters, battery levels and
RNG streams are the event path's, bit for bit; only the simulator's
event count differs.

Settle points.  A tick touches the battery, the device RNG, its task's
buffer and counters, the timer's ``HandlerStats`` and the filter chain
(the blur grid's lazy anchor), so the device settles before anything
else touches them:

- every event of the device's own: an upload, and a scripted task's
  setup, timer firing and trigger tick (a scripted task reads and drains
  the battery through the battery property and saves through
  :meth:`DeviceScriptRuntime.emit`, both of which settle); a grid task
  settles when its timer is armed, and the ticks of two grid tasks are
  taken in one merged pass;
- :meth:`MobileDevice.offer_task`, :meth:`~MobileDevice.stop_task`,
  :meth:`~MobileDevice.dispatcher` and the :attr:`~MobileDevice.stats`
  property;
- the :attr:`~MobileDevice.battery` property, read or replaced: every
  battery read from outside (the Hive's secure-aggregation profiles,
  monitoring, recruitment, scheduling, virtual sensors, the campaign
  report), :meth:`~MobileDevice.read_sensor` and
  :meth:`~MobileDevice.is_available` go through it.

Same-instant rules.  The simulator runs the events of one instant in
the order they were scheduled, and a grid tick would have been
scheduled by the chain's previous event (its previous tick, or its
setup).  So each of the device's own events remembers where it was
scheduled (:meth:`MobileDevice._schedule`): the instant, and which
grids' events at that instant had already run.  While it runs, a settle
takes a grid tick at the clock only if that tick was scheduled first:
at an earlier instant, or at the same instant by a grid event that had
run by then.  A settle from anywhere else (a call between two
``run_until`` calls, an offer delivery, a federation move) takes every
tick at or before the clock: the caller is taken to run after the
ticks of its instant.  An upload at ``t`` ships the tick at ``t`` only
when the task samples at its upload period and started at once (the
tick was scheduled first); otherwise that tick rides the next upload,
even if an earlier settle at ``t`` took it.  Ticks of two grid tasks at
one instant run in the event path's order: the one whose previous tick
is older first, and between equal periods in the order their chains
were set up, a setup running before another chain's tick at its
instant going first.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.apisense.battery import Battery
from repro.apisense.filters import PrivacyFilterChain
from repro.apisense.preferences import UserPreferences
from repro.apisense.scripting import (
    ScriptRuntime,
    TaskDispatcher,
    TaskRuntimeStats,
    TimerHandle,
)
from repro.apisense.sensors import GpsSensor, SensorSuite
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.geo.point import GeoPoint
from repro.geo.trajectory import Trajectory
from repro.simulation import CancelToken, Simulator
from repro.store.columns import NAN, Row, UploadChunk, row_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.hive import Hive

__all__ = [
    "MobileDevice",
    "SensorRecord",
    "TaskRuntimeStats",
    "DeviceScriptRuntime",
    "TickGrid",
]


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One sample as a record: what a gateway client may upload (and
    a replay feeds the gateway).

    Carries both the device id (platform routing) and the user id (data
    attribution), so endpoints never need to resolve devices through a
    specific Hive — which is what lets federated deployments route data
    across communities.  A record list becomes upload chunks at the
    gateway (:func:`~repro.store.columns.chunks_of`); a device keeps and
    uploads rows, not records (:class:`~repro.store.columns.UploadChunk`),
    and no tier past the gateway builds one.
    """

    device_id: str
    user: str
    task: str
    time: float
    values: Mapping[str, object]
    #: Observability lineage (see :mod:`repro.obs.tracing`), carried
    #: onto the record's upload chunk; the gateway stamps a sampled
    #: upload's chunks itself.  ``None`` — the vast majority of
    #: records — means untraced.
    trace_id: int | None = None


class DeviceScriptRuntime(ScriptRuntime):
    """Bridge from the scripting dispatcher to a real device.

    Physical context (position, battery level, quiet hours) is read from
    the device's simulated state for free — it drives trigger predicates.
    Actual sensor reads pay the battery cost via :meth:`acquire`, and
    emitted samples run the privacy filter chain before landing in the
    task's store-and-forward buffer.  Battery reads and drains go through
    :attr:`MobileDevice.battery`, which settles the device's tick grids
    first: a second task shares the battery and the RNG.
    """

    def __init__(self, device: "MobileDevice", task: SensingTask):
        assert device._sim is not None
        self.sim = device._sim
        self.stats = device._stats[task.name]
        self._device = device
        # What no sample changes, resolved once: the task's sensors (the
        # offer was declined unless the device has them all), the filter
        # chain and its store-and-forward buffer.
        self._sensors = {name: device.sensors.get(name) for name in task.sensors}
        self._filter = device._filters.apply
        self._append = device._buffers[task.name].append

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

    def schedule_at(self, at: float, callback: Callable[[], None]) -> CancelToken:
        return self._device._schedule(at, callback)

    def emit(self, values: Mapping[str, object], time: float) -> bool:
        self._device._settle()  # the blur filter anchors on its first fix
        return self._keep(values, time)

    def _keep(self, values: Mapping[str, object], time: float) -> bool:
        """Run one sample through the filter chain into the buffer."""
        # ``values`` is the copy ``TaskContext.save`` took at the script
        # boundary: the filters never write to it (one that rewrites
        # builds its own mapping) and the row is read from whichever
        # mapping comes out of the chain.
        filtered = self._filter(values, time)
        if filtered is None:
            self.stats.samples_filtered += 1
            return False
        self.stats.samples_taken += 1
        self._append(row_of(time, filtered))
        return True


class TickGrid(DeviceScriptRuntime):
    """The runtime of a scriptless task: CollectAll's timer as a grid of
    tick instants the device samples when it settles (module docstring).

    The grid is computed ahead in blocks of :attr:`BLOCK` ticks, each
    block's positions by one :meth:`~repro.geo.trajectory.Trajectory.
    sample` call.  ``prev_at`` is the instant of the chain's last event
    (its setup, then its last sampled tick): the instant its next tick
    was scheduled at, what orders that tick among the device's other
    events at its instant.  A kept tick is one row in the task's
    buffer; unless the user's filter chain reads samples, no
    ``GeoPoint`` or values mapping is built for it.
    """

    BLOCK = 128

    def __init__(self, device: "MobileDevice", task: SensingTask):
        super().__init__(device, task)
        region = task.region
        self._box = None if region is None else (
            region.south, region.north, region.west, region.east
        )
        self._sensor_names = task.sensors
        self._reads = tuple(
            (name, None if type(sensor) is GpsSensor else sensor.read)
            for name, sensor in self._sensors.items()
        )
        # Unless a filter reads the samples, or a sensor other than the
        # GPS is called "gps", a tick's row is its sampled position (when
        # the task reads gps) and the first real reading of the others.
        self._direct = not device._filters.reads_samples and all(
            (read is None) == (name == "gps") for name, read in self._reads
        )
        self._located = "gps" in task.sensors
        self._others = tuple((name, read) for name, read in self._reads if read is not None)
        self.timer: TimerHandle | None = None
        self.period = task.sampling_period
        self.next_at = math.inf
        self.prev_at = self.sim.now

    def arm_timer(self, timer: TimerHandle, at: float) -> None:
        self.timer = timer
        self.prev_at = self.sim.now
        self._blocks = self._sample_blocks(at, timer._end)
        self._ahead: list[tuple[float, float, float]] = next(self._blocks, [])
        self._next = 0
        self.next_at = self._ahead[0][0] if self._ahead else math.inf
        self._device._add_grid(self)

    def _sample_blocks(self, t: float, end: float):
        """The grid's ``(time, lat, lon)`` up to ``end``, a block at a
        time.  Each instant is the previous one plus the period, summed
        in order as the event path sums (``np.cumsum`` is sequential)."""
        period, sample = self.period, self._device.trajectory.sample
        while t <= end:
            times = np.full(self.BLOCK, period)
            times[0] = t
            times = np.cumsum(times)
            times = times[: np.searchsorted(times, end, side="right")]
            t = float(times[-1]) + period
            lat, lon = sample(times)
            yield list(zip(times.tolist(), lat.tolist(), lon.tolist()))

    def take(self, bound: tuple) -> tuple[list[tuple[float, float, float]], float]:
        """Advance the grid to ``bound``: the ``(time, lat, lon)`` of its
        ticks before it, and the instant of the event before the first
        of them.  ``(t, inf)`` takes the ticks at or before ``t``,
        ``(t,)`` those before ``t``."""
        before = self.prev_at
        ticks: list[tuple[float, float, float]] = []
        while (self.next_at,) < bound:
            end = bisect_left(self._ahead, bound, self._next)
            ticks += self._ahead[self._next : end]
            if end == len(self._ahead):
                self._ahead, end = next(self._blocks, []), 0
            self._next = end
            self.next_at = self._ahead[end][0] if self._ahead else math.inf
        if ticks:
            self.prev_at = ticks[-1][0]
        return ticks, before

    def run(self, ticks: Iterable[tuple[float, float, float]]) -> None:
        """CollectAll's tick at each ``(time, lat, lon)``, in one frame:
        what ``_dispatch_timer``, ``_tick``, ``read_all`` and ``save``
        do through the dispatcher, with the position already sampled."""
        device = self._device
        drain, keep, append = device._battery.drain_sample, self._keep, self._append
        rng, preferences = device._rng, device.preferences
        quiet = preferences.in_quiet_hours if preferences.quiet_hours else None
        stats = self.stats
        box, reads, sensors = self._box, self._reads, self._sensor_names
        direct, located, others = self._direct, self._located, self._others
        handler = self.timer._stats
        for time, lat, lon in ticks:
            if quiet is not None and quiet(time):
                stats.samples_filtered += 1
                continue
            if box is not None and not (box[0] <= lat <= box[1] and box[2] <= lon <= box[3]):
                continue
            handler.fires += 1
            try:
                if not drain(sensors, time):
                    stats.samples_battery_refused += 1
                    continue
                if direct:
                    value = NAN
                    if others:  # every sensor is read, in task order
                        values = {name: read(device, time, rng) for name, read in others}
                        value = row_of(time, values)[3]
                    append((time, lat, lon, value) if located else (time, NAN, NAN, value))
                    stats.samples_taken += 1
                    handler.saves += 1
                    continue
                point = GeoPoint(lat, lon)
                values = {}
                for name, read in reads:
                    values[name] = point if read is None else read(device, time, rng)
                if keep(values, time):
                    handler.saves += 1
            except Exception as error:  # noqa: BLE001 - contained, counted
                self.timer._dispatcher.count_error(handler, error)


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
        self._battery = battery
        self.preferences = preferences or UserPreferences()
        self._filters = PrivacyFilterChain.from_preferences(self.preferences)
        self._rng = np.random.default_rng(seed)
        self._sim: Simulator | None = None
        self._hive: "Hive | None" = None
        self._transport = None
        #: Per task, the kept samples not yet uploaded, one row each.
        self._buffers: dict[str, list[Row]] = {}
        self._dispatchers: dict[str, TaskDispatcher] = {}
        self._upload_tokens: dict[str, CancelToken] = {}
        #: Stopped tasks retrying what their last upload left behind.
        self._drain_tokens: dict[str, CancelToken] = {}
        self._stats: dict[str, TaskRuntimeStats] = {}
        #: Running grid tasks, in the order their same-instant ticks run.
        self._grids: list[TickGrid] = []
        #: The earliest unsampled grid tick (inf: none, or a pass running).
        self._next_tick = math.inf
        #: Where the device's running event was scheduled (see _schedule).
        self._running: tuple[float, tuple[TickGrid, ...]] | None = None

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
    def battery(self) -> Battery:
        """The device's battery, with every grid tick up to now paid."""
        self._settle()
        return self._battery

    @battery.setter
    def battery(self, battery: Battery) -> None:
        self._settle()  # the ticks up to now drain the old battery
        self._battery = battery

    @property
    def stats(self) -> dict[str, TaskRuntimeStats]:
        """Per-task runtime counters, with every grid tick up to now counted."""
        self._settle()
        return self._stats

    @property
    def running_tasks(self) -> list[str]:
        return list(self._dispatchers)

    def dispatcher(self, task_name: str) -> TaskDispatcher:
        """The running dispatcher of a task (introspection / tests)."""
        if task_name not in self._dispatchers:
            raise PlatformError(f"task {task_name!r} not running on {self.device_id}")
        self._settle()
        return self._dispatchers[task_name]

    # ------------------------------------------------------------------
    # Tick grids
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        """Sample every grid tick that comes before the running code, in
        the event path's order (see the module docstring)."""
        due = self._next_tick
        if due == math.inf or due > self._sim.now:
            return
        now = self._sim.now
        self._next_tick = math.inf  # a read the pass makes settles nothing
        running = self._running
        try:
            if running is None:
                self._take(self._grids, (now, math.inf))
                return
            self._take(self._grids, (now,))
            scheduled_at, seen = running
            first = [
                grid
                for grid in self._grids
                if grid.next_at == now
                and (
                    grid.prev_at < scheduled_at
                    or (grid.prev_at == scheduled_at and grid in seen)
                )
            ]
            if first:
                self._take(first, (now, math.inf))
        finally:
            # A tick left at the clock waits for the running event to end
            # (_run): no later settle within the event would take it.
            self._next_tick = min(
                (g.next_at for g in self._grids if running is None or g.next_at > now),
                default=math.inf,
            )

    def _take(self, grids: list[TickGrid], bound: tuple) -> None:
        """Run the ticks of ``grids`` before ``bound`` (see
        :meth:`TickGrid.take`): by instant, then by the instant each was
        scheduled at, then in the order of ``grids``."""
        if len(grids) == 1:
            grid = grids[0]
            grid.run(grid.take(bound)[0])
            return
        merged = []
        for rank, grid in enumerate(grids):
            ticks, before = grid.take(bound)
            previous = [before, *(t for t, _, _ in ticks[:-1])]
            merged += zip(ticks, previous, repeat(rank), repeat(grid))
        merged.sort(key=lambda tick: (tick[0][0], tick[1], tick[2]))
        for grid, run in groupby(merged, key=itemgetter(3)):
            grid.run(tick for tick, _, _, _ in run)

    def _schedule(self, at: float, callback: Callable[[], None]) -> CancelToken:
        """Schedule one of the device's own events (an upload, a script's
        setup, timer firing or trigger tick).  The event remembers where
        it was scheduled: the instant, and the grids whose event at that
        instant had run.  A grid tick at the instant the event runs went
        first in the event path exactly when it was scheduled earlier."""
        self._settle()
        now = self._sim.now
        seen = tuple(grid for grid in self._grids if grid.prev_at == now)
        return self._sim.schedule_at(at, lambda: self._run(now, seen, callback))

    def _run(
        self, scheduled_at: float, seen: tuple[TickGrid, ...], callback: Callable[[], None]
    ) -> None:
        self._running = scheduled_at, seen
        try:
            callback()
        finally:
            self._running = None
            self._next_tick = min((g.next_at for g in self._grids), default=math.inf)

    def _add_grid(self, grid: TickGrid) -> None:
        """Start sampling a grid task whose timer was just armed.

        Its ticks tie with those of a chain of the same period whose
        event at this instant comes after the setup that is running: the
        new chain's ticks go before that chain's.
        """
        self._settle()
        now = self._sim.now
        at = next(
            (
                index
                for index, other in enumerate(self._grids)
                if other.period == grid.period and other.next_at == now
            ),
            len(self._grids),
        )
        self._grids.insert(at, grid)
        self._next_tick = min(self._next_tick, grid.next_at)

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
        self._settle()
        if self._rng.uniform() > acceptance_probability:
            return False
        self._start_task(task)
        return True

    def _start_task(self, task: SensingTask) -> None:
        assert self._sim is not None
        now = self._sim.now
        # A rejoin keeps what a lost stop flush left buffered, and its
        # counters; its uploads carry the buffer from now on.
        token = self._drain_tokens.pop(task.name, None)
        if token is not None:
            token.cancel()
        self._buffers.setdefault(task.name, [])
        self._stats.setdefault(task.name, TaskRuntimeStats())
        runtime = (TickGrid if task.script is None else DeviceScriptRuntime)(self, task)
        dispatcher = TaskDispatcher(task, runtime)
        dispatcher.start()
        self._dispatchers[task.name] = dispatcher
        # A grid tick at an upload instant rides that upload only if it
        # was scheduled first: same period, and the timer armed just now.
        rides_next = task.script is None and not (
            task.sampling_period == task.upload_period and task.start <= now
        )
        self._arm_upload(task, max(task.start, now) + task.upload_period, rides_next)

    def stop_task(self, task_name: str) -> None:
        """Cancel a running task and flush its buffer.

        When that last upload is lost (or the gateway sheds it), what it
        carried is retried every upload period until the buffer is empty
        or the task rejoins (:meth:`_drain`).
        """
        dispatcher = self._dispatchers.pop(task_name, None)
        if dispatcher is None:
            return
        self._settle()
        dispatcher.cancel()
        if dispatcher.runtime in self._grids:
            self._grids.remove(dispatcher.runtime)
            self._next_tick = min((g.next_at for g in self._grids), default=math.inf)
        token = self._upload_tokens.pop(task_name, None)
        if token is not None:
            token.cancel()
        task = dispatcher.task
        self._flush(task)
        if self._buffers.get(task_name):
            self._arm_drain(task)

    # ------------------------------------------------------------------
    # Upload ticks
    # ------------------------------------------------------------------

    def _arm_upload(self, task: SensingTask, at: float, rides_next: bool) -> None:
        if at <= task.end + task.upload_period:
            self._upload_tokens[task.name] = self._schedule(
                at, lambda: self._upload(task, rides_next)
            )

    def _upload(self, task: SensingTask, rides_next: bool) -> None:
        self._settle()
        now = self._sim.now
        self._flush(task, now if rides_next else math.inf)
        if task.name in self._upload_tokens:  # not stopped meanwhile
            self._arm_upload(task, now + task.upload_period, rides_next)

    def _arm_drain(self, task: SensingTask) -> None:
        """Retry a stopped task's buffer one upload period from now."""
        if task.name not in self._drain_tokens:
            self._drain_tokens[task.name] = self._schedule(
                self._sim.now + task.upload_period, lambda: self._drain(task)
            )

    def _drain(self, task: SensingTask) -> None:
        """One retry of a stopped task's buffer; the next is armed while
        anything is left (a shed upload re-arms on delivery)."""
        del self._drain_tokens[task.name]
        self._flush(task)
        if self._buffers.get(task.name):
            self._arm_drain(task)

    def _flush(self, task: SensingTask, held_from: float = math.inf) -> None:
        """Attempt to upload the buffer; on transport loss the buffer is
        retained and retried at the next upload tick (store-and-forward).

        A row taken at or after ``held_from`` (the tick at this upload
        instant) stays for the next upload.
        """
        assert self._hive is not None
        buffer = self._buffers.get(task.name)
        if not buffer:
            return
        n = len(buffer) - (buffer[-1][0] >= held_from)
        if not n:
            return
        batch = buffer[:n]
        stats = self._stats[task.name]
        if self._transport is None:
            del buffer[:n]
            stats.uploads += 1
            self._deliver_upload(task, batch)
            return
        delivered = self._transport.send(
            self._sim,
            lambda: self._deliver_upload(task, batch),
            payload_items=n,
        )
        if delivered:
            del buffer[:n]
            stats.uploads += 1
        else:
            stats.uploads_failed += 1

    def _deliver_upload(self, task: SensingTask, batch: list[Row]) -> None:
        """Hand a delivered batch to the Hive's ingest gateway, as one
        :class:`~repro.store.columns.UploadChunk`.

        A gateway that sheds the whole batch (``reject`` backpressure)
        is the server-side analogue of a lost upload: the rows go back
        to the front of the buffer and ride the next upload tick (a
        stopped task's next drain), so backpressure costs freshness,
        not data.
        """
        assert self._hive is not None
        accepted = self._hive.receive_upload(
            self.device_id,
            self.user,
            task.name,
            UploadChunk.of(self.device_id, self.user, task.name, batch),
        )
        if accepted == 0 and batch:
            stats = self._stats.get(task.name)
            if stats is not None:
                stats.uploads_rejected += 1
            buffer = self._buffers.get(task.name)
            if buffer is not None:
                buffer[0:0] = batch
                if task.name not in self._dispatchers:
                    self._arm_drain(task)

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
