"""The Sensing Script API: sensor facades, triggers, adaptive sampling.

The real APISENSE offloads *scripts* — event-driven JavaScript programmed
against high-level sensor facades — onto phones.  This module is that
scripting facade as a Python API:

- a :class:`TaskScript` receives a :class:`TaskContext` once, when the
  task starts on a device, and registers event handlers against it;
- :meth:`TaskContext.every` registers periodic timers whose period can be
  changed at runtime (:meth:`TimerHandle.reschedule`) — the adaptive
  sampling primitive (e.g. back off when ``ctx.battery.level`` is low);
- :meth:`TaskContext.on_location_changed`,
  :meth:`TaskContext.on_battery_below` and
  :meth:`TaskContext.on_region_enter` / :meth:`TaskContext.on_region_exit`
  register sensor-change and geofence triggers, evaluated on the task's
  sampling ticks;
- lazy sensor facades (``ctx.location``, ``ctx.battery``, ``ctx.network``,
  ``ctx.accel``) read sensors on demand — a task only drains battery for
  the sensors a handler actually reads;
- :meth:`TaskContext.save` emits a trace record; a handler firing that
  returns without saving counts as a dropped sample.

Execution is the same everywhere: a :class:`TaskDispatcher` drives the
script's timers and triggers over a :class:`ScriptRuntime` — the bridge
to a real :class:`~repro.apisense.device.MobileDevice` on phones, or to
a synthetic trajectory + sensor stream when the Honeycomb vets a script
(:mod:`repro.apisense.vetting`).  A task that declares no script runs
:class:`CollectAll`, an ordinary script that saves every sensor each tick.

A timer is a mechanism (a grid of tick instants, each the previous one
plus the period) and its handler the policy (what one tick does).  The
runtime arms every timer (:meth:`ScriptRuntime.arm_timer`) and schedules
every event of the script (:meth:`ScriptRuntime.schedule_at`): by default
each tick is one simulator event that dispatches the handler.  A device
arms :class:`CollectAll`'s timer as a tick grid instead and samples all
the ticks since it last settled in one pass (see
:mod:`repro.apisense.device`); the vetting runtime keeps one event per
tick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import PlatformError
from repro.geo.bbox import BoundingBox
from repro.geo.distance import haversine_m
from repro.geo.point import GeoPoint
from repro.simulation import CancelToken, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.tasks import SensingTask

#: Handler signature: every handler — timer or trigger — receives the
#: task context; the firing event is available as ``ctx.event``.
Handler = Callable[["TaskContext"], None]

#: Script entry point signature (a bare function alternative to TaskScript).
SetupFn = Callable[["TaskContext"], None]


class SensorReadRefused(PlatformError):
    """A sensor read was refused by the environment (dead battery).

    The dispatcher swallows this silently after the refusal counters are
    updated — an environmental refusal is not a script bug.  Scripts may
    catch it themselves to run fallback logic.  (Reading a sensor the
    task never declared is a script bug and raises a plain
    :class:`~repro.errors.PlatformError` instead, which vetting counts.)
    """


@dataclass
class TaskRuntimeStats:
    """Per-task counters a device keeps (observable via the Hive)."""

    samples_taken: int = 0
    samples_filtered: int = 0
    #: Firings that returned without calling ``ctx.save`` (a raise or a
    #: battery refusal counts in ``script_errors`` / ``samples_battery_refused``).
    samples_script_dropped: int = 0
    script_errors: int = 0
    samples_battery_refused: int = 0
    uploads: int = 0
    uploads_failed: int = 0
    #: Uploads shed whole by the Hive's ingest gateway (backpressure);
    #: the batch is re-buffered and retried like a lost upload.
    uploads_rejected: int = 0


@dataclass
class HandlerStats:
    """Per-handler counters the dispatcher keeps (vetting reads them)."""

    name: str
    kind: str
    fires: int = 0
    errors: int = 0
    saves: int = 0


@dataclass(frozen=True, slots=True)
class TriggerEvent:
    """Why a handler is firing: event kind, time, and trigger payload."""

    kind: str
    time: float
    value: object | None = None


# ----------------------------------------------------------------------
# Runtime interface
# ----------------------------------------------------------------------


class ScriptRuntime(ABC):
    """What a dispatcher needs from its host (device or vetting harness).

    Physical context (:meth:`position`, :meth:`battery_level`) is the
    simulator's ground truth and free to evaluate — it drives trigger
    predicates.  Actual sensor reads (:meth:`read_sensor`) go through
    :meth:`acquire` first and pay the energy cost.
    """

    sim: Simulator
    stats: TaskRuntimeStats

    @abstractmethod
    def position(self, time: float) -> GeoPoint:
        """Physical position at ``time``."""

    @abstractmethod
    def battery_level(self, time: float) -> float:
        """Battery level in [0, 1] at ``time``."""

    @abstractmethod
    def in_quiet_hours(self, time: float) -> bool:
        """Whether the user's quiet hours suppress sampling at ``time``."""

    @abstractmethod
    def acquire(self, sensors: tuple[str, ...], time: float) -> bool:
        """Pay the energy cost of reading ``sensors`` once; False = refused."""

    @abstractmethod
    def read_sensor(self, name: str, time: float) -> object:
        """One raw sensor reading (energy already paid via acquire)."""

    def arm_timer(self, timer: "TimerHandle", at: float) -> None:
        """Start ``timer``, first firing at ``at``: one event per tick."""
        timer._schedule_next(at)

    def schedule_at(self, at: float, callback: Callable[[], None]) -> CancelToken:
        """Schedule one of the script's events (setup, timer firing,
        trigger tick) on the simulator."""
        return self.sim.schedule_at(at, callback)

    @abstractmethod
    def emit(self, values: Mapping[str, object], time: float) -> bool:
        """Record one trace sample; returns whether it was kept.

        The device runtime routes this through the user's privacy filter
        chain and the store-and-forward buffer; the vetting runtime just
        counts it.  ``values`` is the runtime's to keep: :meth:`TaskContext.
        save` has already copied the script's mapping, so an
        implementation stores it as it is and never writes to it.
        """


# ----------------------------------------------------------------------
# Sensor facades
# ----------------------------------------------------------------------


class SensorFacade:
    """Lazy read access to one sensor; reads drain battery on demand."""

    def __init__(self, ctx: "TaskContext", sensor: str):
        self._ctx = ctx
        self._sensor = sensor

    def read(self) -> object:
        """One reading now; raises :class:`SensorReadRefused` on refusal."""
        return self._ctx._read(self._sensor)


class LocationFacade(SensorFacade):
    """The ``gps`` sensor as a facade."""

    @property
    def current(self) -> GeoPoint:
        """The device's current GPS fix."""
        return self.read()  # type: ignore[return-value]


class BatteryFacade(SensorFacade):
    """The ``battery`` sensor as a facade (free to read)."""

    @property
    def level(self) -> float:
        """Battery level in [0, 1]."""
        return float(self.read())  # type: ignore[arg-type]


class NetworkFacade(SensorFacade):
    """The ``network`` sensor as a facade."""

    @property
    def rssi(self) -> float:
        """Signal strength in dBm."""
        return float(self.read())  # type: ignore[arg-type]


class AccelFacade(SensorFacade):
    """The ``accelerometer`` sensor as a facade."""

    @property
    def magnitude(self) -> float:
        """Activity magnitude (m/s-scale)."""
        return float(self.read())  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Timers and triggers
# ----------------------------------------------------------------------


class TimerHandle:
    """One periodic timer of a running script; re-schedulable at runtime."""

    def __init__(self, dispatcher: "TaskDispatcher", period: float, stats: HandlerStats, fn: Handler):
        self.period = period
        self._dispatcher = dispatcher
        self._sim = dispatcher.sim
        self._end = dispatcher.task.end
        self._stats = stats
        self._fn = fn
        self._pending: CancelToken | None = None
        self._cancelled = False
        self._in_fire = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def reschedule(self, period: float) -> None:
        """Change the timer's period — the adaptive-sampling primitive.

        Called from inside the timer's own handler, the new period takes
        effect for the *next* firing; called from anywhere else, the
        pending firing is moved to ``now + period``.  The platform's
        1 Hz sampling floor applies, as it does to task validation.
        """
        _check_period(period)
        self.period = period
        if self._cancelled or self._in_fire:
            return
        if self._pending is not None:
            self._pending.cancel()
        self._schedule_next(self._sim.now + period)

    def cancel(self) -> None:
        """Stop the timer; a cancelled timer never fires again."""
        self._cancelled = True
        if self._pending is not None:
            self._pending.cancel()

    # -- internal ------------------------------------------------------

    def _schedule_next(self, at: float) -> None:
        if self._cancelled or at > self._end:
            self._pending = None
            return
        self._pending = self._dispatcher.runtime.schedule_at(at, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        now = self._sim.now  # a callback runs at one instant
        self._in_fire = True
        try:
            self._dispatcher._dispatch_timer(self._stats, self._fn, now)
        finally:
            self._in_fire = False
        self._schedule_next(now + self.period)


def _check_period(period: float) -> None:
    """The platform's 1 Hz sampling floor (NaN is below every floor)."""
    if not (period >= 1.0):
        raise PlatformError(
            f"timer period {period} below the platform's 1 s sampling floor"
        )


class _Trigger:
    """One armed trigger condition, evaluated on sampling ticks."""

    kind = "trigger"

    def __init__(self, stats: HandlerStats, fn: Handler):
        self.stats = stats
        self.fn = fn

    def arm(self, runtime: ScriptRuntime, time: float) -> None:
        """Capture the initial state edge detection compares against."""

    def evaluate(self, runtime: ScriptRuntime, time: float) -> TriggerEvent | None:
        """Return the firing event when the condition newly holds."""
        raise NotImplementedError


class _LocationChangedTrigger(_Trigger):
    kind = "location_changed"

    def __init__(self, stats: HandlerStats, fn: Handler, min_distance_m: float):
        super().__init__(stats, fn)
        if min_distance_m < 0:
            raise PlatformError(f"negative min_distance: {min_distance_m}")
        self.min_distance_m = min_distance_m
        self._last: GeoPoint | None = None

    def arm(self, runtime: ScriptRuntime, time: float) -> None:
        self._last = runtime.position(time)

    def evaluate(self, runtime: ScriptRuntime, time: float) -> TriggerEvent | None:
        position = runtime.position(time)
        if self._last is None:
            self._last = position
            return None
        if haversine_m(self._last, position) < self.min_distance_m:
            return None
        self._last = position
        return TriggerEvent(self.kind, time, position)


class _BatteryBelowTrigger(_Trigger):
    kind = "battery_below"

    def __init__(self, stats: HandlerStats, fn: Handler, threshold: float):
        super().__init__(stats, fn)
        if not (0.0 < threshold <= 1.0):
            raise PlatformError(f"battery threshold must be in (0, 1]: {threshold}")
        self.threshold = threshold
        self._armed = True

    def evaluate(self, runtime: ScriptRuntime, time: float) -> TriggerEvent | None:
        level = runtime.battery_level(time)
        if level >= self.threshold:
            # Re-arm once the battery recovers (night charging), so the
            # alert fires once per discharge excursion, not per tick.
            self._armed = True
            return None
        if not self._armed:
            return None
        self._armed = False
        return TriggerEvent(self.kind, time, level)


class _RegionEdgeTrigger(_Trigger):
    """Geofence edge: fires when containment flips in one direction."""

    def __init__(self, stats: HandlerStats, fn: Handler, region: BoundingBox, on_enter: bool):
        super().__init__(stats, fn)
        self.region = region
        self.on_enter = on_enter
        self._inside: bool | None = None

    @property
    def kind(self) -> str:  # type: ignore[override]
        return "region_enter" if self.on_enter else "region_exit"

    def arm(self, runtime: ScriptRuntime, time: float) -> None:
        self._inside = self.region.contains(runtime.position(time))

    def evaluate(self, runtime: ScriptRuntime, time: float) -> TriggerEvent | None:
        position = runtime.position(time)
        inside = self.region.contains(position)
        was_inside, self._inside = self._inside, inside
        if was_inside is None or inside == was_inside:
            return None
        if inside == self.on_enter:
            return TriggerEvent(self.kind, time, position)
        return None


# ----------------------------------------------------------------------
# The scripting facade
# ----------------------------------------------------------------------


class TaskContext:
    """What a running script programs against: facades, triggers, save.

    One context exists per (device, task); every handler receives it on
    each firing, with :attr:`event` describing why it fired.
    """

    def __init__(self, dispatcher: "TaskDispatcher"):
        self._dispatcher = dispatcher
        self._event: TriggerEvent | None = None
        self._cache_time: float | None = None
        self._cache: dict[str, object] = {}
        self.location = LocationFacade(self, "gps")
        self.battery = BatteryFacade(self, "battery")
        self.network = NetworkFacade(self, "network")
        self.accel = AccelFacade(self, "accelerometer")

    # -- introspection -------------------------------------------------

    @property
    def task(self) -> "SensingTask":
        """The task description this script executes."""
        return self._dispatcher.task

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._dispatcher.sim.now

    @property
    def event(self) -> TriggerEvent | None:
        """The event being dispatched (None outside a handler)."""
        return self._event

    @property
    def stats(self) -> TaskRuntimeStats:
        """The task's runtime counters on this device."""
        return self._dispatcher.runtime.stats

    # -- registration --------------------------------------------------

    def every(self, period: float, fn: Handler) -> TimerHandle:
        """Register a periodic timer firing every ``period`` seconds.

        The first firing is one period out.  The returned handle can be
        re-scheduled at runtime (adaptive sampling) or cancelled.
        """
        _check_period(period)
        stats = self._dispatcher._register("timer", fn)
        timer = TimerHandle(self._dispatcher, period, stats, fn)
        self._dispatcher.timers.append(timer)
        self._dispatcher.runtime.arm_timer(timer, self.now + period)
        return timer

    def on_location_changed(self, min_distance_m: float, fn: Handler) -> None:
        """Fire ``fn`` when the device moved ``min_distance_m`` metres
        since the last firing (or since the task started)."""
        self._add_trigger(
            _LocationChangedTrigger(
                self._dispatcher._register("location_changed", fn), fn, min_distance_m
            )
        )

    def on_battery_below(self, threshold: float, fn: Handler) -> None:
        """Fire ``fn`` once when the battery level drops below
        ``threshold``; re-arms when the battery recovers above it."""
        self._add_trigger(
            _BatteryBelowTrigger(
                self._dispatcher._register("battery_below", fn), fn, threshold
            )
        )

    def on_region_enter(self, region: BoundingBox, fn: Handler) -> None:
        """Fire ``fn`` when the device enters ``region`` (geofence edge)."""
        self._add_trigger(
            _RegionEdgeTrigger(
                self._dispatcher._register("region_enter", fn), fn, region, on_enter=True
            )
        )

    def on_region_exit(self, region: BoundingBox, fn: Handler) -> None:
        """Fire ``fn`` when the device leaves ``region`` (geofence edge)."""
        self._add_trigger(
            _RegionEdgeTrigger(
                self._dispatcher._register("region_exit", fn), fn, region, on_enter=False
            )
        )

    def _add_trigger(self, trigger: _Trigger) -> None:
        trigger.arm(self._dispatcher.runtime, self.now)
        self._dispatcher.triggers.append(trigger)
        self._dispatcher._ensure_trigger_tick()

    # -- sensor access -------------------------------------------------

    def sensor(self, name: str) -> SensorFacade:
        """Facade for any registry sensor (beyond the four built-ins)."""
        return SensorFacade(self, name)

    def _read(self, name: str) -> object:
        """Facade read path: declared-sensor check, energy, per-tick cache."""
        if name not in self.task.sensors:
            # A script bug, not an environmental refusal: the dispatcher
            # counts it as a script error and vetting rejects the task.
            raise PlatformError(
                f"task {self.task.name!r} did not declare sensor {name!r}; "
                "declare it so users can consent to it"
            )
        now = self.now
        if self._cache_time != now:
            self._cache_time = now
            self._cache = {}
        if name in self._cache:
            return self._cache[name]
        runtime = self._dispatcher.runtime
        if not runtime.acquire((name,), now):
            runtime.stats.samples_battery_refused += 1
            raise SensorReadRefused(f"battery refused reading {name!r}")
        value = runtime.read_sensor(name, now)
        self._cache[name] = value
        return value

    def read_all(self) -> dict[str, object]:
        """Read every declared sensor in one acquisition: the energy
        cost of the full sensor tuple is paid at once."""
        dispatcher = self._dispatcher
        runtime = dispatcher.runtime
        sensors = dispatcher.task.sensors
        now = dispatcher.sim.now
        if not runtime.acquire(sensors, now):
            runtime.stats.samples_battery_refused += 1
            raise SensorReadRefused("battery refused the sample")
        read = runtime.read_sensor
        return {name: read(name, now) for name in sensors}

    # -- emission ------------------------------------------------------

    def save(self, values: Mapping[str, object]) -> bool:
        """Emit one trace record; returns whether it survived the task's
        region fence and the device's privacy filter chain.

        The fence applies to *every* save, however the handler was
        triggered — geofence and sensor-change handlers may fire outside
        the task region (that is their job), but the task still only
        collects inside it.

        ``values`` is copied here, once: the script may go on mutating
        or re-using its mapping, and nothing downstream copies again.
        """
        dispatcher = self._dispatcher
        dispatcher._saved = True
        runtime = dispatcher.runtime
        now = dispatcher.sim.now
        region = dispatcher.task.region
        if region is not None and not region.contains(runtime.position(now)):
            return False
        kept = runtime.emit(dict(values), now)
        if kept:
            current = dispatcher._current
            if current is not None:
                current.saves += 1
        return kept


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------


class TaskScript(ABC):
    """A sensing script: register handlers when the task starts."""

    @abstractmethod
    def setup(self, ctx: TaskContext) -> None:
        """Called once per device when the task starts; register
        timers/triggers on ``ctx`` here."""


class CollectAll(TaskScript):
    """The script of a task that declares none: one timer at the task's
    sampling period that reads every declared sensor in one acquisition
    and saves the values as they are.  A device samples this timer as a
    tick grid (:meth:`ScriptRuntime.arm_timer`); :meth:`_tick` is what
    each of its ticks does, and what every tick of a vetting run does."""

    def setup(self, ctx: TaskContext) -> None:
        ctx.every(ctx.task.sampling_period, self._tick)

    def _tick(self, ctx: TaskContext) -> None:
        ctx.save(ctx.read_all())


def resolve_script(task: "SensingTask") -> TaskScript:
    """The script a task runs: its own, or :class:`CollectAll`.

    A TaskScript *class* is instantiated per resolution, so every device
    gets its own script instance and per-device state (timer handles,
    counters) never collides across the fleet — the recommended style
    for stateful scripts.  An *instance* is shared as-is (stateless
    scripts only); a bare ``setup(ctx)`` function is safe either way
    because each call builds fresh closures.
    """
    script = CollectAll if task.script is None else task.script
    if isinstance(script, type):  # validated a TaskScript subclass
        return script()
    if isinstance(script, TaskScript):
        return script
    return _FunctionScript(script)


class _FunctionScript(TaskScript):
    """Wrap a bare ``setup(ctx)`` function as a TaskScript."""

    def __init__(self, setup_fn: SetupFn):
        self._setup_fn = setup_fn

    def setup(self, ctx: TaskContext) -> None:
        self._setup_fn(ctx)


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------


class TaskDispatcher:
    """Event-driven executor of one task on one runtime.

    Owns the task's timer wheel and trigger list: timers fire as their
    own simulator events; triggers are evaluated on a tick at the task's
    sampling period (armed lazily — a timer-only script costs no
    evaluation events).  Handler exceptions are counted and contained;
    a bad script never kills collection.
    """

    def __init__(self, task: "SensingTask", runtime: ScriptRuntime):
        self.task = task
        self.runtime = runtime
        self.sim = runtime.sim
        self.ctx = TaskContext(self)
        #: The per-dispatcher script instance (set when setup runs).
        self.script: TaskScript | None = None
        self.timers: list[TimerHandle] = []
        self.triggers: list[_Trigger] = []
        self.handler_stats: list[HandlerStats] = []
        self.setup_error: str | None = None
        self.error_messages: list[str] = []
        self._seen_errors: set[str] = set()
        self._current: HandlerStats | None = None
        self._saved = False
        self._begin_token: CancelToken | None = None
        self._trigger_token: CancelToken | None = None
        self._cancelled = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Run the script's setup at the task's start (or now if later)."""
        if self.sim.now >= self.task.start:
            self._begin()
        else:
            self._begin_token = self.runtime.schedule_at(self.task.start, self._begin)

    def _begin(self) -> None:
        if self._cancelled:
            return
        self.script = resolve_script(self.task)
        try:
            self.script.setup(self.ctx)
        except Exception as error:  # noqa: BLE001 - contained, counted
            self.runtime.stats.script_errors += 1
            self.setup_error = f"{type(error).__name__}: {error}"
            self._record_error(error)

    def cancel(self) -> None:
        """Stop everything: timers, trigger evaluation, pending setup."""
        self._cancelled = True
        if self._begin_token is not None:
            self._begin_token.cancel()
        if self._trigger_token is not None:
            self._trigger_token.cancel()
        for timer in self.timers:
            timer.cancel()

    # -- registration bookkeeping --------------------------------------

    def _register(self, kind: str, fn: Handler) -> HandlerStats:
        name = getattr(fn, "__name__", None) or type(fn).__name__
        stats = HandlerStats(name=f"{kind}#{len(self.handler_stats)}:{name}", kind=kind)
        self.handler_stats.append(stats)
        return stats

    def _ensure_trigger_tick(self) -> None:
        """Arm the trigger-evaluation tick on first trigger registration."""
        if self._trigger_token is None:
            self._arm_trigger_tick(self.sim.now + self.task.sampling_period)

    def _arm_trigger_tick(self, at: float) -> None:
        if self._cancelled or at > self.task.end:
            self._trigger_token = CancelToken(cancelled=True)
        else:
            self._trigger_token = self.runtime.schedule_at(at, self._trigger_tick)

    def _trigger_tick(self) -> None:
        self._evaluate_triggers()
        self._arm_trigger_tick(self.sim.now + self.task.sampling_period)

    # -- dispatch ------------------------------------------------------

    def _dispatch_timer(self, stats: HandlerStats, fn: Handler, now: float) -> None:
        runtime = self.runtime
        if runtime.in_quiet_hours(now):
            runtime.stats.samples_filtered += 1
            return
        region = self.task.region
        if region is not None and not region.contains(runtime.position(now)):
            return
        self._dispatch(stats, TriggerEvent("timer", now), fn)

    def _evaluate_triggers(self) -> None:
        now = self.sim.now
        # Quiet hours freeze trigger evaluation entirely: no state
        # updates, so an edge crossed during the night fires at dawn.
        if self.runtime.in_quiet_hours(now):
            return
        for trigger in list(self.triggers):
            event = trigger.evaluate(self.runtime, now)
            if event is not None:
                self._dispatch(trigger.stats, event, trigger.fn)

    def _dispatch(self, stats: HandlerStats, event: TriggerEvent, fn: Handler) -> None:
        stats.fires += 1
        self._current = stats
        self._saved = False
        self.ctx._event = event
        try:
            fn(self.ctx)
        except SensorReadRefused:
            pass  # refusal counters already updated; not a script bug
        except Exception as error:  # noqa: BLE001 - contained, counted
            self.count_error(stats, error)
        else:
            if not self._saved:
                self.runtime.stats.samples_script_dropped += 1
        finally:
            self.ctx._event = None
            self._current = None

    def count_error(self, stats: HandlerStats, error: Exception) -> None:
        """Contain one handler's exception: count it, keep its message."""
        self.runtime.stats.script_errors += 1
        stats.errors += 1
        self._record_error(error)

    def _record_error(self, error: Exception) -> None:
        message = f"{type(error).__name__}: {error}"
        if message not in self._seen_errors and len(self.error_messages) < 10:
            self._seen_errors.add(message)
            self.error_messages.append(message)

    @property
    def total_fires(self) -> int:
        return sum(stats.fires for stats in self.handler_stats)
