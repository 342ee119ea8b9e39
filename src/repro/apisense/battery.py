"""Device battery model.

Energy is tracked as a normalized level in [0, 1].  Draining happens two
ways: a baseline idle drain per hour, and a per-sample cost per sensor.
Charging follows a fixed night window (22:00-07:00), the dominant real
pattern.  The model is deliberately simple — what the experiments need is
a resource that depletes monotonically with sampling and differs across
devices, so energy-aware scheduling has something to optimise (E6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlatformError
from repro.units import DAY, HOUR


@dataclass(frozen=True)
class BatteryModel:
    """Static parameters shared by a device class."""

    #: Idle drain per hour of simulated time (fraction of capacity).
    baseline_drain_per_hour: float = 0.01
    #: Per-sample cost per sensor (fraction of capacity).
    sensor_cost: dict[str, float] = field(
        default_factory=lambda: {
            "gps": 2.0e-5,
            "network": 6.0e-6,
            "accelerometer": 2.0e-6,
            "battery": 0.0,
        }
    )
    #: Charge gained per hour while charging.
    charge_per_hour: float = 0.5
    #: Night charging window, seconds from midnight (start, end).
    charge_window: tuple[float, float] = (22 * HOUR, 7 * HOUR)

    def cost_of(self, sensors: tuple[str, ...]) -> float:
        """Energy cost of sampling this sensor set once."""
        return sum(self.sensor_cost.get(name, 1.0e-5) for name in sensors)

    def is_charging_time(self, time: float) -> bool:
        """Whether the (possibly midnight-wrapping) charge window covers
        ``time``."""
        time_of_day = time % DAY
        start, end = self.charge_window
        if start <= end:
            return start <= time_of_day < end
        return time_of_day >= start or time_of_day < end


class Battery:
    """Mutable battery state of one device, lazily integrated over time."""

    def __init__(self, model: BatteryModel, level: float = 1.0, time: float = 0.0):
        if not (0.0 <= level <= 1.0):
            raise PlatformError(f"battery level must be in [0, 1]: {level}")
        self.model = model
        self._level = level
        self._last_update = time
        #: Energy cost per sensor tuple: a task asks for the same tuple
        #: on every sample, so the sum is taken once per tuple.
        self._costs: dict[tuple[str, ...], float] = {}

    def _advance(self, time: float) -> None:
        """Apply baseline drain / charging between the last update and now.

        The charge window is integrated piecewise per day boundary; the
        approximation of applying the dominant regime over each sub-span
        is fine at the sampling periods the platform uses (<= minutes).
        """
        cursor = self._last_update
        if time == cursor:
            return  # a second reading within one tick
        if time < cursor:
            raise PlatformError(f"battery time went backwards: {cursor} -> {time}")
        model = self.model
        level = self._level
        while cursor < time:
            span = min(time - cursor, 15 * 60.0)  # integrate in <= 15 min slabs
            if model.is_charging_time(cursor):
                level += model.charge_per_hour * span / HOUR
            else:
                level -= model.baseline_drain_per_hour * span / HOUR
            cursor += span
        self._level = min(1.0, max(0.0, level))
        self._last_update = time

    def level(self, time: float) -> float:
        """Battery level in [0, 1] at simulation ``time``."""
        self._advance(time)
        return self._level

    def is_empty(self, time: float) -> bool:
        return self.level(time) <= 0.0

    def drain_sample(self, sensors: tuple[str, ...], time: float) -> bool:
        """Pay the cost of one sample; returns False if the battery died.

        A dead battery refuses the sample (the device skips collection
        until the next charge window).
        """
        self._advance(time)
        cost = self._costs.get(sensors)
        if cost is None:
            cost = self._costs[sensors] = self.model.cost_of(sensors)
        if self._level <= cost:
            self._level = 0.0
            return False
        self._level -= cost
        return True
