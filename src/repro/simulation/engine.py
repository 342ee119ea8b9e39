"""The event loop: a time-ordered heap of callbacks.

Every upload, transport delivery and pipeline flush is one event here,
and so is every tick of a scripted task's timers (a scriptless task's
samples are taken in one pass per upload, see
:mod:`repro.apisense.device`), so an event costs what it must and no
more.  A heap
entry is a plain ``(time, seq, callback, token)`` tuple: ``seq`` is
unique, so tuple comparison is decided by ``(time, seq)`` in C and never
reaches the callback — same-time events fire in insertion order and two
un-orderable callbacks at one instant are never compared.  The only
object allocated per event besides the tuple is its slotted
:class:`CancelToken`.

Times must be real numbers: a NaN would compare false against
everything, sit at the heap's root and starve every later event, so the
``schedule*`` guards are written to refuse it (``not (time >= now)``).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable

from repro.errors import SimulationError


class CancelToken:
    """Handle returned by ``schedule*``; call :meth:`cancel` to revoke."""

    __slots__ = ("cancelled",)

    def __init__(self, cancelled: bool = False):
        self.cancelled = cancelled

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event simulator.

    Events fire in (time, insertion-order) order, so same-time events are
    processed FIFO — determinism matters more than fairness here.  All
    times are seconds on the same axis as mobility data (0 = midnight of
    day 0).
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._heap: list[tuple[float, int, Callable[[], None], CancelToken]] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones not yet popped)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None]) -> CancelToken:
        """Run ``callback`` at absolute simulation ``time``."""
        if not (time >= self._now):  # also refuses NaN
            raise SimulationError(
                f"cannot schedule at {time}; simulation time is already {self._now}"
            )
        token = CancelToken()
        heappush(self._heap, (time, next(self._counter), callback, token))
        return token

    def schedule(self, delay: float, callback: Callable[[], None]) -> CancelToken:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if not (delay >= 0):  # also refuses NaN
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        until: float | None = None,
        first_at: float | None = None,
    ) -> CancelToken:
        """Run ``callback`` every ``period`` seconds until ``until``.

        Cancellation via the returned token stops future firings.  The
        callback may itself cancel the token to stop the series.
        """
        if not (period > 0):  # also refuses NaN
            raise SimulationError(f"period must be positive: {period}")
        start = self._now + period if first_at is None else first_at
        if not (start >= self._now):  # also refuses NaN
            raise SimulationError(
                f"cannot schedule at {start}; simulation time is already {self._now}"
            )
        token = CancelToken()
        heap, counter = self._heap, self._counter

        def arm(time: float) -> None:
            if until is None or time <= until:
                heappush(heap, (time, next(counter), fire, token))

        def fire() -> None:  # popped only while the token is live
            callback()
            arm(self._now + period)

        arm(start)
        return token

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, callback, token = heappop(heap)
            if token.cancelled:
                continue
            self._now = time
            callback()
            self._processed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Process every event with ``time <= end_time``.

        Simulation time ends at exactly ``end_time`` even if the queue
        drains earlier, so periodic reports align across runs.
        """
        if not (end_time >= self._now):  # also refuses NaN
            raise SimulationError(
                f"cannot run to {end_time}; simulation time is already {self._now}"
            )
        heap = self._heap
        while heap and heap[0][0] <= end_time:  # step(), inlined per event
            time, _, callback, token = heappop(heap)
            if token.cancelled:
                continue
            self._now = time
            callback()
            self._processed += 1
        self._now = end_time

    def run(self, max_events: int = 10_000_000) -> None:
        """Process events until the queue is empty (bounded by a fuse)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise SimulationError(f"simulation exceeded {max_events} events; runaway loop?")
