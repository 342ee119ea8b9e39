"""Continuous queries: standing predicates over closing windows.

Batch analytics ask "what happened?"; a sensing campaign operator asks
"tell me *when* something happens" — the defining middleware service of
context-aware platforms is the continuous query, not the batch pull.
A :class:`ContinuousQuery` is a named predicate evaluated every time a
window of its view closes; when it fires, the engine appends a
:class:`StreamAlert` to its bounded :class:`AlertLog`, which the
monitoring dashboard surfaces (unacknowledged count) and operators
drain with :meth:`AlertLog.acknowledge`.

Built-in predicate factories cover the common campaign pathologies:

- :func:`rate_below` — the crowd stopped contributing (device churn,
  transport outage, task expiry);
- :func:`coverage_stalled` — records keep arriving but explore no new
  territory (the crowd is sitting still; recruit elsewhere);
- :func:`percentile_above` — a value or ingest-lag percentile crossed a
  threshold (sensor anomaly / pipeline congestion).

Custom predicates are plain callables ``(snapshot, history) -> str |
None`` returning the alert message when firing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import StreamError
from repro.streams.views import WindowSnapshot, check_quantile

#: A predicate sees the closing window and the view's earlier snapshots
#: (most recent last) and returns the alert message, or None.
QueryPredicate = Callable[[WindowSnapshot, Sequence[WindowSnapshot]], "str | None"]


@dataclass(frozen=True)
class StreamAlert:
    """One firing of a continuous query."""

    time: float
    task: str
    view: str
    query: str
    window: tuple[float, float]
    message: str

    def to_text(self) -> str:
        return (
            f"t={self.time:.0f}s [{self.query}] {self.task}/{self.view} "
            f"window [{self.window[0]:.0f},{self.window[1]:.0f}): {self.message}"
        )


class ContinuousQuery:
    """A named standing predicate bound to one windowed view.

    ``tasks`` restricts evaluation to the named tasks (None = every
    task the view tracks).
    """

    def __init__(
        self,
        name: str,
        predicate: QueryPredicate,
        tasks: Sequence[str] | None = None,
    ):
        if not name:
            raise StreamError("continuous query needs a non-empty name")
        self.name = name
        self.predicate = predicate
        self.tasks = frozenset(tasks) if tasks is not None else None
        self.evaluations = 0
        self.fires = 0

    def applies_to(self, task: str) -> bool:
        return self.tasks is None or task in self.tasks

    def evaluate(
        self, snapshot: WindowSnapshot, history: Sequence[WindowSnapshot]
    ) -> str | None:
        self.evaluations += 1
        message = self.predicate(snapshot, history)
        if message is not None:
            self.fires += 1
        return message


class AlertLog:
    """Bounded log of stream alerts (drop-oldest under overflow).

    The monitoring tier reads :attr:`unacknowledged`; operators consume
    alerts with :meth:`acknowledge`.  Overflow never blocks the stream:
    the oldest alerts are evicted and counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise StreamError(f"alert log capacity must be positive: {capacity}")
        self.capacity = capacity
        self._alerts: deque[StreamAlert] = deque()
        self.total = 0
        self.dropped = 0
        self._acknowledged = 0

    def __len__(self) -> int:
        return len(self._alerts)

    def append(self, alert: StreamAlert) -> None:
        if len(self._alerts) >= self.capacity:
            self._alerts.popleft()
            self.dropped += 1
            # The evicted alert can no longer be acknowledged.
            self._acknowledged = max(0, self._acknowledged - 1)
        self._alerts.append(alert)
        self.total += 1

    @property
    def unacknowledged(self) -> int:
        """Alerts appended (and still retained) but not yet acknowledged."""
        return len(self._alerts) - self._acknowledged

    def acknowledge(self, n: int | None = None) -> int:
        """Mark the oldest ``n`` retained alerts (default: all) as seen."""
        fresh = self.unacknowledged
        taken = fresh if n is None else max(0, min(n, fresh))
        self._acknowledged += taken
        return taken

    def alerts(self, unacknowledged_only: bool = False) -> list[StreamAlert]:
        """The retained alerts, oldest first."""
        items = list(self._alerts)
        if unacknowledged_only:
            items = items[self._acknowledged:]
        return items


# ----------------------------------------------------------------------
# Built-in predicate factories
# ----------------------------------------------------------------------


def rate_below(threshold: float) -> QueryPredicate:
    """Fire when a window's record rate drops below ``threshold`` rec/s."""
    if threshold <= 0:
        raise StreamError(f"rate threshold must be positive: {threshold}")

    def predicate(snapshot: WindowSnapshot, history: Sequence[WindowSnapshot]):
        if snapshot.rate < threshold:
            return (
                f"record rate {snapshot.rate:.3f}/s below {threshold:.3f}/s "
                f"({snapshot.records} records in {snapshot.duration:.0f}s)"
            )
        return None

    return predicate


def coverage_stalled(windows: int = 3) -> QueryPredicate:
    """Fire when ``windows`` consecutive windows explored no new cell.

    "New" is relative to everything the view covered before the probed
    run of windows; an all-idle run does not fire (that is
    :func:`rate_below`'s job — silence is not a coverage problem).
    """
    if windows < 1:
        raise StreamError(f"coverage_stalled needs >= 1 window: {windows}")

    def predicate(snapshot: WindowSnapshot, history: Sequence[WindowSnapshot]):
        if len(history) < windows:
            return None  # not enough history to judge a stall
        # The probed run: the closing window plus the windows-1 before it.
        run = list(history[len(history) - (windows - 1):]) + [snapshot]
        if not any(w.records for w in run):
            return None
        seen: set = set()
        for earlier in history[: len(history) - (windows - 1)]:
            seen |= earlier.cells
        if not seen:
            return None  # view never covered anything: nothing to stall against
        fresh = set().union(*(w.cells for w in run)) - seen
        if not fresh:
            return (
                f"no new coverage cell in {windows} windows "
                f"({len(seen)} cells total)"
            )
        return None

    return predicate


def percentile_above(
    metric: str, p: float, threshold: float
) -> QueryPredicate:
    """Fire when the window's ``metric`` (``value``/``lag``) ``p``-quantile,
    ``p`` in (0, 1), exceeds ``threshold``."""
    if metric not in ("value", "lag"):
        raise StreamError(f"unknown percentile metric {metric!r}; 'value' or 'lag'")
    check_quantile(p)

    def predicate(snapshot: WindowSnapshot, history: Sequence[WindowSnapshot]):
        reading = (
            snapshot.value_quantile(p) if metric == "value" else snapshot.lag_quantile(p)
        )
        if reading > threshold:
            return f"{metric} p{p * 100:g} {reading:.2f} above {threshold:.2f}"
        return None

    return predicate
