"""The stream engine: live windowed views fed by pipeline flushes.

:class:`StreamEngine` taps the ingest path through
:meth:`repro.store.pipeline.IngestPipeline.add_listener` — every flushed
batch is absorbed **once, at flush time, O(batch)**; reading a view
never re-scans the columnar store.  State lives in per-task **panes**
(tumbling slices of event time, one per registered slide granularity's
GCD — the engine's ``pane_seconds``):

- every record lands in exactly one pane (count, per-user activity,
  geo cell, P² value/lag sketches): a flush's columns are bucketed by
  (task, pane) with numpy and each group is folded in one call,
  whatever the number of registered windowed views;
- when the event-time watermark passes a pane boundary, every view
  whose window closes there is assembled by merging its panes into a
  :class:`~repro.streams.views.WindowSnapshot` (count-sum, cell-union,
  P²-merge) and appended to that view's bounded history;
- continuous queries registered on the view are evaluated against the
  closing snapshot, appending :class:`~repro.streams.queries.
  StreamAlert`\\ s to the bounded alert log.

Windows close on **event time** (the simulated clock records carry),
driven by a watermark ``max event time seen - allowed_lateness``.
Devices upload in periodic batches, so a record can trail the newest
record seen by up to its upload period; size ``allowed_lateness``
accordingly (records older than their already-closed pane are counted
as late and excluded from views).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import StreamError
from repro.obs.instruments import StreamInstruments
from repro.geo.grid import SpatialGrid
from repro.store.columns import RecordBatch, cells_of, columnize, group_rows
from repro.streams.queries import AlertLog, ContinuousQuery, StreamAlert
from repro.streams.views import PaneStats, WindowSnapshot, snapshot_from_panes
from repro.streams.windows import WindowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.apisense.device import SensorRecord
    from repro.simulation import Simulator
    from repro.store.pipeline import IngestPipeline

#: Observer invoked with every freshly closed window snapshot.
WindowCallback = Callable[[WindowSnapshot], None]


@dataclass
class StreamStats:
    """Counters of one stream engine."""

    records_seen: int = 0
    late_records: int = 0
    panes_closed: int = 0
    windows_emitted: int = 0
    queries_evaluated: int = 0
    alerts_fired: int = 0


class StreamEngine:
    """Maintains windowed materialized views over the live record stream.

    ``sim`` is the clock of ingest-lag views and alert times; an engine
    without one skips lag tracking and stamps alerts with the closing
    window's end.
    """

    def __init__(
        self,
        sim: "Simulator | None" = None,
        pane_seconds: float = 300.0,
        allowed_lateness: float = 1800.0,
        cell_deg: float = 0.005,
        grid: SpatialGrid | None = None,
        history: int = 64,
        alert_capacity: int = 256,
    ):
        if pane_seconds <= 0:
            raise StreamError(f"pane size must be positive: {pane_seconds}")
        if allowed_lateness < 0:
            raise StreamError(f"allowed lateness must be >= 0: {allowed_lateness}")
        if history < 1:
            raise StreamError(f"view history must hold >= 1 window: {history}")
        self._sim = sim
        self.pane_seconds = pane_seconds
        self.allowed_lateness = allowed_lateness
        self.cell_deg = cell_deg
        #: Optional study-area grid: cells become grid ``(row, col)``
        #: indices (clamped to the area) instead of global lat/lon
        #: quantization — matches heatmaps built on the same grid.
        self.grid = grid
        self.history = history
        self._views: dict[str, WindowSpec] = {}
        self._queries: dict[str, list[ContinuousQuery]] = {}
        self._panes: dict[str, dict[int, PaneStats]] = {}
        self._tasks: set[str] = set()
        self._history: dict[tuple[str, str], "list[WindowSnapshot]"] = {}
        self._window_callbacks: list[WindowCallback] = []
        self._closed_pane = 0  # panes [0, _closed_pane) are closed
        self._max_event_time = float("-inf")
        self.alerts = AlertLog(capacity=alert_capacity)
        self.stats = StreamStats()
        self._last_window_rate = 0.0
        self.obs = StreamInstruments(
            obs.metrics_registry(), obs.next_instance("stream"), self.stats
        )
        # Callback-backed: the scraper reads the live watermark without
        # the engine ever touching the gauge on its hot path.
        self.obs.watermark.read_weakly(self, "watermark")
        self._tracer = obs.tracer()
        #: Trace lineage parked per (task, pane): ``{trace_id: [times]}``
        #: of the traced records folded into each open pane, attached to
        #: the ``stream.window`` span when the pane's windows close and
        #: dropped with the pane at the stale horizon.
        self._traced_panes: dict[tuple[str, int], dict[int, list[float]]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, pipeline: "IngestPipeline") -> "StreamEngine":
        """Subscribe to a pipeline's flushes; returns self for chaining."""
        pipeline.add_listener(self.on_flush)
        return self

    def register_view(self, name: str, spec: WindowSpec) -> None:
        """Register a windowed view; its windows must align to panes."""
        if name in self._views:
            raise StreamError(f"view {name!r} already registered")
        ratio = spec.slide / self.pane_seconds
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise StreamError(
                f"view {name!r} slide {spec.slide} must be a positive "
                f"multiple of the engine pane ({self.pane_seconds}s)"
            )
        if self.stats.records_seen or self._closed_pane:
            # Records absorbed while no view existed were not paned (the
            # no-view fast path skips them), so a view registered now
            # would silently under-count its first windows.
            raise StreamError(
                f"cannot register view {name!r} after streaming began; "
                "register views before the first record arrives"
            )
        self._views[name] = spec

    def register_query(
        self,
        view: str,
        query: ContinuousQuery,
    ) -> ContinuousQuery:
        """Attach a continuous query to a registered view's window closes."""
        if view not in self._views:
            raise StreamError(f"cannot register query on unknown view {view!r}")
        self._queries.setdefault(view, []).append(query)
        return query

    def on_window(self, callback: WindowCallback) -> None:
        """Observe every closed window (live dashboards, CLI watch)."""
        self._window_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def views(self) -> dict[str, WindowSpec]:
        return dict(self._views)

    @property
    def tasks(self) -> list[str]:
        return sorted(self._tasks)

    @property
    def active_view_count(self) -> int:
        """Materialized (task, view) histories currently maintained."""
        return len(self._history)

    @property
    def last_window_rate(self) -> float:
        """Total record rate (rec/s) across tasks of the newest closed
        window of the first registered view (the dashboard headline)."""
        return self._last_window_rate

    @property
    def watermark(self) -> float:
        """Event time up to which windows are final."""
        return self._max_event_time - self.allowed_lateness

    def latest(self, task: str, view: str) -> WindowSnapshot | None:
        """The most recently closed window of one (task, view), if any."""
        history = self._history.get((task, view))
        return history[-1] if history else None

    def snapshots(self, task: str, view: str) -> list[WindowSnapshot]:
        """The retained closed windows of one (task, view), oldest first."""
        if view not in self._views:
            raise StreamError(f"unknown view {view!r}")
        return list(self._history.get((task, view), ()))

    # ------------------------------------------------------------------
    # Ingest path (pipeline flush listener)
    # ------------------------------------------------------------------

    def on_flush(self, records: "RecordBatch | Sequence[SensorRecord]") -> None:
        """Absorb one flushed batch into the open panes — O(batch).

        The pipeline hands over the flush's :class:`~repro.store.columns.
        RecordBatch`; a plain record list is columnized on entry.  Each
        (task, pane) group of the batch is folded into its pane in one
        call, the group's records in record order.
        """
        self.stats.records_seen += len(records)
        if not self._views or not len(records):
            return  # nothing materialized; stay free for idle deployments
        batch = columnize(records)
        time = batch.time
        self._max_event_time = max(self._max_event_time, float(time.max()))
        live = np.flatnonzero(time >= self._closed_pane * self.pane_seconds)
        late = len(time) - len(live)
        if late:
            self.stats.late_records += late
        if len(live):
            self._fold(batch, live)
        self._close_ready_panes()

    def _fold(self, batch: RecordBatch, live: np.ndarray) -> None:
        """Fold the batch's ``live`` rows into their (task, pane) panes."""
        pane = self.pane_seconds
        pane_index = (batch.time // pane).astype(np.int64)
        lags = None if self._sim is None else np.maximum(0.0, self._sim.now - batch.time)
        fix = ~np.isnan(batch.lat)
        has_value = ~np.isnan(batch.value)
        tracing = self._tracer.enabled
        keys = batch.task_index * (int(pane_index.max()) + 1) + pane_index
        for rows in group_rows(keys[live]):
            rows = live[rows]
            task = batch.tasks[batch.task_index[rows[0]]]
            index = int(pane_index[rows[0]])
            self._tasks.add(task)
            panes = self._panes.setdefault(task, {})
            stats = panes.get(index)
            if stats is None:
                stats = panes[index] = PaneStats(index * pane, (index + 1) * pane)
            counts = np.bincount(batch.user_index[rows])
            users = np.flatnonzero(counts)
            located = rows[fix[rows]]
            stats.update_columns(
                [batch.users[code] for code in users.tolist()],
                counts[users].tolist(),
                cells_of(batch.lat[located], batch.lon[located], self.cell_deg, self.grid),
                batch.value[rows[has_value[rows]]],
                None if lags is None else lags[rows],
            )
            for tid, times in (batch.traced_keys(rows) if tracing else {}).items():
                pane_traces = self._traced_panes.setdefault((task, index), {})
                pane_traces.setdefault(tid, []).extend(times)

    def advance_watermark(self, event_time: float) -> None:
        """Declare event time reached ``event_time`` without records.

        Lets idle periods close (empty) windows — silence must be
        observable for ``rate_below`` queries and dashboards.
        """
        self._max_event_time = max(self._max_event_time, event_time)
        self._close_ready_panes()

    def finalize(self) -> None:
        """Close out every window containing data (campaign teardown).

        Advances through each view's next close boundary past the last
        record, so trailing partially-filled windows are emitted too.
        Ignores ``allowed_lateness``: after the pipeline's
        ``flush_all()`` nothing is in flight any more.
        """
        if math.isinf(self._max_event_time) or not self._views:
            return
        edge = 0.0
        for spec in self._views.values():
            # Strictly past the last record: a record stamped exactly on
            # a slide boundary belongs to the *next* pane (panes are
            # half-open), so windows containing that pane must be
            # emitted too — for a sliding view the record appears in
            # ``panes_per_window`` windows, the last of which closes
            # ``size - slide`` after the first.
            boundary = (
                math.floor(self._max_event_time / spec.slide + 1e-9) + 1
            ) * spec.slide + (spec.size - spec.slide)
            edge = max(edge, max(boundary, spec.size))
        last = int(round(edge / self.pane_seconds))
        self._close_through(max(last, self._closed_pane))

    # ------------------------------------------------------------------
    # Window close path
    # ------------------------------------------------------------------

    def _close_ready_panes(self) -> None:
        if not self._views or math.isinf(self._max_event_time):
            return
        watermark = self._max_event_time - self.allowed_lateness
        ready = int(math.floor(watermark / self.pane_seconds + 1e-9))
        if ready > self._closed_pane:
            self._close_through(ready)

    def _close_through(self, pane_index: int) -> None:
        """Process every pane boundary up to ``pane_index * pane_seconds``."""
        max_size = max(spec.size for spec in self._views.values())
        for index in range(self._closed_pane + 1, pane_index + 1):
            boundary = index * self.pane_seconds
            self.stats.panes_closed += 1
            for view_name, spec in self._views.items():
                if spec.closes_at(boundary):
                    self._emit_windows(view_name, spec, boundary)
            # Drop panes no future window can include.
            horizon = boundary + self.pane_seconds - max_size
            for task, panes in self._panes.items():
                stale = [i for i, p in panes.items() if p.end <= horizon]
                for i in stale:
                    del panes[i]
                    self._traced_panes.pop((task, i), None)
        self._closed_pane = pane_index

    def _emit_windows(self, view_name: str, spec: WindowSpec, boundary: float) -> None:
        start, end = spec.window_at(boundary)
        first_pane = int(round(start / self.pane_seconds))
        last_pane = int(round(end / self.pane_seconds))
        primary = next(iter(self._views))
        total_records = 0
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        for task in sorted(self._tasks):
            panes = self._panes.get(task, {})
            span = [panes[i] for i in range(first_pane, last_pane) if i in panes]
            snapshot = snapshot_from_panes(task, view_name, start, end, span)
            if self._tracer.enabled:
                self._trace_window(task, view_name, start, end, first_pane, last_pane)
            history = self._history.setdefault((task, view_name), [])
            self._evaluate_queries(view_name, snapshot, history)
            history.append(snapshot)
            if len(history) > self.history:
                del history[0]
            self.stats.windows_emitted += 1
            total_records += snapshot.records
            for callback in self._window_callbacks:
                callback(snapshot)
        if timed:
            self.obs.window_close_seconds.observe(_time.perf_counter() - started)
        if view_name == primary and self._tasks:
            self._last_window_rate = total_records / spec.size

    def _trace_window(
        self,
        task: str,
        view_name: str,
        start: float,
        end: float,
        first_pane: int,
        last_pane: int,
    ) -> None:
        """Emit one ``stream.window`` span carrying the closing window's
        traced-record lineage (a sliding view legitimately claims the
        same record in ``size/slide`` consecutive windows)."""
        lineage: dict[int, list[float]] = {}
        for index in range(first_pane, last_pane):
            for tid, times in self._traced_panes.get((task, index), {}).items():
                lineage.setdefault(tid, []).extend(times)
        if not lineage:
            return
        with self._tracer.span(
            "stream.window", task=task, view=view_name, start=start, end=end
        ) as handle:
            handle.add_records(lineage)

    def _evaluate_queries(
        self,
        view_name: str,
        snapshot: WindowSnapshot,
        history: Sequence[WindowSnapshot],
    ) -> None:
        for query in self._queries.get(view_name, ()):  # registered order
            if not query.applies_to(snapshot.task):
                continue
            self.stats.queries_evaluated += 1
            message = query.evaluate(snapshot, history)
            if message is None:
                continue
            self.stats.alerts_fired += 1
            self.alerts.append(
                StreamAlert(
                    time=self._sim.now if self._sim is not None else snapshot.end,
                    task=snapshot.task,
                    view=view_name,
                    query=query.name,
                    window=(snapshot.start, snapshot.end),
                    message=message,
                )
            )
