"""Platform health monitoring: what the Hive operator watches.

Aggregates the platform's counters into one report: task progress,
community motivation, battery health, transport quality.  The real
APISENSE exposes this as the operator dashboard; the reproduction
renders it as structured data + text so campaigns can be watched (and
asserted on) mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apisense.hive import Hive
from repro.apisense.metrics import acceptance_rate


@dataclass(frozen=True)
class TaskHealth:
    """Progress snapshot of one published task."""

    task: str
    offers: int
    acceptances: int
    records: int
    uploads: int

    @property
    def acceptance_rate(self) -> float:
        return acceptance_rate(self.acceptances, self.offers)


@dataclass(frozen=True)
class PlatformHealthReport:
    """One dashboard snapshot."""

    time: float
    devices: int
    running_devices: int
    mean_battery: float
    low_battery_devices: int
    mean_motivation: float
    at_risk_users: int
    transport_loss_rate: float
    messages_sent: int
    #: Server-side storage health (the repro.store subsystem).
    store_records: int = 0
    store_segments: int = 0
    store_shards: int = 0
    pipeline_flushes: int = 0
    pipeline_buffered: int = 0
    pipeline_backlog: int = 0
    #: Backpressure counters: records admitted, shed (dropped/rejected)
    #: or parked (spilled) by the ingest gateway since the campaign
    #: started.  Mutually exclusive per record — see
    #: :class:`repro.store.pipeline.PipelineStats` — and reconciling:
    #: ``accepted = store_records + dropped + buffered + backlog``.
    pipeline_accepted: int = 0
    pipeline_dropped: int = 0
    pipeline_rejected: int = 0
    pipeline_spilled: int = 0
    mean_flush_batch: float = 0.0
    ingest_lag_p95: float = 0.0
    #: Live streaming tier (the Hive's stream engine): materialized
    #: (task, view) count, total record rate of the newest closed
    #: window, and alerts nobody has acknowledged yet.
    stream_views: int = 0
    stream_last_rate: float = 0.0
    stream_alerts_unacked: int = 0
    #: Alerts the bounded :class:`~repro.streams.queries.AlertLog`
    #: evicted before anyone read them — drop-oldest is a policy, not a
    #: silent loss, so the count surfaces here.
    stream_alerts_dropped: int = 0
    #: Serving tier (``repro.server``), populated when a server is
    #: passed to :func:`snapshot`: live sessions and subscriptions,
    #: pushes that reached a transport, pushes evicted by slow-consumer
    #: drop-oldest, and middleware denials across all surfaces.
    server_sessions: int = 0
    server_subscriptions: int = 0
    #: Push accounting, reconciling per message:
    #: ``enqueued = sent + dropped + queued`` (a push is exactly one of
    #: delivered, evicted by drop-oldest, or still waiting in a live
    #: session's queue) — :attr:`server_push_unaccounted` asserts it.
    server_pushes_enqueued: int = 0
    server_pushes_sent: int = 0
    server_pushes_dropped: int = 0
    server_pushes_queued: int = 0
    server_denials: int = 0
    #: True when this snapshot was taken with a serving tier attached
    #: (all-zero server counters are then meaningful, not absent).
    server_attached: bool = False
    #: False when the hive's stream engine has no registered views —
    #: the streaming tier is present but *not attached to any
    #: analytics*, so zero-valued stream rows would mislead.
    streams_attached: bool = True
    #: SLO plane, populated when an :class:`~repro.obs.slo.SLOTracker`
    #: is passed to :func:`snapshot`.
    slo_attached: bool = False
    slo_total: int = 0
    slo_burning: int = 0
    slo_lines: tuple[str, ...] = field(default_factory=tuple)
    tasks: tuple[TaskHealth, ...] = field(default_factory=tuple)

    @property
    def pipeline_shed(self) -> int:
        """Records lost to backpressure (dropped + rejected)."""
        return self.pipeline_dropped + self.pipeline_rejected

    @property
    def pipeline_unaccounted(self) -> int:
        """Admitted records the dashboard cannot place (0 when healthy).

        ``accepted - dropped - buffered - backlog - store_records``;
        non-zero means the gateway's counters double-counted a record
        or the store was fed around the pipeline (bulk loads).
        """
        return (
            self.pipeline_accepted
            - self.pipeline_dropped
            - self.pipeline_buffered
            - self.pipeline_backlog
            - self.store_records
        )

    @property
    def server_push_unaccounted(self) -> int:
        """Pushes the dashboard cannot place (0 when healthy).

        ``enqueued - sent - dropped - queued``; non-zero means the
        serving tier's push accounting desynced from the registry.
        """
        return (
            self.server_pushes_enqueued
            - self.server_pushes_sent
            - self.server_pushes_dropped
            - self.server_pushes_queued
        )

    def to_text(self) -> str:
        lines = [
            f"platform health @ t={self.time:.0f}s",
            f"  devices: {self.devices} ({self.running_devices} running tasks, "
            f"{self.low_battery_devices} low battery, "
            f"mean battery {self.mean_battery:.2f})",
            f"  community: motivation {self.mean_motivation:.2f} "
            f"({self.at_risk_users} users at churn risk)",
            f"  transport: {self.messages_sent} messages, "
            f"{self.transport_loss_rate:.1%} loss",
            f"  store: {self.store_records} records in {self.store_segments} "
            f"segments / {self.store_shards} shards",
            f"  ingest: {self.pipeline_flushes} flushes "
            f"(mean batch {self.mean_flush_batch:.1f}), "
            f"{self.pipeline_buffered} buffered, {self.pipeline_backlog} spill backlog, "
            f"lag p95 {self.ingest_lag_p95:.1f}s",
            f"  backpressure: {self.pipeline_accepted} admitted, "
            f"{self.pipeline_dropped} dropped, "
            f"{self.pipeline_rejected} rejected, {self.pipeline_spilled} spilled "
            f"({self.pipeline_shed} records shed, "
            f"{self.pipeline_unaccounted} unaccounted)",
            (
                f"  streams: {self.stream_views} live views, last window "
                f"{self.stream_last_rate:.2f} rec/s, "
                f"{self.stream_alerts_unacked} unacked alerts, "
                f"{self.stream_alerts_dropped} alerts evicted"
                if self.streams_attached
                # An engine with no registered views is *not attached*
                # to any analytics — zero rows would read as "attached
                # but quiet" (the federation counterpart of the
                # detached-server rendering below).
                else "  streams: tier not attached (no registered views)"
            ),
        ]
        if self.slo_attached:
            summary = (
                f"{self.slo_burning}/{self.slo_total} burning"
                if self.slo_burning
                else f"all {self.slo_total} within budget"
            )
            lines.append(f"  slo: {summary}")
            for line in self.slo_lines:
                lines.append(f"    {line}")
        if self.server_attached:
            lines.append(
                f"  server: {self.server_sessions} sessions, "
                f"{self.server_subscriptions} subscriptions, "
                f"{self.server_pushes_sent}/{self.server_pushes_enqueued} "
                f"pushes sent, "
                f"{self.server_pushes_dropped} dropped (slow consumers), "
                f"{self.server_denials} middleware denials"
            )
        else:
            # A missing serving tier is *absent*, not idle — all-zero
            # counters here would read as "healthy but quiet" when in
            # fact nobody is watching the tier at all.
            lines.append("  server: tier not attached (no serving-tier data)")
        for task in self.tasks:
            lines.append(
                f"  task {task.task}: {task.records} records, "
                f"{task.uploads} uploads, acceptance {task.acceptance_rate:.0%}"
            )
        return "\n".join(lines)


def snapshot(
    hive: Hive,
    time: float,
    low_battery: float = 0.2,
    at_risk: float = 0.25,
    server=None,
    slos=None,
) -> PlatformHealthReport:
    """Take a health snapshot of a Hive at simulation ``time``.

    ``server`` (a :class:`repro.server.server.ReproServer`, optional)
    adds the serving tier's session/push/denial counters to the report.
    ``slos`` (an :class:`~repro.obs.slo.SLOTracker`, optional) adds the
    SLO status line — which objectives are burning and how hard.

    Counter-valued fields are read from the components' own counters
    (``pipeline.stats``, ``store.stats()``, the server's ``stats`` and
    push tally) — the very ints the
    :class:`~repro.obs.registry.MetricsRegistry` exposition reads, so
    the dashboard and the ``obs`` plane give one count per event
    whether metrics are on or off.  Level-valued fields (buffer depths,
    live views, sessions) read the live objects.
    """
    levels = [device.battery.level(time) for device in hive.devices]
    motivations = [state.motivation for state in hive.community.values()]
    tasks = tuple(
        TaskHealth(
            task=name,
            offers=stats.offers,
            acceptances=stats.acceptances,
            records=stats.records,
            uploads=stats.uploads,
        )
        for name, stats in hive.stats.per_task.items()
    )
    store_stats = hive.store.stats()
    pipeline = hive.pipeline
    lag_p95 = max(
        (hive.store.aggregates.task(name).lag_p95 for name in hive.store.aggregates.tasks),
        default=0.0,
    )
    if server is not None:
        totals = server.obs.push_totals
        pushes_enqueued = totals["enqueued"]
        pushes_sent = totals["sent"]
        pushes_dropped = totals["dropped"]
        denials = server.stats.denials
        pushes_queued = server.pushes_queued
    else:
        pushes_enqueued = pushes_sent = pushes_dropped = 0
        pushes_queued = denials = 0
    slo_lines: tuple[str, ...] = ()
    slo_total = slo_burning = 0
    if slos is not None:
        statuses = slos.statuses()
        slo_total = len(statuses)
        slo_burning = sum(1 for status in statuses if status.burning)
        slo_lines = tuple(
            f"{status.name}: {status.state} "
            f"(objective {status.objective:.3%}, "
            f"worst burn {status.worst_burn():.1f}x)"
            for status in statuses
        )
    return PlatformHealthReport(
        time=time,
        devices=len(hive.devices),
        running_devices=sum(1 for device in hive.devices if device.running_tasks),
        mean_battery=float(np.mean(levels)) if levels else 0.0,
        low_battery_devices=sum(1 for level in levels if level < low_battery),
        mean_motivation=float(np.mean(motivations)) if motivations else 0.0,
        at_risk_users=sum(1 for motivation in motivations if motivation < at_risk),
        transport_loss_rate=hive.transport.stats.loss_rate,
        messages_sent=hive.stats.messages_sent,
        store_records=store_stats.records,
        store_segments=store_stats.segments,
        store_shards=store_stats.n_shards,
        pipeline_flushes=pipeline.stats.flushes,
        pipeline_buffered=pipeline.buffered,
        pipeline_backlog=pipeline.backlog,
        pipeline_accepted=pipeline.stats.accepted,
        pipeline_dropped=pipeline.stats.dropped,
        pipeline_rejected=pipeline.stats.rejected,
        pipeline_spilled=pipeline.stats.spilled,
        mean_flush_batch=pipeline.stats.mean_flush_batch,
        ingest_lag_p95=lag_p95,
        stream_views=hive.streams.active_view_count,
        stream_last_rate=hive.streams.last_window_rate,
        stream_alerts_unacked=hive.streams.alerts.unacknowledged,
        stream_alerts_dropped=hive.streams.alerts.dropped,
        server_sessions=server.sessions_active if server is not None else 0,
        server_subscriptions=(
            server.subscriptions_active if server is not None else 0
        ),
        server_pushes_enqueued=pushes_enqueued,
        server_pushes_sent=pushes_sent,
        server_pushes_dropped=pushes_dropped,
        server_pushes_queued=pushes_queued,
        server_denials=denials,
        server_attached=server is not None,
        streams_attached=bool(hive.streams.views),
        slo_attached=slos is not None,
        slo_total=slo_total,
        slo_burning=slo_burning,
        slo_lines=slo_lines,
        tasks=tasks,
    )
