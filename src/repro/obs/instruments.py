"""Per-tier instrument bundles.

Each platform component owns one bundle: the bundle registers the
tier's metric families on the shared registry (idempotent — every
instance wires the same families) and resolves the *children* for this
instance's label set once, so the component's hot path is an attribute
load + increment, never a label lookup.  A count the component already
keeps in its ``*Stats`` object is not counted twice: the bundle takes
that object and makes the child a read view of the field
(:meth:`~repro.obs.registry._Family.read`).

Every instrument carries an ``instance`` label (``pipeline-1``,
``store-2``...) the bundle allocates from its registry
(:meth:`~repro.obs.registry.MetricsRegistry.next_instance`), so
multi-hive federations on one registry keep tiers separable in the
exposition while ``MetricsRegistry.total(name)`` still folds them
platform-wide.

Naming follows the Prometheus convention the exposition implies:
``repro_<tier>_<what>_total`` for counters, ``..._seconds`` for
histograms (these surface automatically in the ``obs top`` hot-path
table), plain gauge names for levels.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.federation.router import ControlPlaneStats
    from repro.server.server import ServerStats
    from repro.store.pipeline import PipelineStats
    from repro.streams.engine import StreamStats

__all__ = [
    "PipelineInstruments",
    "StoreInstruments",
    "StreamInstruments",
    "FederationInstruments",
    "MergerInstruments",
    "SecureAggInstruments",
    "ServerInstruments",
    "MiddlewareInstruments",
]


class PipelineInstruments:
    """IngestPipeline: admission accounting (read from its stats) + flush timing."""

    def __init__(self, registry: MetricsRegistry, stats: "PipelineStats"):
        self.registry = registry
        self.instance = instance = registry.next_instance("pipeline")
        r = registry
        lbl = {"instance": instance}
        r.counter(
            "repro_pipeline_records_submitted_total",
            "Records offered to the ingest pipeline.",
            ("instance",),
        ).read(stats, "submitted", **lbl)
        r.counter(
            "repro_pipeline_records_accepted_total",
            "Records admitted past backpressure.",
            ("instance",),
        ).read(stats, "accepted", **lbl)
        outcome = r.counter(
            "repro_pipeline_records_refused_total",
            "Records refused or evicted, by backpressure outcome.",
            ("instance", "outcome"),
        )
        outcome.read(stats, "rejected", outcome="rejected", **lbl)
        outcome.read(stats, "dropped", outcome="dropped", **lbl)
        r.counter(
            "repro_pipeline_records_spilled_total",
            "Records spilled to the overflow area.",
            ("instance",),
        ).read(stats, "spilled", **lbl)
        r.counter(
            "repro_pipeline_records_flushed_total",
            "Records flushed into the dataset store.",
            ("instance",),
        ).read(stats, "flushed_records", **lbl)
        r.counter(
            "repro_pipeline_flushes_total",
            "Shard flush operations.",
            ("instance",),
        ).read(stats, "flushes", **lbl)
        self.flush_seconds = r.histogram(
            "repro_pipeline_flush_seconds",
            "Wall-clock time per shard flush (store append + routing + listeners).",
            ("instance",),
        ).labels(**lbl)


class StoreInstruments:
    """DatasetStore: append / scan / compaction timing."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.instance = instance = registry.next_instance("store")
        r = registry
        lbl = {"instance": instance}
        self.records_appended = r.counter(
            "repro_store_records_appended_total",
            "Records written into columnar segments.",
            ("instance",),
        ).labels(**lbl)
        self.append_seconds = r.histogram(
            "repro_store_append_seconds",
            "Wall-clock time per columnar append batch.",
            ("instance",),
        ).labels(**lbl)
        self.scans = r.counter(
            "repro_store_scans_total",
            "Store scan operations.",
            ("instance",),
        ).labels(**lbl)
        self.scan_seconds = r.histogram(
            "repro_store_scan_seconds",
            "Wall-clock time per store scan.",
            ("instance",),
        ).labels(**lbl)
        self.compactions = r.counter(
            "repro_store_compactions_total",
            "Segment compaction passes.",
            ("instance",),
        ).labels(**lbl)
        self.compact_seconds = r.histogram(
            "repro_store_compact_seconds",
            "Wall-clock time per compaction pass.",
            ("instance",),
        ).labels(**lbl)


class StreamInstruments:
    """StreamEngine: pane updates, window closes, alerts (read from its stats)."""

    def __init__(self, registry: MetricsRegistry, stats: "StreamStats"):
        self.registry = registry
        self.instance = instance = registry.next_instance("stream")
        r = registry
        lbl = {"instance": instance}
        r.counter(
            "repro_stream_records_seen_total",
            "Records folded into live panes at flush time.",
            ("instance",),
        ).read(stats, "records_seen", **lbl)
        r.counter(
            "repro_stream_late_records_total",
            "Records behind the watermark beyond allowed lateness.",
            ("instance",),
        ).read(stats, "late_records", **lbl)
        r.counter(
            "repro_stream_windows_closed_total",
            "Window snapshots emitted on watermark close.",
            ("instance",),
        ).read(stats, "windows_emitted", **lbl)
        self.window_close_seconds = r.histogram(
            "repro_stream_window_close_seconds",
            "Wall-clock time per view window-close emission.",
            ("instance",),
        ).labels(**lbl)
        r.counter(
            "repro_stream_alerts_total",
            "Continuous-query alerts fired.",
            ("instance",),
        ).read(stats, "alerts_fired", **lbl)
        #: Event-time watermark (callback-backed at wiring time): scrape
        #: ``sim_time - watermark`` for a view-freshness SLI with zero
        #: hot-path cost.
        self.watermark = r.gauge(
            "repro_stream_watermark_seconds",
            "Event-time watermark of the stream engine.",
            ("instance",),
        ).labels(**lbl)


class FederationInstruments:
    """FederationRouter: control plane (read from its stats), gossip, migrations."""

    def __init__(self, registry: MetricsRegistry, stats: "ControlPlaneStats"):
        self.registry = registry
        self.instance = instance = registry.next_instance("federation")
        r = registry
        lbl = {"instance": instance}
        sent = r.counter(
            "repro_federation_control_messages_total",
            "Inter-hive control-plane sends, by outcome.",
            ("instance", "outcome"),
        )
        sent.read(stats, "messages_sent", outcome="sent", **lbl)
        sent.read(stats, "messages_lost", outcome="lost", **lbl)
        r.counter(
            "repro_federation_control_retries_total",
            "Control-plane send retries after loss.",
            ("instance",),
        ).read(stats, "retries", **lbl)
        self.gossip_rounds = r.counter(
            "repro_federation_gossip_rounds_total",
            "Membership gossip rounds.",
            ("instance",),
        ).labels(**lbl)
        self.migrations = r.counter(
            "repro_federation_migrations_total",
            "Device migrations between hives.",
            ("instance",),
        ).labels(**lbl)
        self.migration_seconds = r.histogram(
            "repro_federation_migration_seconds",
            "Wall-clock time per device migration.",
            ("instance",),
        ).labels(**lbl)


class MergerInstruments:
    """FederatedStreamMerger: cross-hive window folds."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.instance = instance = registry.next_instance("merger")
        r = registry
        lbl = {"instance": instance}
        self.merges = r.counter(
            "repro_federation_merges_total",
            "Federated window merges performed.",
            ("instance",),
        ).labels(**lbl)
        self.merge_seconds = r.histogram(
            "repro_federation_merge_seconds",
            "Wall-clock time per federated window merge.",
            ("instance",),
        ).labels(**lbl)


class SecureAggInstruments:
    """SecureAggregationSession: round phases, protocols, dropouts."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.instance = instance = registry.next_instance("secure_agg")
        r = registry
        self._lbl = {"instance": instance}
        self._phase_seconds = r.histogram(
            "repro_secure_agg_phase_seconds",
            "Wall-clock time per secure-aggregation round phase.",
            ("instance", "phase"),
        )
        self._rounds = r.counter(
            "repro_secure_agg_rounds_total",
            "Completed secure-aggregation rounds, by protocol cohort.",
            ("instance", "protocol"),
        )
        self.dropouts = r.counter(
            "repro_secure_agg_dropouts_total",
            "Participants lost mid-session.",
            ("instance",),
        ).labels(**self._lbl)

    def phase_seconds(self, phase: str):
        return self._phase_seconds.labels(phase=phase, **self._lbl)

    def round_done(self, protocol: str) -> None:
        self._rounds.labels(protocol=protocol, **self._lbl).inc()


class ServerInstruments:
    """ReproServer: surfaces, sessions, pushes; denials read from its stats."""

    def __init__(self, registry: MetricsRegistry, stats: "ServerStats"):
        self.registry = registry
        self.instance = instance = registry.next_instance("server")
        r = registry
        self._lbl = {"instance": instance}
        self._requests = r.counter(
            "repro_server_requests_total",
            "Requests handled, by surface.",
            ("instance", "surface"),
        )
        self._request_seconds = r.histogram(
            "repro_server_request_seconds",
            "Wall-clock time per request, by surface.",
            ("instance", "surface"),
        )
        denials = r.counter(
            "repro_server_denials_total",
            "Middleware denials, by hook.",
            ("instance", "hook"),
        )
        for hook in ("connect", "request", "channel"):
            denials.read(stats, f"denials_{hook}", hook=hook, **self._lbl)
        self.sessions = r.gauge(
            "repro_server_sessions",
            "Live sessions.",
            ("instance",),
        ).labels(**self._lbl)
        self.subscriptions = r.gauge(
            "repro_server_subscriptions",
            "Live channel subscriptions.",
            ("instance",),
        ).labels(**self._lbl)
        pushes = r.counter(
            "repro_server_pushes_total",
            "Dashboard pushes, by outcome (enqueued/sent/dropped).",
            ("instance", "outcome"),
        )
        #: Push outcomes over every session, live or closed: the
        #: server's ``pushes_sent`` / ``pushes_dropped`` and the
        #: children of ``repro_server_pushes_total`` read these ints.
        self.push_totals = dict.fromkeys(("enqueued", "sent", "dropped"), 0)
        for outcome in self.push_totals:
            pushes.labels(outcome=outcome, **self._lbl).set_function(
                partial(self.push_totals.__getitem__, outcome)
            )
        self.push_seconds = r.histogram(
            "repro_server_push_seconds",
            "Wall-clock time per window fan-out (snapshot build + enqueue).",
            ("instance",),
        ).labels(**self._lbl)

    def count_push(self, outcome: str) -> None:
        """One push ``enqueued`` / ``sent`` / ``dropped`` by any session."""
        self.push_totals[outcome] += 1

    def request(self, surface: str):
        return self._requests.labels(surface=surface, **self._lbl)

    def request_seconds(self, surface: str):
        return self._request_seconds.labels(surface=surface, **self._lbl)


class MiddlewareInstruments:
    """MetricsMiddleware: per-hook traffic on the shared registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.instance = instance = registry.next_instance("middleware")
        r = registry
        self._lbl = {"instance": instance}
        self._hooks = r.counter(
            "repro_middleware_events_total",
            "Middleware chain events, by hook.",
            ("instance", "hook"),
        )
        self.connects = self._hooks.labels(hook="connect", **self._lbl)
        self.channel_messages = self._hooks.labels(hook="channel_message", **self._lbl)
        self._surface_requests = r.counter(
            "repro_middleware_requests_total",
            "Requests observed by the metrics middleware, by surface.",
            ("instance", "surface"),
        )
        outcomes = r.counter(
            "repro_middleware_outcomes_total",
            "Non-Ok middleware outcomes observed, by kind.",
            ("instance", "kind"),
        )
        self.denied = outcomes.labels(kind="deny", **self._lbl)
        self.redirected = outcomes.labels(kind="redirect", **self._lbl)

    def request(self, surface: str):
        return self._surface_requests.labels(surface=surface, **self._lbl)
