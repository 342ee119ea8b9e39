"""Health-report and exposition reconciliation invariants.

The dashboard, the exposition and the components' own ``*Stats``
objects must give one count per event wherever it is read: these tests
pin the accounting identities that keep the report honest — per
record, ``accepted = stored + dropped + buffered + backlog``; per push,
``enqueued = sent + dropped + queued`` — and that the registry reads
the very counters the components keep, through any metrics toggle.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro import obs
from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.monitoring import snapshot
from repro.apisense.tasks import SensingTask
from repro.apisense.transport import Transport
from repro.federation import FederationRouter
from repro.server import Deny, ReproServer, ServerDenied, ServerMiddleware
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import ContinuousQuery, StreamEngine, WindowSpec
from tests.server.conftest import VIEW, WINDOW, connect
from tests.server.test_channel import close_windows
from tests.store.conftest import make_record

TASK = "recon"


def make_hive(
    sim: Simulator,
    policy: str = "spill",
    buffer_capacity: int = 4096,
    streams: StreamEngine | None = None,
) -> Hive:
    store = DatasetStore(n_shards=2)
    pipeline = IngestPipeline(
        sim, store, policy=policy, buffer_capacity=buffer_capacity, flush_delay=0.2
    )
    hive = Hive(sim, store=store, pipeline=pipeline, streams=streams)
    owner = Honeycomb("recon-tests", hive)
    task = SensingTask(
        name=TASK,
        sensors=("gps", "battery"),
        sampling_period=60.0,
        upload_period=300.0,
        end=86400.0,
    )
    owner.register_task(task)
    hive.adopt_task(task, owner)
    return hive


def upload(hive: Hive, device: str, n: int, t0: float = 10.0) -> int:
    records = [
        SensorRecord(
            device_id=device,
            user=f"user-{device}",
            task=TASK,
            time=t0 + float(k),
            values={"battery": 0.5},
        )
        for k in range(n)
    ]
    return hive.receive_upload(device, f"user-{device}", TASK, records)


def assert_pipeline_identity(hive: Hive, at: float) -> None:
    report = snapshot(hive, at)
    assert report.pipeline_unaccounted == 0, report.to_text()
    assert report.pipeline_accepted == (
        report.store_records
        + report.pipeline_dropped
        + report.pipeline_buffered
        + report.pipeline_backlog
    )


class TestPipelineIdentity:
    @pytest.mark.parametrize("policy", ["spill", "reject", "drop-oldest"])
    def test_holds_under_each_policy_mid_flight_and_after_drain(self, policy):
        sim = Simulator()
        hive = make_hive(sim, policy=policy, buffer_capacity=8)
        # Overrun one shard's buffer so the policy actually fires.
        for index in range(4):
            upload(hive, "dev-a", 6, t0=10.0 + index)
        assert_pipeline_identity(hive, sim.now)  # buffered / backlog nonzero
        sim.run()
        assert_pipeline_identity(hive, sim.now)
        hive.pipeline.flush_all()
        assert_pipeline_identity(hive, sim.now)
        report = snapshot(hive, sim.now)
        assert report.pipeline_buffered == 0
        assert report.pipeline_backlog == 0
        if policy == "reject":
            assert report.pipeline_rejected > 0
        elif policy == "drop-oldest":
            assert report.pipeline_dropped > 0
        else:
            assert report.pipeline_spilled > 0
            assert report.pipeline_shed == 0

    def test_report_counters_come_from_the_registry(self):
        sim = Simulator()
        hive = make_hive(sim)
        upload(hive, "dev-a", 5)
        sim.run()
        hive.pipeline.flush_all()
        report = snapshot(hive, sim.now)
        registry = obs.metrics_registry()
        pipeline = {"instance": hive.pipeline.obs.instance}
        store = {"instance": hive.store.obs.instance}
        assert (
            report.pipeline_accepted,
            report.pipeline_flushes,
            report.store_records,
        ) == (
            registry.value("repro_pipeline_records_accepted_total", pipeline),
            registry.value("repro_pipeline_flushes_total", pipeline),
            registry.value("repro_store_records_appended_total", store),
        ) == (5, hive.pipeline.stats.flushes, 5)


class TestServerTierRendering:
    def test_absent_tier_is_labelled_not_zeroed(self):
        sim = Simulator()
        report = snapshot(make_hive(sim), 0.0)
        assert not report.server_attached
        text = report.to_text()
        assert "server: tier not attached" in text
        assert "subscriptions" not in text

    def test_push_identity_fields_default_clean(self):
        sim = Simulator()
        report = snapshot(make_hive(sim), 0.0)
        assert report.server_push_unaccounted == 0


class Refuse(ServerMiddleware):
    """Denies one thing per hook: a ``refuse`` header, the ``obs``
    surface and the ``ack_alerts`` channel action."""

    async def connect(self, *, request, session, next):
        return Deny("refused") if "refuse" in request.headers else await next()

    async def request(self, *, request, session, next):
        return Deny("refused") if request.surface == "obs" else await next()

    async def channel_message(self, *, message, session, next):
        if message.action == "ack_alerts":
            return Deny("refused")
        return await next()


def served_hive(sim: Simulator) -> Hive:
    """A hive whose every stream counter moves: a 16-deep drop-oldest
    buffer, windows that close on the watermark, a query that fires on
    every window."""
    engine = StreamEngine(sim=sim, allowed_lateness=0.0)
    engine.register_view(VIEW, WindowSpec.tumbling(WINDOW))
    engine.register_query(VIEW, ContinuousQuery("always", lambda s, h: "closed"))
    return make_hive(sim, "drop-oldest", buffer_capacity=16, streams=engine)


def read_views(hive: Hive, server: ReproServer) -> list[tuple[str, dict, int]]:
    """(family, labels, the component's own count) for every registry
    child that counts an event some component already counts."""
    pipeline, streams = hive.pipeline.stats, hive.streams.stats
    pl = {"instance": hive.pipeline.obs.instance}
    st = {"instance": hive.streams.obs.instance}
    sv = {"instance": server.obs.instance}
    return [
        ("repro_pipeline_records_submitted_total", pl, pipeline.submitted),
        ("repro_pipeline_records_accepted_total", pl, pipeline.accepted),
        *(
            ("repro_pipeline_records_refused_total", {**pl, "outcome": outcome}, count)
            for outcome, count in (
                ("rejected", pipeline.rejected),
                ("dropped", pipeline.dropped),
            )
        ),
        ("repro_pipeline_records_spilled_total", pl, pipeline.spilled),
        ("repro_pipeline_records_flushed_total", pl, pipeline.flushed_records),
        ("repro_pipeline_flushes_total", pl, pipeline.flushes),
        ("repro_stream_records_seen_total", st, streams.records_seen),
        ("repro_stream_late_records_total", st, streams.late_records),
        ("repro_stream_windows_closed_total", st, streams.windows_emitted),
        ("repro_stream_alerts_total", st, streams.alerts_fired),
        *(
            ("repro_server_denials_total", {**sv, "hook": hook}, count)
            for hook, count in (
                ("connect", server.stats.denials_connect),
                ("request", server.stats.denials_request),
                ("channel", server.stats.denials_channel),
            )
        ),
        *(
            ("repro_server_pushes_total", {**sv, "outcome": outcome}, count)
            for outcome, count in server.obs.push_totals.items()
        ),
        (
            "repro_store_records_appended_total",
            {"instance": hive.store.obs.instance},
            hive.store.n_records,
        ),
    ]


def assert_one_count_per_event(hive: Hive, server: ReproServer) -> None:
    registry = obs.metrics_registry()
    views = read_views(hive, server)
    exposed = [
        (name, labels, registry.value(name, labels)) for name, labels, _ in views
    ]
    assert exposed == views
    report = snapshot(hive, hive.sim.now, server=server)
    stats, store = hive.pipeline.stats, hive.store.stats()
    assert (
        report.pipeline_accepted,
        report.pipeline_dropped,
        report.pipeline_rejected,
        report.pipeline_spilled,
        report.pipeline_flushes,
        report.mean_flush_batch,
        report.store_records,
        report.store_segments,
    ) == (
        stats.accepted,
        stats.dropped,
        stats.rejected,
        stats.spilled,
        stats.flushes,
        stats.mean_flush_batch,
        store.records,
        store.segments,
    )
    assert report.pipeline_unaccounted == 0
    assert report.server_denials == server.stats.denials
    assert (report.server_pushes_enqueued, report.server_pushes_sent) == (
        server.obs.push_totals["enqueued"],
        server.pushes_sent,
    )


class TestMetricsToggle:
    def test_exposition_equals_component_counts(self):
        hive = served_hive(Simulator())
        server = ReproServer(hive, middlewares=[Refuse()])

        async def phase(client, windows: range) -> None:
            with pytest.raises(ServerDenied):
                await connect(server, {"refuse": "1"})
            with pytest.raises(ServerDenied):
                await client.request("obs", "dump")
            with pytest.raises(ServerDenied):
                await client.channel("ack_alerts")
            for index in windows:
                # 24 records into a 16-deep buffer: 8 dropped per window.
                rows = [
                    make_record(task=TASK, time=index * WINDOW + 10.0 * i)
                    for i in range(24)
                ]
                await client.upload("dev-u0", "u0", TASK, rows)
                await close_windows(server, hive, index + 1)
            # One record behind the watermark: a late record.
            await client.upload("dev-u0", "u0", TASK, [make_record(task=TASK, time=1.0)])
            await close_windows(server, hive, windows[-1] + 1)
            await server.drain()
            await asyncio.sleep(0)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW, alerts=True)
            counts = []
            phases = ((True, range(0, 3)), (False, range(3, 6)), (True, range(6, 8)))
            for metrics, windows in phases:
                obs.configure(metrics=metrics)
                await phase(client, windows)
                assert_one_count_per_event(hive, server)
                counts.append(hive.pipeline.stats.dropped)
            # Every phase moved the counters the toggle used to freeze.
            assert counts[0] < counts[1] < counts[2]
            streams = hive.streams.stats
            assert streams.late_records == 3
            assert streams.alerts_fired == streams.windows_emitted > 0
            assert server.stats.denials == 9
            await client.close()

        asyncio.run(scenario())

    def test_control_plane_exposition_equals_stats(self):
        sim = Simulator()
        lossy = Transport(latency_mean=0.05, latency_jitter=0.01, loss=0.5, seed=7)
        router = FederationRouter(sim, control_transport=lossy)
        registry = obs.metrics_registry()
        labels = {"instance": router.obs.instance}
        for index, metrics in enumerate((True, False, True)):
            obs.configure(metrics=metrics)
            router.join(f"hive-{index}", Hive(sim, seed=index))
            sim.run()
            stats = router.stats
            assert (
                registry.value(
                    "repro_federation_control_messages_total",
                    {**labels, "outcome": "sent"},
                ),
                registry.value(
                    "repro_federation_control_messages_total",
                    {**labels, "outcome": "lost"},
                ),
                registry.value("repro_federation_control_retries_total", labels),
            ) == (stats.messages_sent, stats.messages_lost, stats.retries)
        assert router.stats.messages_lost > 0


class TestComponentLifetime:
    def test_registry_keeps_no_torn_down_component_alive(self):
        # The process-wide registry outlives every component it reads; a
        # read view that closed over a hive, engine or server would keep
        # the whole platform (simulator, devices, records) reachable.
        hive = served_hive(Simulator())
        server = ReproServer(hive)
        refs = [weakref.ref(c) for c in (hive, hive.streams, server)]
        registry = obs.metrics_registry()
        assert "repro_server_sessions" in registry.render_prometheus()
        del hive, server
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        text = registry.render_prometheus()
        assert "repro_server_sessions" in text
        assert "repro_stream_watermark_seconds" in text
        assert registry.exposition()
