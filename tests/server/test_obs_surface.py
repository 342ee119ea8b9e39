"""The serving tier's observability: the ``obs`` surface, the folded
metrics middleware, and push-accounting reconciliation with the registry."""

from __future__ import annotations

import pytest

from repro import obs
from repro.apisense.monitoring import snapshot
from repro.errors import ServerError
from repro.obs import BurnRateRule, MetricsScraper, SLODefinition
from repro.server import (
    Deny,
    MetricsMiddleware,
    ReproServer,
    ServerDenied,
    ServerMiddleware,
)
from repro.streams import ContinuousQuery, rate_below
from tests.server.conftest import VIEW, WINDOW, connect, make_hive, run, settle
from tests.server.test_channel import close_windows, upload_window
from tests.server.test_server import drive_and_flush
from tests.store.conftest import make_records


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset(metrics=True, tracing=False)
    yield
    obs.reset(metrics=True, tracing=False)


class TestObsSurface:
    def test_dump_serves_the_prometheus_exposition(self, sim):
        obs.configure(clock=lambda: sim.now)
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            await client.upload("d0", "u0", "t", make_records(5))
            hive.pipeline.flush_all()
            await client.request("obs", "dump")  # self-count lands after render
            payload = await client.request("obs", "dump")
            assert payload["format"] == "prometheus"
            text = payload["text"]
            assert "# TYPE repro_pipeline_records_accepted_total counter" in text
            assert "repro_server_requests_total" in text
            assert 'surface="obs"' in text
            assert "repro_sim_time_seconds" in text  # sim-clock aware
            await client.close()

        run(scenario())

    def test_top_reports_hot_stages_sorted(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            await client.upload("d0", "u0", "t", make_records(20, dt=30.0))
            await drive_and_flush(server, hive, 1200.0)
            payload = await client.request("obs", "top", {"limit": 5})
            stages = payload["stages"]
            assert stages
            assert len(stages) <= 5
            totals = [stage["total_seconds"] for stage in stages]
            assert totals == sorted(totals, reverse=True)
            names = [stage["stage"] for stage in stages]
            assert any("flush_seconds" in name for name in names)
            for stage in stages:
                assert stage["count"] > 0
                assert stage["p99"] >= stage["p50"] >= 0.0
            await client.close()

        run(scenario())

    def test_trace_browsing_over_the_wire(self, sim):
        obs.configure(tracing=True, sample_rate=1.0)
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            await client.upload("d0", "u0", "t", make_records(3))
            await drive_and_flush(server, hive, 1200.0)
            listing = await client.request("obs", "trace")
            assert listing["trace_ids"] == [1]
            assert listing["spans"] >= 3
            tree = await client.request("obs", "trace", {"trace_id": 1})
            names = [span["name"] for span in tree["spans"]]
            assert "ingest.admit" in names
            assert all("records" not in span["attrs"] for span in tree["spans"])
            await client.close()

        run(scenario())

    def test_unknown_obs_action_is_an_error(self, sim):
        server = ReproServer(make_hive(sim), sim=sim)

        async def scenario():
            client = await connect(server)
            with pytest.raises(ServerError):
                await client.request("obs", "flush")
            await client.close()

        run(scenario())

    def test_requests_counted_per_surface(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            await client.upload("d0", "u0", "t", make_records(2))
            hive.pipeline.flush_all()
            await client.request("query", "tasks")
            await client.request("obs", "dump")
            await client.request("obs", "top")
            registry = obs.metrics_registry()
            instance = server.obs.instance
            for surface, expected in (("ingest", 1), ("query", 1), ("obs", 2)):
                assert registry.value(
                    "repro_server_requests_total",
                    {"instance": instance, "surface": surface},
                ) == expected
            assert server.stats.requests_obs == 2
            await client.close()

        run(scenario())


class TestMetricsMiddlewareFolding:
    def test_counters_are_a_registry_view(self, sim):
        metrics = MetricsMiddleware()
        server = ReproServer(make_hive(sim), sim=sim, middlewares=[metrics])

        async def scenario():
            client = await connect(server)
            await client.request("query", "tasks")
            await client.upload("d0", "u0", "t", make_records(1))
            await client.close()

        run(scenario())
        assert metrics.counters.connects == 1
        assert metrics.counters.requests == 2
        assert metrics.counters.by_surface == {"ingest": 1, "query": 1}
        # The same numbers are first-class registry citizens now.
        registry = obs.metrics_registry()
        instance = metrics.obs.instance
        assert registry.value(
            "repro_middleware_requests_total",
            {"instance": instance, "surface": "query"},
        ) == 1
        assert 'repro_middleware_requests_total' in obs.render_prometheus()

    def test_counts_land_in_the_servers_own_exposition(self, sim):
        # A server on its own obs context: the middleware it installs
        # counts there, not on the process default.
        from repro.apisense.hive import Hive

        metrics = MetricsMiddleware()
        server = ReproServer(Hive(sim, obs=obs.Obs()), sim=sim, middlewares=[metrics])

        async def scenario():
            client = await connect(server)
            await client.request("query", "tasks")
            text = (await client.request("obs", "dump"))["text"]
            await client.close()
            return text

        text = run(scenario())
        assert 'repro_middleware_requests_total{instance="middleware-1",surface="query"} 1' in text
        assert 'repro_middleware_events_total{hook="connect",instance="middleware-1"} 1' in text
        assert metrics.counters.requests == 2
        assert "repro_middleware" not in obs.render_prometheus()

    def test_binds_to_one_context(self, sim):
        # Uninstalled, it has no registry to read from; installed, it
        # keeps its instruments when its own chain binds it again and
        # refuses a second server, whose counts would mix with the first.
        from repro.apisense.hive import Hive

        metrics = MetricsMiddleware()
        with pytest.raises(ServerError, match="not installed"):
            metrics.counters
        context = obs.Obs()
        ReproServer(Hive(sim, obs=context), sim=sim, middlewares=[metrics])
        instruments = metrics.obs
        metrics.bind(context)
        assert metrics.obs is instruments
        with pytest.raises(ServerError, match="one per server"):
            ReproServer(Hive(sim, obs=obs.Obs()), sim=sim, middlewares=[metrics])
        assert metrics.obs is instruments

    def test_denials_counted_on_registry_and_in_log(self, sim):
        class DenyQueries(ServerMiddleware):
            async def request(self, *, request, session, next):
                if request.surface == "query":
                    return Deny("queries are closed")
                return await next()

        metrics = MetricsMiddleware()
        server = ReproServer(
            make_hive(sim), sim=sim, middlewares=[metrics, DenyQueries()]
        )

        async def scenario():
            client = await connect(server)
            with pytest.raises(ServerDenied):
                await client.request("query", "tasks")
            await client.close()

        run(scenario())
        assert metrics.counters.denied == 1
        assert any("DENY" in line for line in metrics.log)
        registry = obs.metrics_registry()
        assert registry.total("repro_middleware_outcomes_total", kind="deny") == 1
        # The server's own per-hook denial counter agrees.
        assert registry.total("repro_server_denials_total", hook="request") == 1


class TestPushReconciliation:
    def test_enqueued_equals_sent_plus_dropped_plus_queued(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW)
            await client.upload("d0", "u0", "t", make_records(30, dt=20.0))
            await drive_and_flush(server, hive, 1200.0)
            await server.drain()
            await settle(client)
            report = snapshot(hive, sim.now, server=server)
            assert report.server_attached
            assert report.server_pushes_enqueued >= 1
            assert report.server_pushes_sent == report.server_pushes_enqueued
            assert report.server_push_unaccounted == 0
            await client.close()

        run(scenario())

    def test_slow_consumer_drops_are_accounted(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim, queue_capacity=1)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW)
            # Many windows close while the client never yields to its
            # reader, so the 1-deep queue must evict.
            await client.upload("d0", "u0", "t", make_records(40, dt=60.0))
            await drive_and_flush(server, hive, 3000.0)
            await server.drain()
            await settle(client)
            report = snapshot(hive, sim.now, server=server)
            assert report.server_pushes_dropped >= 1
            assert report.server_push_unaccounted == 0
            assert (
                report.server_pushes_enqueued
                == report.server_pushes_sent
                + report.server_pushes_dropped
                + report.server_pushes_queued
            )
            await client.close()

        run(scenario())

    def test_teardown_keeps_the_identity(self, sim):
        # Close a session with pushes still queued: the abandoned
        # messages must land in ``dropped``, not vanish.
        hive = make_hive(sim)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW)
            await client.upload("d0", "u0", "t", make_records(30, dt=20.0))
            await drive_and_flush(server, hive, 1200.0)
            await client.close()
            await server.drain()
            registry = obs.metrics_registry()
            instance = server.obs.instance
            enqueued = registry.value(
                "repro_server_pushes_total",
                {"instance": instance, "outcome": "enqueued"},
            )
            sent = registry.value(
                "repro_server_pushes_total",
                {"instance": instance, "outcome": "sent"},
            )
            dropped = registry.value(
                "repro_server_pushes_total",
                {"instance": instance, "outcome": "dropped"},
            )
            assert enqueued == sent + dropped + server.pushes_queued

        run(scenario())

    def test_identity_holds_under_mixed_kinds(self, sim):
        """Snapshots, alerts, an alert gap, metrics frames and an SLO
        transition through 1-deep queues while one client leaves
        mid-stream: every level of the push accounting still agrees."""
        hive = make_hive(sim, lateness=0.0, alert_capacity=1)
        hive.streams.register_query(VIEW, ContinuousQuery("quiet", rate_below(1.0)))
        scraper = MetricsScraper(capacity=16)
        good_ratio = [1.0]
        slo = SLODefinition(
            name="dial",
            objective=0.9,
            probe=lambda store, t0, t1: good_ratio[0],
            rules=(BurnRateRule(window=10.0, factor=1.0),),
        )
        server = ReproServer(
            hive, sim=sim, queue_capacity=1, scraper=scraper, slos=[slo]
        )

        async def scenario():
            # Alerts fire into a log retaining one before anyone
            # listens: every late alerts subscriber is owed a gap.
            for index in range(3):
                upload_window(hive, index, n=10)
                await close_windows(server, hive, index + 1)
            listener = await connect(server)
            await listener.subscribe(VIEW, alerts=True)
            watcher = await connect(server)
            await watcher.watch_obs()
            quitter = await connect(server)
            await quitter.subscribe(VIEW, alerts=True)
            # Keep the objects: a closed session leaves the server's map.
            sessions = list(server._sessions.values())
            subscriptions = {
                s.session_id: list(s.subscriptions.values()) for s in sessions
            }
            for index in range(3, 9):
                # One close enqueues a snapshot, a gap and an alert on a
                # 1-deep queue before the delivery pass: the slow consumer.
                upload_window(hive, index, n=10)
                await close_windows(server, hive, index + 1)
                good_ratio[0] = 0.0 if index >= 5 else 1.0
                scraper.scrape(float(index))
                if index == 5:
                    upload_window(hive, 6, n=10)
                    hive.pipeline.flush_all()  # pushes queued, not yet delivered
                    await quitter.close()
            hive.streams.finalize()
            await server.drain()
            for client in (listener, watcher):
                await settle(client)
            return sessions, subscriptions

        sessions, subscriptions = run(scenario())
        registry = obs.metrics_registry()

        def counted(outcome: str) -> int:
            return registry.value(
                "repro_server_pushes_total",
                {"instance": server.obs.instance, "outcome": outcome},
            )

        stats = server.stats
        assert stats.alerts_pushed and stats.alert_gaps and stats.pushes_enqueued
        assert stats.obs_frames_pushed and stats.obs_alerts_pushed == 1
        assert counted("enqueued") == (
            counted("sent") + counted("dropped") + server.pushes_queued
        )
        assert server.pushes_sent == counted("sent")
        assert server.pushes_dropped == counted("dropped") > 0
        # Every drop belongs to a session, and — while the session lives
        # — to the subscription whose push it was.
        assert sum(s.pushes_dropped for s in sessions) == server.pushes_dropped
        for session in sessions:
            attributed = sum(
                sub.pushes_dropped for sub in subscriptions[session.session_id]
            )
            if session.closed:  # teardown drops outlive the subscriptions
                assert attributed <= session.pushes_dropped
            else:
                assert attributed == session.pushes_dropped
