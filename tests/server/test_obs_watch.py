"""The ISSUE acceptance demo: SLO burn-to-recovery over ``obs watch``.

A scripted latency degradation (a middleware that advances the server's
request timer inside the timed section) flips a latency
:class:`SLODefinition` to burning, the
``ObsAlert`` reaches every ``obs watch`` subscriber **exactly once**,
and recovery flips it back — on a single hive and on a 4-hive
federation.  A federation is scraped like one hive, by one
:class:`MetricsScraper` over the shared registry: a hive's number is a
query with its ``instance`` label, the federation's the same query
without it.  Request latency is read from a
scripted clock, not the host's, so a host stall cannot fake a burn and
the tests never sleep.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ServerError
from repro.federation import FederationRouter
from repro.obs import BurnRateRule, MetricsScraper, SLODefinition, latency_sli
from repro.server import ReproServer, ServerMiddleware
from repro.server import server as server_module
from tests.server.conftest import connect, make_hive, run, settle
from tests.server.test_channel import upload_window


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset(metrics=True, tracing=False)
    yield
    obs.reset(metrics=True, tracing=False)


class ScriptedClock:
    """Stands in for the server module's ``time``: moves only when told."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture()
def clock(monkeypatch) -> ScriptedClock:
    scripted = ScriptedClock()
    monkeypatch.setattr(server_module, "time", scripted)
    return scripted


class Degrader(ServerMiddleware):
    """A fault you can dial: each request takes ``delay`` scripted seconds."""

    def __init__(self, clock: ScriptedClock):
        self.clock = clock
        self.delay = 0.0

    async def request(self, *, request, session, next):
        self.clock.now += self.delay
        return await next()


def latency_slo(threshold: float = 0.01) -> SLODefinition:
    return SLODefinition(
        name="request-latency",
        objective=0.9,
        probe=latency_sli("repro_server_request_seconds", threshold=threshold),
        rules=(BurnRateRule(window=10.0, factor=1.0),),
        description=f"90% of requests under {threshold * 1000:g}ms",
    )


def alert_states(pushes) -> list[str]:
    return [
        p["alert"]["state"] for p in pushes if p.get("kind") == "obs_alert"
    ]


def frame_times(pushes) -> list[float]:
    return [p["frame"]["t"] for p in pushes if p.get("kind") == "obs_frame"]


ACCEPTED = "repro_pipeline_records_accepted_total"


def instance_of(hive) -> dict[str, str]:
    """The label set that selects ``hive``'s own pipeline series."""
    return {"instance": hive.pipeline.obs.instance}


class TestSingleHiveSLODemo:
    def test_degradation_burns_recovery_clears_exactly_once(self, sim, clock):
        hive = make_hive(sim, lateness=0.0)
        scraper = MetricsScraper(capacity=64)
        degrader = Degrader(clock)
        server = ReproServer(
            hive,
            sim=sim,
            middlewares=[degrader],
            scraper=scraper,
            slos=[latency_slo()],
        )

        async def scenario():
            client = await connect(server)
            watch = await client.watch_obs()
            assert watch["slo"] is True

            async def requests(n: int):
                for _ in range(n):
                    await client.request("query", "tasks", {})

            # Baseline: the request histogram's children exist before
            # the first scrape, so later deltas are pure window deltas.
            await requests(3)
            scraper.scrape(1.0)
            # Healthy traffic: everything fast, SLO stays ok (no alert).
            await requests(8)
            scraper.scrape(5.0)
            # Degradation: every request takes 50ms, far past the
            # 10ms threshold -> the 10s window's good-ratio collapses.
            degrader.delay = 0.05
            await requests(8)
            scraper.scrape(12.0)
            # A scrape with no new traffic: probe sees the same damage,
            # state stays burning, and no duplicate alert is pushed.
            scraper.scrape(13.0)
            # Recovery: fast traffic refills the window.
            degrader.delay = 0.0
            await requests(8)
            scraper.scrape(20.0)

            pushes = await settle(client)
            status = await client.obs_slo()
            return pushes, status

        pushes, status = run(scenario())
        # The alert reached the watcher exactly once per transition.
        assert alert_states(pushes) == ["burning", "ok"]
        seqs = [
            p["alert"]["seq"] for p in pushes if p.get("kind") == "obs_alert"
        ]
        assert len(seqs) == len(set(seqs))
        # Every scrape produced exactly one frame push, in order.
        assert frame_times(pushes) == [1.0, 5.0, 12.0, 13.0, 20.0]
        # And the queryable state agrees: recovered, two transitions.
        (slo_status,) = status["slos"]
        assert slo_status["name"] == "request-latency"
        assert slo_status["state"] == "ok"
        assert slo_status["transitions"] == 2
        assert server.stats.obs_alerts_pushed == 2
        assert server.stats.obs_frames_pushed == 5

    def test_every_watcher_receives_every_frame_exactly_once(self, sim):
        scraper = MetricsScraper(capacity=64)
        server = ReproServer(make_hive(sim, lateness=0.0), sim=sim, scraper=scraper)
        times = [1.0 + k for k in range(50)]

        async def scenario():
            watchers = [await connect(server) for _ in range(8)]
            for client in watchers:
                await client.watch_obs()
            for t in times:
                scraper.scrape(t)
            await server.drain()
            return [frame_times(await settle(client)) for client in watchers]

        assert run(scenario()) == [times] * 8
        assert server.stats.obs_frames_pushed == 8 * len(times)
        assert server.pushes_dropped == 0

    def test_watch_without_scraper_is_an_error(self, sim):
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive, sim=sim)

        async def scenario():
            client = await connect(server)
            with pytest.raises(ServerError, match="no metrics scraper"):
                await client.watch_obs()

        run(scenario())


class TestFederationSLODemo:
    def test_four_hive_rollup_burns_and_recovers(self, sim, clock):
        router = FederationRouter(sim)
        hives = {}
        for index in range(4):
            hive = make_hive(sim, lateness=0.0)
            router.join(f"hive-{index}", hive)
            hives[f"hive-{index}"] = hive
        scraper = MetricsScraper(cadence=1.0, capacity=64)
        degrader = Degrader(clock)
        # The serving tier fronts hive-0; its request metrics carry the
        # server's own instance label beside the hives' instances.
        server = ReproServer(
            hives["hive-0"],
            sim=sim,
            middlewares=[degrader],
            scraper=scraper,
            slos=[latency_slo()],
        )

        async def scenario():
            client = await connect(server)
            await client.watch_obs()

            async def requests(n: int):
                for _ in range(n):
                    await client.request("query", "tasks", {})

            await requests(3)
            # Every hive ingests different volumes between scrapes, so
            # the federation-wide sum folds genuinely distinct series.
            scraper.scrape(1.0)
            for rank, hive in enumerate(hives.values()):
                upload_window(hive, 0, n=10 * (rank + 1), user=f"u{rank}")
            await requests(8)
            scraper.scrape(5.0)
            degrader.delay = 0.05
            await requests(8)
            for rank, hive in enumerate(hives.values()):
                upload_window(hive, 1, n=5 * (rank + 1), user=f"u{rank}")
            scraper.scrape(12.0)
            degrader.delay = 0.0
            await requests(8)
            scraper.scrape(20.0)

            pushes = await settle(client)
            return pushes

        pushes = run(scenario())
        assert alert_states(pushes) == ["burning", "ok"]
        assert frame_times(pushes) == [1.0, 5.0, 12.0, 20.0]

        # One hive's number is a query with its instance ...
        store = scraper.store
        finals = {
            name: store.latest(ACCEPTED, instance_of(hive))[1]
            for name, hive in hives.items()
        }
        assert finals == {
            name: hive.pipeline.stats.accepted for name, hive in hives.items()
        }
        # Per-hive volumes really differ (the sum is not degenerate).
        assert len(set(finals.values())) == 4
        # ... and the federation's is the same query without it.
        deltas = [store.delta(ACCEPTED, instance_of(hive)) for hive in hives.values()]
        assert store.delta(ACCEPTED) == sum(deltas) == sum(finals.values())


class TestFederationScrape:
    def test_hive_joining_after_the_scraper_is_filed_under_its_instance(self, sim):
        router = FederationRouter(sim)
        early = make_hive(sim, lateness=0.0)
        router.join("hive-0", early)
        scraper = MetricsScraper(cadence=1.0, capacity=64)
        scraper.scrape(1.0)
        late = make_hive(sim, lateness=0.0)
        router.join("hive-1", late)

        upload_window(early, 0, n=12, user="u0")
        upload_window(late, 0, n=24, user="u1")
        scraper.scrape(2.0)
        upload_window(early, 1, n=7, user="u0")
        upload_window(late, 1, n=14, user="u1")
        scraper.scrape(3.0)

        store = scraper.store
        assert late.pipeline.stats.accepted == 38
        assert store.latest(ACCEPTED, instance_of(late)) == (3.0, 38.0)
        # A series counts from its first scrape: the late hive's 24
        # records before t=2 are its baseline, not part of its delta.
        deltas = [store.delta(ACCEPTED, instance_of(hive)) for hive in (early, late)]
        assert deltas == [19.0, 14.0]
        assert store.delta(ACCEPTED) == sum(deltas)

    def test_obs_history_serves_one_series_per_hive(self, sim):
        router = FederationRouter(sim)
        hives = [make_hive(sim, lateness=0.0) for _ in range(2)]
        for index, hive in enumerate(hives):
            router.join(f"hive-{index}", hive)
        scraper = MetricsScraper(cadence=1.0, capacity=64)
        server = ReproServer(router=router, scraper=scraper)

        async def scenario():
            client = await connect(server)
            scraper.scrape(1.0)
            for index, hive in enumerate(hives):
                upload_window(hive, 0, n=10 * (index + 1), user=f"u{index}")
            scraper.scrape(3.0)
            for index, hive in enumerate(hives):
                upload_window(hive, 1, n=4 * (index + 1), user=f"u{index}")
            scraper.scrape(5.0)
            return await client.obs_history(ACCEPTED)

        history = run(scenario())
        series = {
            entry["labels"]["instance"]: entry["points"]
            for entry in history["series"]
        }
        assert set(series) == {hive.pipeline.obs.instance for hive in hives}
        rates = []
        for hive in hives:
            (t0, v0), *_, (t1, v1) = series[hive.pipeline.obs.instance]
            assert (t0, t1, v1) == (1.0, 5.0, hive.pipeline.stats.accepted)
            rates.append((v1 - v0) / (t1 - t0))
        assert rates == [14 / 4, 28 / 4]
        assert history["rate"] == pytest.approx(sum(rates))

