"""The ISSUE acceptance demo: SLO burn-to-recovery over ``obs watch``.

A scripted latency degradation (a slow middleware inside the timed
request section) flips a latency :class:`SLODefinition` to burning, the
``ObsAlert`` reaches every ``obs watch`` subscriber **exactly once**,
and recovery flips it back — on a single hive and on a 4-hive
federation whose merged rollup series equal the sum of the per-hive
scrapes at every aligned timestamp.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.errors import ServerError
from repro.federation import FederationRouter, FederationScraper, ROUTER_MEMBER
from repro.obs import BurnRateRule, MetricsScraper, SLODefinition, latency_sli
from repro.server import ReproServer, ServerMiddleware
from tests.server.conftest import connect, make_hive, run, settle
from tests.server.test_channel import upload_window


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset(metrics=True, tracing=False)
    yield
    obs.reset(metrics=True, tracing=False)


class Degrader(ServerMiddleware):
    """A fault you can dial: sleeps inside the timed request section."""

    def __init__(self):
        self.delay = 0.0

    async def request(self, *, request, session, next):
        if self.delay:
            await asyncio.sleep(self.delay)
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


class TestSingleHiveSLODemo:
    def test_degradation_burns_recovery_clears_exactly_once(self, sim):
        hive = make_hive(sim, lateness=0.0)
        scraper = MetricsScraper(capacity=64)
        degrader = Degrader()
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
            # Degradation: every request sleeps 50ms, far past the
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
    def test_four_hive_rollup_burns_and_recovers(self, sim):
        router = FederationRouter(sim)
        hives = {}
        for index in range(4):
            hive = make_hive(sim, lateness=0.0)
            router.join(f"hive-{index}", hive)
            hives[f"hive-{index}"] = hive
        fed = FederationScraper(router, cadence=1.0, capacity=64)
        degrader = Degrader()
        # The serving tier fronts hive-0; its request metrics carry the
        # server instance, which no hive claims -> the @router member.
        server = ReproServer(
            hives["hive-0"],
            sim=sim,
            middlewares=[degrader],
            scraper=fed,
            slos=[latency_slo()],
        )

        async def scenario():
            client = await connect(server)
            await client.watch_obs()

            async def requests(n: int):
                for _ in range(n):
                    await client.request("query", "tasks", {})

            await requests(3)
            # Every hive ingests different volumes between ticks, so
            # the rollup-equality check sums genuinely distinct series.
            fed.tick(1.0)
            for rank, hive in enumerate(hives.values()):
                upload_window(hive, 0, n=10 * (rank + 1), user=f"u{rank}")
            await requests(8)
            fed.tick(5.0)
            degrader.delay = 0.05
            await requests(8)
            for rank, hive in enumerate(hives.values()):
                upload_window(hive, 1, n=5 * (rank + 1), user=f"u{rank}")
            fed.tick(12.0)
            degrader.delay = 0.0
            await requests(8)
            fed.tick(20.0)

            pushes = await settle(client)
            return pushes

        pushes = run(scenario())
        assert alert_states(pushes) == ["burning", "ok"]
        assert frame_times(pushes) == [1.0, 5.0, 12.0, 20.0]

        # The acceptance equality: at every aligned timestamp, each
        # rollup series equals the sum of the members' series.
        assert ROUTER_MEMBER in fed.members
        name = "repro_pipeline_records_accepted_total"
        rollup_totals = series_totals(fed.store, name)
        member_totals: dict[float, float] = {}
        for member in fed.members:
            for t, value in series_totals(fed.member_store(member), name).items():
                member_totals[t] = member_totals.get(t, 0.0) + value
        assert rollup_totals == pytest.approx(member_totals)
        # Per-hive volumes really differ (the sum is not degenerate).
        finals = {
            member: max(
                series_totals(fed.member_store(member), name).values(),
                default=0.0,
            )
            for member in fed.members
            if member != ROUTER_MEMBER
        }
        assert len(set(finals.values())) == 4


def series_totals(store, name: str) -> dict[float, float]:
    """``t -> sum over the store's series of ``name`` at ``t``."""
    totals: dict[float, float] = {}
    for series in store.select(name):
        for t, value in zip(series.t, series.values):
            totals[float(t)] = totals.get(float(t), 0.0) + float(value)
    return totals
