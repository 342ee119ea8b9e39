#!/usr/bin/env python
"""The serving tier end-to-end: one server, many live dashboards.

`live_campaign_dashboard.py` watches a campaign through the stream
engine directly; this walkthrough puts the **server** in between.  A
campaign's Hive is wrapped in a :class:`repro.server.ReproServer`, a
middleware chain (auth + metrics) guards every surface, and N dashboard
clients connect over the in-process transport, subscribe to a windowed
view, and receive every closing `WindowSnapshot` as a push — while a
denied connection shows the chain short-circuiting.  One more client
subscribes to the **obs watch** channel: a `MetricsScraper` samples the
registry on a sim-clock cadence and the server pushes every scrape
frame plus any SLO burn-rate transition to it, exactly once.  At the
end, each client's pushed stream is asserted identical to the engine's
batch view, and the total pushed records equal the aggregate the query
surface returns: the live dashboard and the batch query agree exactly.

Run:  python examples/live_server_dashboard.py
"""

import asyncio

from repro import obs
from repro.apisense import Campaign, CampaignConfig, SensingTask
from repro.apisense.monitoring import snapshot
from repro.mobility import GeneratorConfig, MobilityGenerator
from repro.server import (
    AuthTokenMiddleware,
    MetricsMiddleware,
    ReproServer,
    ServerClient,
    ServerDenied,
)
from repro.server.protocol import snapshot_digest
from repro.streams import WindowSpec
from repro.units import DAY, HOUR

TASK = "served-noise"
VIEW = "6-hourly"
N_CLIENTS = 4
N_DAYS = 2

TOKENS = {"dash-token": "viewer", "ops-token": "operator"}
SCOPES = {
    "viewer": {"query", "channel", "obs"},
    "operator": {"ingest", "query", "channel", "obs"},
}


async def run_server(campaign: Campaign, server: ReproServer) -> list[list[dict]]:
    """Drive the campaign with ``N_CLIENTS`` subscribed dashboards."""
    clients: list[ServerClient] = []
    for _ in range(N_CLIENTS):
        client = ServerClient(server.connect_in_process())
        await client.connect({"authorization": "dash-token"})
        await client.subscribe(VIEW, alerts=True)
        clients.append(client)

    # One more dashboard watches the metrics themselves: every scrape
    # frame (filtered to the pipeline/server families) and every SLO
    # state transition arrives as a push, exactly once.
    watcher = ServerClient(server.connect_in_process())
    await watcher.connect({"authorization": "dash-token"})
    await watcher.watch_obs(names=["repro_pipeline", "repro_server"])

    # The chain guards the door: a bad token never reaches a session.
    intruder = ServerClient(server.connect_in_process())
    try:
        await intruder.connect({"authorization": "wrong"})
    except ServerDenied as denied:
        print(f"  denied connect: {denied.reason}")

    hive = campaign.hive
    for day in range(1, N_DAYS + 1):
        await server.drive(day * DAY, slice_seconds=HOUR)
        campaign.end_day()
    await server.drive(campaign.drain_horizon, slice_seconds=HOUR)
    hive.pipeline.flush_all()
    hive.streams.finalize()
    await server.drain()

    streams: list[list[dict]] = []
    for client in clients:
        pushes: list[dict] = []
        while True:
            await asyncio.sleep(0)
            fresh = client.drain_pushes()
            if not fresh:
                break
            pushes.extend(fresh)
        streams.append(pushes)

    # The obs watcher saw the metrics history live as it was scraped.
    obs_pushes = watcher.drain_pushes()
    frames = [p for p in obs_pushes if p["kind"] == "obs_frame"]
    alerts = [p for p in obs_pushes if p["kind"] == "obs_alert"]
    assert frames, "the scraper ran, so the watcher must have seen frames"
    slo = await watcher.obs_slo()
    states = {s["name"]: s["state"] for s in slo["slos"]}
    print(
        f"  obs watch: {len(frames)} scrape frames, {len(alerts)} SLO "
        f"alerts pushed; SLO states: {states}"
    )
    assert all(state == "ok" for state in states.values())
    await watcher.close()

    # The query surface answers the same numbers the pushes carried.
    aggregate = await clients[0].aggregate(TASK)
    for client in clients:
        await client.close()
    streams.append([{"aggregate": aggregate}])
    return streams


def main() -> None:
    print(f"Generating population (12 users x {N_DAYS} days)...")
    population = MobilityGenerator(
        GeneratorConfig(n_users=12, n_days=N_DAYS, sampling_period=180.0)
    ).generate(seed=7)
    campaign = Campaign(
        population, config=CampaignConfig(n_days=float(N_DAYS), seed=3)
    )
    campaign.deploy(
        SensingTask(
            name=TASK,
            sensors=("gps", "battery"),
            sampling_period=300.0,
            upload_period=1800.0,
            end=N_DAYS * DAY,
        )
    )
    hive = campaign.hive
    hive.streams.register_view(VIEW, WindowSpec.tumbling(6 * HOUR))

    # Metrics over time: a scraper samples the registry every simulated
    # hour for the whole campaign (plus the delivery tail), and one SLO
    # holds request latency to a wall-clock budget the in-process
    # transport comfortably meets — the obs watcher sees it stay "ok".
    scraper = obs.MetricsScraper(cadence=HOUR, capacity=128)
    scraper.start(campaign.sim, until=campaign.drain_horizon)
    slos = obs.SLOTracker(
        scraper.store,
        [
            obs.SLODefinition(
                name="request-latency",
                objective=0.9,
                probe=obs.latency_sli("repro_server_request_seconds", 0.05),
                rules=(obs.BurnRateRule(window=12 * HOUR, factor=1.0),),
                description="90% of server requests finish within 50ms",
            )
        ],
    )
    metrics = MetricsMiddleware()
    server = ReproServer(
        hive,
        middlewares=[AuthTokenMiddleware(TOKENS, SCOPES), metrics],
        scraper=scraper,
        slos=slos,
    )

    print(f"Serving {N_CLIENTS} dashboard clients while the campaign runs:")
    *streams, tail = asyncio.run(run_server(campaign, server))
    aggregate = tail[0]["aggregate"]

    # ------------------------------------------------------------------ #
    # Pushed dashboard == batch view, for every client
    # ------------------------------------------------------------------ #
    batch = [
        snapshot_digest(s) for s in hive.streams.snapshots(TASK, VIEW)
    ]
    for index, pushes in enumerate(streams):
        digests = [p["snapshot"] for p in pushes if p["kind"] == "snapshot"]
        assert digests == batch, f"client {index} diverged from the batch view"
        total = sum(d["records"] for d in digests)
        assert total == aggregate["records"], "pushes disagree with the query"
        print(
            f"  client {index}: {len(digests)} windows pushed, "
            f"{total} records — equals the batch view"
        )

    print(f"\nAggregate over the query surface: {aggregate['records']} records")
    print(
        f"Middleware saw {metrics.counters.requests} requests, "
        f"{metrics.counters.denied} denied"
    )
    print(
        "\n"
        + snapshot(hive, campaign.sim.now, server=server, slos=slos).to_text()
    )
    assert server.pushes_dropped == 0


if __name__ == "__main__":
    main()
