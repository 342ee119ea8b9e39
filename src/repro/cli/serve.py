"""``repro serve``: the asyncio serving tier over a simulated campaign::

    repro serve --users 20 --days 2 --clients 3
"""

from __future__ import annotations

import argparse

from repro.cli import common


def cmd_serve(args: argparse.Namespace) -> int:
    """Stand up the asyncio serving tier over a simulated campaign.

    ``--clients`` in-process dashboard sessions receive the live window
    pushes while the days are driven; ends with the platform health
    report and the per-client push accounting.
    """
    import asyncio

    from repro.apisense.monitoring import snapshot
    from repro.server import MetricsMiddleware, ReproServer, ServerClient
    from repro.streams import WindowSpec
    from repro.units import DAY

    campaign, _ = common.build_campaign(args, "served-campaign")
    hive = campaign.hive
    hive.streams.register_view("window", WindowSpec.tumbling(args.window))
    server = ReproServer(
        hive, middlewares=[MetricsMiddleware()], queue_capacity=args.queue_capacity
    )
    received: list[int] = []

    async def run() -> None:
        clients = []
        for _ in range(args.clients):
            client = ServerClient(server.connect_in_process())
            await client.connect()
            await client.subscribe("window", alerts=True)
            clients.append(client)
        day = 1.0
        while day <= args.days + 1e-9:
            await server.drive(day * DAY, slice_seconds=args.window)
            campaign.end_day()
            day += 1.0
        await server.drive(campaign.drain_horizon, slice_seconds=args.window)
        hive.pipeline.flush_all()
        hive.streams.finalize()
        await server.drain()
        for client in clients:
            pushes: list = []
            await common.pump_pushes(client, pushes.extend)
            received.append(len(pushes))
            await client.close()

    asyncio.run(run())
    print(snapshot(hive, campaign.sim.now, server=server).to_text())
    print(
        f"served {args.clients} dashboard clients: "
        f"pushes received {received}, "
        f"{server.pushes_dropped} dropped (slow consumers)"
    )
    return 0


def init_subparser(subparsers) -> None:
    population = common.population_flags(users=20, days=2, period=600.0)
    serve = common.command(subparsers, "serve", cmd_serve, population, common.SEED)
    serve.add_argument(
        "--window", type=float, default=3600.0, help="dashboard window size (s)"
    )
    serve.add_argument(
        "--clients", type=int, default=3, help="in-process dashboard sessions"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=256, help="per-session push queue bound"
    )
