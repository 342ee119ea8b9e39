"""The streaming dashboard channel: exactly-once, catch-up, slow consumers.

The contract under test:

- every subscriber receives every matching closed window **exactly
  once** — live pushes and catch-up replay dedup against each other;
- a slow consumer loses the *oldest* queued pushes, and the loss is
  accounted per subscription (``received + dropped == emitted``);
- alerts ride the same channel; alerts the bounded log evicted before a
  subscriber ever saw them surface as an ``alert_gap`` push, not
  silence;
- in federated mode the channel pushes *merged* windows, one push per
  window end once every member closed it.
"""

import asyncio

import pytest

from repro.apisense.honeycomb import Honeycomb
from repro.errors import ServerError
from repro.server import ReproServer, ServerClient
from repro.streams import ContinuousQuery, WindowSpec, rate_below
from tests.server.conftest import (
    VIEW,
    WINDOW,
    connect,
    make_hive,
    run,
    settle,
)
from tests.store.conftest import make_record, make_records


def upload_window(hive, index: int, n: int = 30, task: str = "t", user="u0"):
    """``n`` records filling window ``index`` ([index*W, (index+1)*W))."""
    records = [
        make_record(
            user=user, task=task, time=index * WINDOW + i * (WINDOW / n)
        )
        for i in range(n)
    ]
    return hive.receive_upload(f"dev-{user}", user, task, records)


async def close_windows(server, hive, through: int) -> None:
    """Drive the sim past window ``through`` and flush the pipeline.

    With ``lateness=0`` the event-time watermark is the newest flushed
    record, so after uploading window ``i`` every window *before* it has
    closed — window ``i`` itself closes when window ``i+1``'s records
    arrive (or at ``finalize()``).  The tests account for that one-window
    lag explicitly.
    """
    await server.drive(
        max(server.clock() + 1.0, through * WINDOW + 60.0),
        slice_seconds=WINDOW / 2,
    )
    hive.pipeline.flush_all()
    await asyncio.sleep(0)


def snapshot_keys(pushes) -> list[tuple[str, float]]:
    return [
        (p["snapshot"]["task"], p["snapshot"]["end"])
        for p in pushes
        if p["kind"] == "snapshot"
    ]


class TestExactlyOnceDelivery:
    def test_every_subscriber_sees_every_window_once(self, sim):
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive)

        async def scenario():
            clients = [await connect(server) for _ in range(3)]
            for client in clients:
                await client.subscribe(VIEW)
            for index in range(4):
                upload_window(hive, index)
                await close_windows(server, hive, index + 1)
            hive.streams.finalize()
            await server.drain()
            expected = {
                ("t", (i + 1) * WINDOW) for i in range(4)
            }
            for client in clients:
                keys = snapshot_keys(await settle(client))
                assert len(keys) == len(set(keys)), "duplicate delivery"
                assert set(keys) == expected
                await client.close()

        run(scenario())

    def test_late_subscriber_catches_up_without_duplicates(self, sim):
        """A subscriber arriving mid-stream with ``catch_up`` replays the
        retained history once; subsequent live closes are not
        re-delivered — each window end appears exactly once."""
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive)

        async def scenario():
            early = await connect(server)
            await early.subscribe(VIEW)
            for index in range(3):
                upload_window(hive, index)
                await close_windows(server, hive, index + 1)

            late = await connect(server)
            reply = await late.subscribe(VIEW, catch_up=True)
            # Two windows have closed so far (the third waits for later
            # records to advance the watermark): both replayed.
            assert reply["catchup"] == 2

            for index in range(3, 5):
                upload_window(hive, index)
                await close_windows(server, hive, index + 1)
            hive.streams.finalize()
            await server.drain()

            late_keys = snapshot_keys(await settle(late))
            assert len(late_keys) == len(set(late_keys))
            assert set(late_keys) == {("t", (i + 1) * WINDOW) for i in range(5)}
            early_keys = snapshot_keys(await settle(early))
            assert set(early_keys) == set(late_keys)
            await early.close()
            await late.close()

        run(scenario())

    def test_late_subscriber_without_catch_up_gets_only_the_future(self, sim):
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive)

        async def scenario():
            upload_window(hive, 0)
            upload_window(hive, 1)
            await close_windows(server, hive, 2)  # closes window 0 only
            client = await connect(server)
            reply = await client.subscribe(VIEW)
            assert reply["catchup"] == 0
            upload_window(hive, 2)
            await close_windows(server, hive, 3)
            hive.streams.finalize()
            await server.drain()
            # Window 0 closed before the subscription and was not caught
            # up; only the windows closing afterwards arrive.
            assert snapshot_keys(await settle(client)) == [
                ("t", 2 * WINDOW),
                ("t", 3 * WINDOW),
            ]
            await client.close()

        run(scenario())

    def test_task_filter_and_unsubscribe(self, sim):
        hive = make_hive(sim, tasks=("a", "b"), lateness=0.0)
        server = ReproServer(hive)

        async def scenario():
            client = await connect(server)
            reply = await client.subscribe(VIEW, tasks=["a"])
            upload_window(hive, 0, task="a")
            upload_window(hive, 0, task="b", user="u1")
            await close_windows(server, hive, 1)
            hive.streams.finalize()
            await server.drain()
            keys = snapshot_keys(await settle(client))
            assert keys == [("a", WINDOW)]

            await client.unsubscribe(reply["subscription"])
            upload_window(hive, 1, task="a")
            await close_windows(server, hive, 2)
            hive.streams.finalize()
            await server.drain()
            assert snapshot_keys(await settle(client)) == []
            with pytest.raises(ServerError):
                await client.unsubscribe(reply["subscription"])
            await client.close()

        run(scenario())

    def test_unknown_view_rejected(self, sim):
        server = ReproServer(make_hive(sim))

        async def scenario():
            client = await connect(server)
            with pytest.raises(ServerError):
                await client.subscribe("nope")
            await client.close()

        run(scenario())


class TestSlowConsumer:
    def test_drop_oldest_is_counted_not_silent(self, sim):
        """A subscriber that stops reading loses the oldest pushes; the
        books still balance: received + dropped == enqueued."""
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive, queue_capacity=3)
        n_windows = 12

        async def scenario():
            # A raw endpoint (no ServerClient): nothing reads the inbox
            # until we say so — the transport-level slow consumer.
            endpoint = server.connect_in_process(client_capacity=1)
            await endpoint.send({"type": "connect", "headers": {}})
            assert (await endpoint.recv())["type"] == "connected"
            await endpoint.send(
                {
                    "type": "channel",
                    "id": 1,
                    "action": "subscribe",
                    "payload": {"view": VIEW},
                }
            )
            assert (await endpoint.recv())["status"] == "ok"

            for index in range(n_windows):
                upload_window(hive, index)
                await close_windows(server, hive, index + 1)
            hive.streams.finalize()
            await asyncio.sleep(0)

            session = next(iter(server._sessions.values()))
            subscription = next(iter(session.subscriptions.values()))
            assert subscription.snapshots_pushed == n_windows
            assert subscription.pushes_dropped > 0

            # Now drain the wire: exactly enqueued - dropped arrive, and
            # the *newest* windows survived (oldest were evicted).
            expected = subscription.snapshots_pushed - subscription.pushes_dropped
            received = []
            for _ in range(expected):
                received.append(await endpoint.recv())
            keys = snapshot_keys(received)
            assert len(keys) == expected
            assert len(set(keys)) == expected
            assert keys[-1] == ("t", n_windows * WINDOW)
            dropped_ends = {(i + 1) * WINDOW for i in range(n_windows)} - {
                end for _, end in keys
            }
            assert len(dropped_ends) == subscription.pushes_dropped
            # The earliest pushes escape to the transport before the
            # sender blocks; after that the bounded queue keeps only the
            # newest.  The drops are one contiguous hole in the middle,
            # strictly older than everything still queued at the end.
            ends = [end for _, end in keys]
            assert ends == sorted(ends)
            assert ends[-3:] == [
                (n_windows - 2) * WINDOW,
                (n_windows - 1) * WINDOW,
                n_windows * WINDOW,
            ]
            assert max(dropped_ends) < min(ends[-3:])
            assert sorted(dropped_ends) == [
                min(dropped_ends) + i * WINDOW
                for i in range(len(dropped_ends))
            ]
            assert server.pushes_dropped == subscription.pushes_dropped
            endpoint.close()

        run(scenario())

    def test_fast_consumer_loses_nothing(self, sim):
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive, queue_capacity=3)

        async def scenario():
            client = await connect(server)  # receives by callback, eagerly
            await client.subscribe(VIEW)
            for index in range(12):
                upload_window(hive, index)
                await close_windows(server, hive, index + 1)
            hive.streams.finalize()
            await server.drain()
            keys = snapshot_keys(await settle(client))
            assert len(keys) == 12
            assert server.pushes_dropped == 0
            await client.close()

        run(scenario())


class TestAlertChannel:
    def test_alerts_pushed_to_subscribed_sessions(self, sim):
        hive = make_hive(sim, lateness=0.0)
        # Every window of one quiet user fires the rate-below query.
        hive.streams.register_query(
            VIEW, ContinuousQuery("quiet", rate_below(1.0))
        )
        server = ReproServer(hive)

        async def scenario():
            listening = await connect(server)
            await listening.subscribe(VIEW, alerts=True)
            deaf = await connect(server)
            await deaf.subscribe(VIEW, alerts=False)
            for index in range(3):
                upload_window(hive, index, n=10)
                await close_windows(server, hive, index + 1)
            hive.streams.finalize()
            await server.drain()
            heard = await settle(listening)
            alerts = [p for p in heard if p["kind"] == "alert"]
            assert hive.streams.alerts.total == 3  # one per closed window
            assert len(alerts) == hive.streams.alerts.total
            assert all(p["alert"]["query"] == "quiet" for p in alerts)
            assert all(p["source"] == "local" for p in alerts)
            assert not [
                p for p in await settle(deaf) if p["kind"] == "alert"
            ]
            await listening.close()
            await deaf.close()

        run(scenario())

    def test_evicted_alerts_become_a_gap_push(self, sim):
        """Alerts evicted from the bounded log before a late subscriber
        ever saw them are reported as an ``alert_gap`` — the consumer
        knows exactly how many it missed."""
        hive = make_hive(sim, lateness=0.0, alert_capacity=2)
        hive.streams.register_query(
            VIEW, ContinuousQuery("quiet", rate_below(1.0))
        )
        server = ReproServer(hive)

        async def scenario():
            # Six windows fire six alerts into a log retaining two.
            for index in range(6):
                upload_window(hive, index, n=10)
                await close_windows(server, hive, index + 1)
            log = hive.streams.alerts
            assert log.total == 5 and log.dropped == 3

            late = await connect(server)
            await late.subscribe(VIEW, alerts=True)
            upload_window(hive, 6, n=10)
            await close_windows(server, hive, 7)
            hive.streams.finalize()
            await server.drain()
            pushes = await settle(late)
            gaps = [p for p in pushes if p["kind"] == "alert_gap"]
            alerts = [p for p in pushes if p["kind"] == "alert"]
            # Everything the log still held arrived; the rest is one
            # accounted gap: alerts heard + missed == alerts fired.
            assert len(gaps) == 1
            assert len(alerts) + gaps[0]["missed"] == log.total
            assert server.stats.alert_gaps == gaps[0]["missed"]
            await late.close()

        run(scenario())


class TestFederatedChannel:
    def test_merged_windows_pushed_once_per_boundary(self, sim):
        from tests.federation.conftest import build_router, gps_task

        router = build_router(sim, 2)
        from repro.streams import StreamEngine

        for name in router.member_names:
            hive = router.hive(name)
            hive.streams = StreamEngine(sim=sim, allowed_lateness=0.0).attach(
                hive.pipeline
            )
            hive.streams.register_view(VIEW, WindowSpec.tumbling(WINDOW))
        owner = Honeycomb("lab", router.hive("hive-0"))
        router.syndicate(gps_task("t"), owner, home="hive-0")
        server = ReproServer(router=router)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW)
            # Find device ids homed on *different* members so both
            # engines hold every window.
            homes: dict[str, str] = {}
            for index in range(32):
                device = f"device-{index:03d}"
                homes.setdefault(router.ring.place(device), device)
                if len(homes) == 2:
                    break
            assert len(homes) == 2
            for index in range(3):
                for member, device in homes.items():
                    user = f"u-{device}"
                    records = [
                        make_record(
                            user=user, task="t",
                            time=index * WINDOW + i * (WINDOW / 10),
                        )
                        for i in range(10)
                    ]
                    reply = await client.upload(device, user, "t", records)
                    assert reply["member"] == member
                await server.drive(
                    (index + 1) * WINDOW + 60.0, slice_seconds=WINDOW / 2
                )
                for name in router.member_names:
                    router.hive(name).pipeline.flush_all()
                await asyncio.sleep(0)
            for name in router.member_names:
                router.hive(name).streams.finalize()
            await server.drain()
            keys = snapshot_keys(await settle(client))
            # One *merged* push per window end — not one per member.
            assert keys == [("t", (i + 1) * WINDOW) for i in range(3)]
            assert server.stats.merged_windows == 3
            await client.close()

        run(scenario())

    def test_merged_push_counts_sum_members(self, sim):
        from tests.federation.conftest import build_router, gps_task
        from repro.streams import StreamEngine

        router = build_router(sim, 2)
        for name in router.member_names:
            hive = router.hive(name)
            hive.streams = StreamEngine(sim=sim, allowed_lateness=0.0).attach(
                hive.pipeline
            )
            hive.streams.register_view(VIEW, WindowSpec.tumbling(WINDOW))
        owner = Honeycomb("lab", router.hive("hive-0"))
        router.syndicate(gps_task("t"), owner, home="hive-0")
        server = ReproServer(router=router)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW)
            homes: dict[str, str] = {}
            for index in range(32):
                device = f"device-{index:03d}"
                homes.setdefault(router.ring.place(device), device)
            assert len(homes) == 2
            per_member = 8
            for member, device in homes.items():
                records = [
                    make_record(
                        user=f"u-{device}", task="t",
                        time=i * (WINDOW / per_member),
                    )
                    for i in range(per_member)
                ]
                await client.upload(device, f"u-{device}", "t", records)
            await server.drive(WINDOW + 60.0, slice_seconds=WINDOW / 2)
            for name in router.member_names:
                router.hive(name).pipeline.flush_all()
                router.hive(name).streams.finalize()
            await server.drain()
            pushes = await settle(client)
            snapshots = [p["snapshot"] for p in pushes if p["kind"] == "snapshot"]
            assert len(snapshots) == 1
            assert snapshots[0]["records"] == 2 * per_member
            assert snapshots[0]["n_users"] == 2
            await client.close()

        run(scenario())
