"""The three serving surfaces: ingest, query, channel — plus transports.

Covers the handshake, auth denial of **each** surface, the
backpressure mapping from the ingest pipeline onto upload replies,
federated routing, the monitoring integration, and a TCP smoke test
(same protocol as in-process, real sockets).
"""

import asyncio

import pytest

from repro.apisense.honeycomb import Honeycomb
from repro.apisense.hive import Hive
from repro.apisense.monitoring import snapshot
from repro.errors import ServerError
from repro.obs import BurnRateRule, MetricsScraper, SLODefinition
from repro.server import (
    AuthTokenMiddleware,
    Deny,
    Redirect,
    ReproServer,
    ServerClient,
    ServerDenied,
    ServerMiddleware,
    ServerRedirected,
    connect_tcp,
)
from repro.server.protocol import snapshot_digest
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import ContinuousQuery, StreamEngine, WindowSpec, rate_below
from tests.server.conftest import (
    VIEW,
    WINDOW,
    connect,
    make_hive,
    run,
    settle,
)
from tests.store.conftest import make_records


def drive_and_flush(server, hive, until):
    """Advance the sim past ``until`` and force every window closed."""

    async def inner():
        await server.drive(until, slice_seconds=WINDOW / 2)
        hive.pipeline.flush_all()
        hive.streams.finalize()  # close windows the lateness bound holds open

    return inner()


class TestAnchoring:
    def test_exactly_one_anchor_required(self, sim):
        hive = make_hive(sim)
        with pytest.raises(ServerError):
            ReproServer()
        with pytest.raises(ServerError):
            ReproServer(hive, engine=hive.streams)

    def test_engine_only_server_has_no_ingest_or_query(self, sim):
        engine = StreamEngine(sim=sim)
        engine.register_view("v", WindowSpec.tumbling(300.0))
        server = ReproServer(engine=engine, sim=sim)

        async def scenario():
            client = await connect(server)
            with pytest.raises(ServerError):
                await client.upload("d", "u", "t", [])
            with pytest.raises(ServerError):
                await client.aggregate("t")
            await client.close()

        run(scenario())


class TestHandshake:
    def test_connect_assigns_session_and_counts(self, sim):
        server = ReproServer(make_hive(sim))

        async def scenario():
            one = await connect(server)
            two = await connect(server)
            assert one.session_id != two.session_id
            assert server.sessions_active == 2
            await one.close()
            await two.close()
            await asyncio.sleep(0)  # the handler loops observe EOF
            await asyncio.sleep(0)
            assert server.sessions_active == 0
            assert server.stats.sessions_closed == 2

        run(scenario())

    def test_non_connect_first_message_denied(self, sim):
        server = ReproServer(make_hive(sim))

        async def scenario():
            endpoint = server.connect_in_process()
            await endpoint.send({"type": "request", "surface": "query"})
            reply = await endpoint.recv()
            assert reply["type"] == "deny"
            endpoint.close()

        run(scenario())

    def test_redirecting_connect_middleware(self, sim):
        class ToPartner(ServerMiddleware):
            async def connect(self, *, request, session, next):
                return Redirect("partner-hive:9999")

        server = ReproServer(make_hive(sim), middlewares=[ToPartner()])

        async def scenario():
            client = ServerClient(server.connect_in_process())
            with pytest.raises(ServerRedirected) as redirected:
                await client.connect()
            assert redirected.value.target == "partner-hive:9999"
            assert server.stats.redirects == 1
            # A redirected handshake never became a session.
            assert server.stats.sessions_closed + server.sessions_active == 0

        run(scenario())

    def test_hang_up_before_connect_is_not_a_session(self, sim):
        server = ReproServer(make_hive(sim))

        async def scenario():
            server.connect_in_process().close()  # never says connect
            client = await connect(server)
            await client.close()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert server.stats.connections == 2
            assert server.stats.sessions_closed + server.sessions_active == 1
            assert server.sessions_active == 0

        run(scenario())


AUTH = {"ingest-token": "collector", "query-token": "analyst", "all-token": "admin"}
SCOPES = {
    "collector": {"ingest"},
    "analyst": {"query"},
    "admin": {"ingest", "query", "channel"},
}


def scoped_server(sim) -> tuple[ReproServer, Hive]:
    hive = make_hive(sim)
    return ReproServer(hive, middlewares=[AuthTokenMiddleware(AUTH, SCOPES)]), hive


class TestAuthGatesEverySurface:
    def test_bad_token_denied_at_handshake(self, sim):
        server, _ = scoped_server(sim)

        async def scenario():
            client = ServerClient(server.connect_in_process())
            with pytest.raises(ServerDenied):
                await client.connect({"authorization": "wrong"})
            assert server.stats.denials_connect == 1

        run(scenario())

    def test_ingestion_denied_without_scope(self, sim):
        server, _ = scoped_server(sim)

        async def scenario():
            analyst = await connect(server, {"authorization": "query-token"})
            with pytest.raises(ServerDenied) as denied:
                await analyst.upload("d0", "u0", "t", make_records(2, dt=1.0))
            assert "ingest" in denied.value.reason
            assert server.stats.denials_request == 1
            assert server.stats.requests_ingest == 0  # terminal never ran
            await analyst.close()

        run(scenario())

    def test_query_denied_without_scope(self, sim):
        server, _ = scoped_server(sim)

        async def scenario():
            collector = await connect(server, {"authorization": "ingest-token"})
            with pytest.raises(ServerDenied) as denied:
                await collector.aggregate("t")
            assert "query" in denied.value.reason
            assert server.stats.denials_request == 1
            assert server.stats.requests_query == 0
            await collector.close()

        run(scenario())

    def test_channel_subscribe_denied_without_scope(self, sim):
        server, _ = scoped_server(sim)

        async def scenario():
            collector = await connect(server, {"authorization": "ingest-token"})
            with pytest.raises(ServerDenied) as denied:
                await collector.subscribe(VIEW)
            assert "channel" in denied.value.reason
            assert server.stats.denials_channel == 1
            assert server.subscriptions_active == 0
            await collector.close()

        run(scenario())


class TestIngestSurface:
    def test_upload_reaches_store_and_query_reads_back(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive)

        async def scenario():
            client = await connect(server)
            reply = await client.upload("d0", "u0", "t", make_records(40, dt=10.0))
            assert reply["accepted"] == 40
            assert reply["status"] == "ok"
            assert reply["member"] == "local"
            await drive_and_flush(server, hive, 1000.0)
            aggregate = await client.aggregate("t")
            assert aggregate["records"] == 40
            assert aggregate["members"] == ["local"]
            secure = await client.secure_aggregate("t")
            assert secure["records"] == 40
            await client.close()

        run(scenario())

    def test_backpressure_mapped_onto_the_reply(self, sim):
        """A rejecting pipeline's shed counters come back to the
        uploader — the client sees exactly what the gateway shed."""
        store = DatasetStore(n_shards=1, segment_capacity=64)
        pipeline = IngestPipeline(
            sim, store, policy="reject", buffer_capacity=16, flush_delay=5.0
        )
        hive = Hive(sim, store=store, pipeline=pipeline)
        hive.streams.register_view(VIEW, WindowSpec.tumbling(WINDOW))
        owner = Honeycomb("tests", hive)
        from repro.apisense.tasks import SensingTask

        task = SensingTask(
            name="t", sensors=("gps", "battery"), sampling_period=60.0,
            upload_period=300.0, end=86400.0,
        )
        owner.register_task(task)
        hive.adopt_task(task, owner)
        server = ReproServer(hive)

        async def scenario():
            client = await connect(server)
            reply = await client.upload("d0", "u0", "t", make_records(50, dt=1.0))
            assert reply["status"] == "backpressure"
            assert reply["accepted"] + reply["rejected"] == 50
            assert reply["rejected"] == pipeline.stats.rejected > 0
            # The per-connection accounting rides in the session state.
            state = next(iter(server._sessions.values())).state
            assert state["ingest.accepted"] == reply["accepted"]
            assert state["ingest.rejected"] == reply["rejected"]
            await client.close()

        run(scenario())

    def test_malformed_upload_is_an_error_not_a_crash(self, sim):
        server = ReproServer(make_hive(sim))

        async def scenario():
            client = await connect(server)
            with pytest.raises(ServerError):
                await client.request("ingest", "upload", {"device_id": "d"})
            with pytest.raises(ServerError):
                await client.request("nosuch", "upload", {})
            with pytest.raises(ServerError):
                await client.request("query", "nosuch", {"task": "t"})
            # the session survives bad requests
            assert (await client.request("query", "tasks"))["tasks"] == []
            await client.close()

        run(scenario())


    @pytest.mark.parametrize(
        "frame, names",
        [
            (
                {"type": "channel", "action": "unsubscribe",
                 "payload": {"subscription": "abc"}},
                "subscription",
            ),
            (
                {"type": "channel", "action": "subscribe",
                 "payload": {"view": VIEW, "tasks": 5}},
                "tasks",
            ),
            (
                {"type": "channel", "action": "subscribe",
                 "payload": {"view": VIEW, "tasks": [["t"]]}},
                "tasks",
            ),
            (
                {"type": "channel", "action": "watch", "payload": {"names": "repro"}},
                "names",
            ),
            (
                {"type": "request", "surface": "obs", "action": "top",
                 "payload": {"limit": "many"}},
                "limit",
            ),
            (
                {"type": "request", "surface": "obs", "action": "history",
                 "payload": {"name": "x", "window": "long"}},
                "window",
            ),
            (
                {"type": "request", "surface": "obs", "action": "history",
                 "payload": {"name": "x", "labels": [1, 2]}},
                "labels",
            ),
            (
                {"type": "request", "surface": "query", "action": "secure_aggregate",
                 "payload": {"task": "t", "bin_edges": ["a"]}},
                "bin_edges",
            ),
            (
                {"type": "request", "surface": "ingest", "action": "upload",
                 "payload": {"device_id": "d", "user": "u", "task": "t",
                             "records": 5}},
                "records",
            ),
            (
                {"type": "request", "surface": "ingest", "action": "upload",
                 "payload": {"device_id": "d", "user": "u", "task": "t",
                             "records": [{"time": "noon"}]}},
                "time",
            ),
            (
                {"type": "request", "surface": "query", "action": "tasks",
                 "payload": [1, 2]},
                "payload",
            ),
            ([1, 2], "JSON object"),
        ],
    )
    def test_wrong_typed_field_is_an_error_not_a_crash(self, sim, frame, names):
        """A field of the wrong JSON type is answered with an error that
        names it, and the session keeps serving."""
        server = ReproServer(
            make_hive(sim), sim=sim, scraper=MetricsScraper(capacity=8)
        )

        async def scenario():
            endpoint = server.connect_in_process()
            await endpoint.send({"type": "connect", "headers": {}})
            assert (await endpoint.recv())["type"] == "connected"
            await endpoint.send(
                {**frame, "id": 1} if isinstance(frame, dict) else frame
            )
            reply = await asyncio.wait_for(endpoint.recv(), timeout=1.0)
            assert reply is not None, "the server hung up instead of answering"
            assert reply["status"] == "error"
            assert names in reply["error"]
            # ...and a following valid request on the same connection works.
            await endpoint.send(
                {"type": "request", "id": 2, "surface": "query", "action": "tasks"}
            )
            reply = await asyncio.wait_for(endpoint.recv(), timeout=1.0)
            assert reply["status"] == "ok" and reply["id"] == 2
            assert server.sessions_active == 1
            endpoint.close()

        run(scenario())


class TestFederatedServer:
    def test_router_mode_routes_and_aggregates_across_members(self, sim):
        from tests.federation.conftest import build_router, gps_task

        router = build_router(sim, 3)
        for name in router.member_names:
            router.hive(name).streams.register_view(
                VIEW, WindowSpec.tumbling(WINDOW)
            )
        owner = Honeycomb("lab", router.hive("hive-0"))
        router.syndicate(gps_task("t"), owner, home="hive-0")
        server = ReproServer(router=router)

        async def scenario():
            client = await connect(server)
            members = set()
            for index in range(12):
                reply = await client.upload(
                    f"device-{index:03d}", f"u{index}", "t",
                    make_records(5, user=f"u{index}", dt=30.0),
                )
                assert reply["accepted"] == 5
                members.add(reply["member"])
            assert len(members) > 1  # the ring spread the fleet
            await server.drive(1000.0, slice_seconds=100.0)
            for name in router.member_names:
                router.hive(name).pipeline.flush_all()
            aggregate = await client.aggregate("t")
            assert aggregate["records"] == 60
            assert set(aggregate["members"]) == set(router.member_names)
            assert sum(aggregate["per_member_records"].values()) == 60
            secure = await client.secure_aggregate("t")
            assert secure["records"] == 60
            await client.close()

        run(scenario())


class TestDashboardFanOut:
    def test_every_subscription_is_pushed_the_batch_view_and_drops_nothing(self, sim):
        class SeenSessions(ServerMiddleware):
            """The public way to a live Session: the connect hook."""

            def __init__(self):
                self.sessions = []

            async def connect(self, *, request, session, next):
                self.sessions.append(session)
                return await next()

        seen = SeenSessions()
        hive = make_hive(sim)
        server = ReproServer(hive, middlewares=[seen])

        async def scenario():
            clients = [await connect(server) for _ in range(32)]
            for client in clients:
                await client.subscribe(VIEW)
            await clients[0].upload("d0", "u0", "t", make_records(90, dt=20.0))
            await drive_and_flush(server, hive, 2400.0)
            await server.drain()
            batch = [snapshot_digest(s) for s in hive.streams.snapshots("t", VIEW)]
            assert [window["records"] for window in batch] == [15] * 6
            assert len(seen.sessions) == len(clients)
            for client, session in zip(clients, seen.sessions):
                (subscription,) = session.subscriptions.values()
                assert subscription.snapshots_pushed == len(batch)
                assert subscription.pushes_dropped == 0
                pushed = [
                    push["snapshot"]
                    for push in await settle(client)
                    if push["kind"] == "snapshot"
                ]
                assert pushed == batch  # in order, no duplicate, none missing
                await client.close()
            assert server.pushes_sent == 32 * len(batch)
            assert server.pushes_dropped == 0

        run(scenario())


class TestMonitoringIntegration:
    def test_health_report_carries_server_counters(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive)

        async def scenario():
            client = await connect(server)
            await client.subscribe(VIEW)
            await client.upload("d0", "u0", "t", make_records(30, dt=20.0))
            await drive_and_flush(server, hive, 1200.0)
            await server.drain()
            await settle(client)
            report = snapshot(hive, sim.now, server=server)
            assert report.server_attached
            assert report.server_sessions == 1
            assert report.server_subscriptions == 1
            assert report.server_pushes_sent >= 1
            assert report.server_pushes_dropped == 0
            text = report.to_text()
            assert "server: 1 sessions" in text
            assert "alerts evicted" in text
            await client.close()

        run(scenario())

    def test_report_without_server_says_tier_absent(self, sim):
        # Absent is not idle: without a serving tier the report must say
        # so, not render all-zero counters an operator would read as
        # "healthy but quiet".
        hive = make_hive(sim)
        report = snapshot(hive, 0.0)
        assert not report.server_attached
        assert "server: tier not attached" in report.to_text()
        assert "0 sessions" not in report.to_text()


class TestTcpTransport:
    def test_same_protocol_over_real_sockets(self, sim):
        hive = make_hive(sim)
        server = ReproServer(hive)

        async def scenario():
            try:
                listener = await server.serve_tcp(port=0)
            except OSError as error:  # pragma: no cover - sandboxed CI
                pytest.skip(f"cannot bind sockets here: {error}")
            port = listener.sockets[0].getsockname()[1]
            client = ServerClient(await connect_tcp("127.0.0.1", port))
            await client.connect()
            reply = await client.upload("d0", "u0", "t", make_records(8, dt=30.0))
            assert reply["accepted"] == 8
            await drive_and_flush(server, hive, 600.0)
            await server.drain()
            aggregate = await client.aggregate("t")
            assert aggregate["records"] == 8
            sub = await client.subscribe(VIEW, catch_up=True)
            assert sub["catchup"] >= 1
            pushes = await settle(client)
            assert any(p["kind"] == "snapshot" for p in pushes)
            await client.close()
            listener.close()
            await listener.wait_closed()

        run(scenario())

    def test_json_array_line_is_answered_and_the_connection_survives(self, sim):
        import json

        server = ReproServer(make_hive(sim))

        async def scenario():
            try:
                listener = await server.serve_tcp(port=0)
            except OSError as error:  # pragma: no cover - sandboxed CI
                pytest.skip(f"cannot bind sockets here: {error}")
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def exchange(line: bytes) -> dict:
                writer.write(line + b"\n")
                await writer.drain()
                answer = await asyncio.wait_for(reader.readline(), timeout=2.0)
                assert answer, "the server hung up instead of answering"
                return json.loads(answer)

            assert (await exchange(b'{"type":"connect"}'))["type"] == "connected"
            reply = await exchange(b"[1, 2, 3]")
            assert reply["status"] == "error" and "JSON object" in reply["error"]
            reply = await exchange(
                b'{"type":"request","id":7,"surface":"query","action":"tasks"}'
            )
            assert reply == {
                "type": "response", "id": 7, "status": "ok", "payload": {"tasks": []},
            }
            writer.close()
            await writer.wait_closed()
            listener.close()
            await listener.wait_closed()

        run(scenario())

    @pytest.mark.parametrize(
        "line, says, session_continues",
        [
            (b"not json", "malformed frame", True),
            (b"\xff\xfe", "malformed frame", True),
            (b"x" * 70_000, "65536-byte line limit", False),
        ],
        ids=["not-json", "not-utf8", "over-limit"],
    )
    def test_unreadable_line_is_answered_not_logged(
        self, sim, caplog, line, says, session_continues
    ):
        """Each gets one error reply; an over-limit line also ends its
        session (the rest of that line cannot be told from the next
        frame).  Nothing is logged and a second client never stalls."""
        import json
        import logging

        server = ReproServer(make_hive(sim))

        async def scenario():
            try:
                listener = await server.serve_tcp(port=0)
            except OSError as error:  # pragma: no cover - sandboxed CI
                pytest.skip(f"cannot bind sockets here: {error}")
            port = listener.sockets[0].getsockname()[1]
            bystander = ServerClient(await connect_tcp("127.0.0.1", port))
            await bystander.connect()
            baseline = server.sessions_active
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def answer() -> bytes:
                return await asyncio.wait_for(reader.readline(), timeout=2.0)

            writer.write(b'{"type":"connect"}\n')
            assert json.loads(await answer())["type"] == "connected"
            writer.write(line + b"\n")
            reply = json.loads(await answer())
            assert set(reply) == {"type", "id", "status", "error"}
            assert (reply["type"], reply["id"], reply["status"]) == (
                "response", None, "error",
            )
            assert says in reply["error"]
            assert await bystander.request("query", "tasks") == {"tasks": []}
            writer.write(b'{"type":"request","id":7,"surface":"query","action":"tasks"}\n')
            if session_continues:
                assert json.loads(await answer())["id"] == 7
            else:
                assert await answer() == b""  # the server hung up
            writer.close()
            for _ in range(200):
                if server.sessions_active == baseline:
                    break
                await asyncio.sleep(0.01)
            assert server.sessions_active == baseline
            assert await bystander.request("query", "tasks") == {"tasks": []}
            await bystander.close()
            listener.close()
            await listener.wait_closed()

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            run(scenario())
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    @pytest.mark.parametrize(
        "line",
        [b"not json", b"\xff\xfe", b"x" * 70_000],
        ids=["not-json", "not-utf8", "over-limit"],
    )
    def test_unreadable_handshake_line_is_denied_not_logged(self, sim, caplog, line):
        """An unreadable *first* line gets the handshake's deny and the
        connection ends; no session opens, nothing is logged, and a
        second client is served before and after."""
        import json
        import logging

        server = ReproServer(make_hive(sim))

        async def scenario():
            try:
                listener = await server.serve_tcp(port=0)
            except OSError as error:  # pragma: no cover - sandboxed CI
                pytest.skip(f"cannot bind sockets here: {error}")
            port = listener.sockets[0].getsockname()[1]
            bystander = ServerClient(await connect_tcp("127.0.0.1", port))
            await bystander.connect()
            assert await bystander.request("query", "tasks") == {"tasks": []}
            baseline, closed = server.sessions_active, server.stats.sessions_closed
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(line + b"\n")
            replies = await asyncio.wait_for(reader.read(), timeout=2.0)
            (reply,) = [json.loads(row) for row in replies.splitlines()]
            assert set(reply) == {"type", "reason"} and reply["type"] == "deny"
            writer.close()
            for _ in range(200):
                if server.sessions_active == baseline:
                    break
                await asyncio.sleep(0.01)
            assert server.sessions_active == baseline
            assert server.stats.sessions_closed == closed
            assert await bystander.request("query", "tasks") == {"tasks": []}
            await bystander.close()
            listener.close()
            await listener.wait_closed()

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            run(scenario())
        assert [
            r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING
        ] == []


#: The exact key set of every message kind a client can receive
#: (``payload.*`` = the keys of a channel reply's payload).  A change
#: here is a wire change.
REPLY_OK = {"type", "id", "status", "payload"}
WIRE_SHAPES = {
    "connected": {"type", "session_id"},
    "deny": {"type", "reason"},
    "redirect": {"type", "target"},
    "response/ok": REPLY_OK,
    "response/error": {"type", "id", "status", "error"},
    "response/deny": {"type", "id", "status", "reason"},
    "response/redirect": {"type", "id", "status", "target"},
    "channel_reply/subscribe": REPLY_OK
    | {"payload.subscription", "payload.view", "payload.catchup"},
    "channel_reply/watch": REPLY_OK
    | {"payload.subscription", "payload.names", "payload.slo"},
    "channel_reply/unsubscribe": REPLY_OK | {"payload.unsubscribed"},
    "push/snapshot": {"type", "kind", "subscription", "catchup", "snapshot"},
    "push/alert": {"type", "kind", "subscription", "source", "alert"},
    "push/alert_gap": {"type", "kind", "subscription", "source", "missed"},
    "push/obs_frame": {"type", "kind", "subscription", "frame"},
    "push/obs_alert": {"type", "kind", "subscription", "alert"},
}


class TestWireShapes:
    def test_every_message_kind_keeps_its_exact_key_set(self, sim):
        from tests.server.test_channel import close_windows, upload_window

        class Gate(ServerMiddleware):
            """Denies or redirects on demand so every status occurs."""

            @staticmethod
            async def verdict(asked, next):
                if asked == "deny":
                    return Deny("gated")
                if asked == "redirect":
                    return Redirect("elsewhere:1")
                return await next()

            async def connect(self, *, request, session, next):
                return await self.verdict(request.headers.get("verdict"), next)

            async def request(self, *, request, session, next):
                return await self.verdict(request.action, next)

        hive = make_hive(sim, lateness=0.0, alert_capacity=1)
        hive.streams.register_query(VIEW, ContinuousQuery("quiet", rate_below(1.0)))
        scraper = MetricsScraper(capacity=8)
        slo = SLODefinition(
            name="dial",
            objective=0.9,
            probe=lambda store, t0, t1: 0.0,  # burning from the first frame
            rules=(BurnRateRule(window=10.0, factor=1.0),),
        )
        server = ReproServer(
            hive, sim=sim, middlewares=[Gate()], scraper=scraper, slos=[slo]
        )
        seen: dict[str, set[str]] = {}

        def note(label: str, message: dict) -> None:
            keys = set(message)
            if label.startswith("channel_reply"):
                keys |= {f"payload.{key}" for key in message["payload"]}
            assert seen.setdefault(label, keys) == keys, label

        async def handshake(verdict: str):
            endpoint = server.connect_in_process()
            await endpoint.send({"type": "connect", "headers": {"verdict": verdict}})
            reply = await endpoint.recv()
            note(reply["type"], reply)
            return endpoint

        async def scenario():
            (await handshake("deny")).close()
            (await handshake("redirect")).close()
            endpoint = await handshake("ok")
            ids = iter(range(1, 100))

            async def ask(kind: str, **fields) -> dict:
                call = next(ids)
                await endpoint.send({"type": kind, "id": call, **fields})
                while True:  # pushes share the pipe with the replies
                    message = await endpoint.recv()
                    if message["type"] == "push":
                        note(f"push/{message['kind']}", message)
                    elif message["id"] == call:
                        return message

            for action in ("tasks", "nosuch", "deny", "redirect"):
                reply = await ask(
                    "request", surface="query", action=action, payload={"task": "t"}
                )
                note(f"response/{reply['status']}", reply)

            # Three alerts into a log retaining one, before anyone
            # subscribes: the late subscriber is owed a gap.
            for index in range(4):
                upload_window(hive, index, n=10)
                await close_windows(server, hive, index + 1)
            replies = {}
            for action, payload in (
                ("subscribe", {"view": VIEW, "alerts": True}),
                ("watch", {}),
            ):
                replies[action] = await ask("channel", action=action, payload=payload)
                note(f"channel_reply/{action}", replies[action])
            upload_window(hive, 4, n=10)
            await close_windows(server, hive, 5)
            scraper.scrape(1.0)
            await server.drain()
            reply = await ask(
                "channel",
                action="unsubscribe",
                payload={"subscription": replies["watch"]["payload"]["subscription"]},
            )
            note("channel_reply/unsubscribe", reply)
            endpoint.close()

        run(scenario())
        assert seen == WIRE_SHAPES
