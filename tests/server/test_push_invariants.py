"""The push path's promises under arbitrary interleavings.

A hypothesis state machine connects ``ServerClient``\\ s and raw
in-process endpoints with 1–3-deep inboxes, subscribes (with or without
a task filter and catch-up), unsubscribes, closes windows, reads raw
endpoints a few messages at a time, disconnects mid-stream and drains.
After every step:

- ``enqueued = sent + dropped + queued`` on the server, on every live
  session and on every live subscription;
- every subscription's stream is strictly increasing per task, carries
  only the tasks it asked for, and equals the engine's batch view when
  nothing was dropped;
- what is still queued is the newest part of what a subscription is
  owed, so whatever was dropped was older (drop-oldest).

The teardown tests below pin the one leak the machine found: a push held
by a sender blocked on a full inbox was counted neither sent nor dropped
when its connection closed.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import ServerError
from repro.server import InProcessTransport, ReproServer
from repro.simulation import Simulator
from tests.server.conftest import VIEW, connect, make_hive, run
from tests.server.test_channel import close_windows, upload_window

TASKS = ("a", "b")


async def settle(turns: int = 20) -> None:
    for _ in range(turns):
        await asyncio.sleep(0)


async def torn_down(server: ReproServer, session) -> None:
    """Wait (bounded) until the server has closed ``session`` and emptied it."""
    for turn in range(400):
        if session.session_id not in server._sessions and not session.pushes_queued:
            return
        await asyncio.sleep(0 if turn < 50 else 0.01)


class Connection:
    def __init__(self, handle, session, raw: bool):
        self.handle = handle  # a ServerClient, or the raw client endpoint
        self.session = session
        self.raw = raw
        self.subs: dict[int, dict] = {}  # id -> {sub, tasks, first, live}
        self.received: list[dict] = []  # pushes received / read, in order
        self.ids = itertools.count(1)

    def ends(self, sid: int, task: str) -> list[float]:
        return [
            m["snapshot"]["end"]
            for m in self.received
            if m["subscription"] == sid and m["snapshot"]["task"] == task
        ]


class PushPath(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.hive = make_hive(Simulator(), tasks=TASKS, lateness=0.0)
        self.server = ReproServer(self.hive, queue_capacity=3)
        self.live: list[Connection] = []
        self.windows = 0

    def do(self, coro):
        return self.loop.run_until_complete(coro)

    def batch(self, task: str) -> list[float]:
        return [s.end for s in self.hive.streams.snapshots(task, VIEW)]

    def pick(self, index: int, raw: bool | None = None) -> Connection | None:
        pool = [c for c in self.live if raw is None or c.raw == raw]
        return pool[index % len(pool)] if pool else None

    def channel(self, conn: Connection, action: str, payload: dict) -> dict:
        if not conn.raw:
            return self.do(conn.handle.channel(action, payload))
        call = next(conn.ids)
        message = {"type": "channel", "id": call, "action": action, "payload": payload}

        async def ask():
            await conn.handle.send(message)
            while True:  # pushes share the pipe with the reply
                reply = await conn.handle.recv()
                if reply["type"] != "push":
                    return reply["payload"]
                conn.received.append(reply)

        return self.do(ask())

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @initialize(capacity=st.integers(1, 3))
    def a_dashboard_and_a_stalled_reader(self, capacity):
        """Every run starts with one subscribed client of each kind."""
        for raw in (False, True):
            self.connect(raw, capacity)
            self.subscribe(len(self.live) - 1, None, False)

    @precondition(lambda self: len(self.live) < 4)
    @rule(raw=st.booleans(), capacity=st.integers(1, 3))
    def connect(self, raw, capacity):
        if raw:

            async def handshake():
                endpoint = self.server.connect_in_process(client_capacity=capacity)
                await endpoint.send({"type": "connect", "headers": {}})
                return endpoint, (await endpoint.recv())["session_id"]

            handle, session_id = self.do(handshake())
        else:
            handle = self.do(connect(self.server))
            session_id = handle.session_id
        self.live.append(
            Connection(handle, self.server._sessions[session_id], raw)
        )

    @precondition(lambda self: self.live)
    @rule(
        index=st.integers(0, 3),
        tasks=st.sampled_from([None, ("a",), ("b",)]),
        catch_up=st.booleans(),
    )
    def subscribe(self, index, tasks, catch_up):
        conn = self.pick(index)
        payload = {"view": VIEW, "catch_up": catch_up}
        if tasks is not None:
            payload["tasks"] = list(tasks)
        sid = self.channel(conn, "subscribe", payload)["subscription"]
        conn.subs[sid] = {
            "sub": conn.session.subscriptions[sid],
            "tasks": tasks or TASKS,
            "first": {t: 0 if catch_up else len(self.batch(t)) for t in TASKS},
            "live": True,
        }

    @precondition(lambda self: any(
        s["live"] for c in self.live for s in c.subs.values()
    ))
    @rule(index=st.integers(0, 15))
    def unsubscribe(self, index):
        owned = [(c, sid) for c in self.live for sid, s in c.subs.items() if s["live"]]
        conn, sid = owned[index % len(owned)]
        self.channel(conn, "unsubscribe", {"subscription": sid})
        conn.subs[sid]["live"] = False

    @precondition(lambda self: self.windows < 40)
    @rule(tasks=st.sampled_from([("a",), ("b",), ("a", "b")]), n=st.integers(1, 4))
    def close_windows(self, tasks, n):
        """Upload ``n`` windows in one go, then close them: a burst."""
        for _ in range(n):
            for task in tasks:
                upload_window(self.hive, self.windows, task=task, user=f"u-{task}")
            self.windows += 1
        self.do(close_windows(self.server, self.hive, self.windows))

    @precondition(lambda self: any(c.raw for c in self.live))
    @rule(index=st.integers(0, 3), k=st.integers(1, 5))
    def read(self, index, k):
        conn = self.pick(index, raw=True)
        self.do(settle())
        available = conn.session.pushes_sent - len(conn.received)
        for _ in range(min(k, available)):
            conn.received.append(self.do(conn.handle.recv()))

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 3))
    def disconnect(self, index):
        conn = self.pick(index)
        self.live.remove(conn)
        if conn.raw:
            conn.handle.close()
        else:
            self.do(conn.handle.close())
            conn.received.extend(conn.handle.drain_pushes())
        session = conn.session
        self.do(torn_down(self.server, session))
        owed = sum(s["sub"].snapshots_pushed for s in conn.subs.values())
        assert session.pushes_queued == 0
        assert owed == session.pushes_sent + session.pushes_dropped
        for sid, s in conn.subs.items():
            if s["live"] and not conn.raw:
                assert s["sub"].snapshots_pushed == (
                    len([m for m in conn.received if m["subscription"] == sid])
                    + s["sub"].pushes_dropped
                )

    @rule()
    def drain(self):
        async def go():
            for _ in range(200):
                await settle()
                if not self.server.pushes_queued:
                    break
                for conn in self.live:
                    if conn.raw:
                        while len(conn.received) < conn.session.pushes_sent:
                            conn.received.append(await conn.handle.recv())
            await self.server.drain()

        self.do(go())

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def books_balance_and_streams_hold(self):
        self.do(settle())
        server = self.server
        totals = server.obs.push_totals
        assert totals["enqueued"] == (
            server.pushes_sent + server.pushes_dropped + server.pushes_queued
        )
        for conn in self.live:
            if not conn.raw:
                conn.received.extend(conn.handle.drain_pushes())
            session = conn.session
            owed = sum(s["sub"].snapshots_pushed for s in conn.subs.values())
            assert owed == (
                session.pushes_sent + session.pushes_dropped + session.pushes_queued
            )
            # Raw: the inbox holds what was sent but not read yet.
            quiet = not session.pushes_queued and (
                not conn.raw or session.pushes_sent == len(conn.received)
            )
            queued = list(session.queue._items)
            for sid, s in conn.subs.items():
                sub = s["sub"]
                got = [m for m in conn.received if m["subscription"] == sid]
                for task in TASKS:
                    ends = conn.ends(sid, task)
                    assert ends == sorted(set(ends)), (sid, task, ends)
                    if task not in s["tasks"]:
                        assert not ends
                if not s["live"]:
                    continue
                accounted = len(got) + sub.pushes_dropped
                if quiet:
                    assert sub.snapshots_pushed == accounted
                else:
                    assert sub.snapshots_pushed >= accounted
                for task in s["tasks"]:
                    owed_ends = self.batch(task)[s["first"][task]:]
                    if quiet and not sub.pushes_dropped:
                        assert conn.ends(sid, task) == owed_ends
                    waiting = [
                        m["snapshot"]["end"]
                        for m in queued
                        if m["subscription"] == sid and m["snapshot"]["task"] == task
                    ]
                    # Still queued = the newest of what is owed: anything
                    # that left the queue (sent or dropped) was older.
                    assert waiting == owed_ends[len(owed_ends) - len(waiting):]

    def teardown(self):
        async def close_all():
            for conn in self.live:
                if conn.raw:
                    conn.handle.close()
                else:
                    await conn.handle.close()
            await settle()
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        try:
            self.do(close_all())
        finally:
            self.loop.close()


TestPushPath = PushPath.TestCase
TestPushPath.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestTeardownAccounting:
    def test_closing_a_backlogged_raw_client_counts_every_push(self, sim):
        """Five pushes toward a 1-deep inbox behind a 3-deep queue: one
        reaches the inbox, one is held by the blocked sender, three
        wait.  Closing the client drops the held one too."""
        hive = make_hive(sim, lateness=0.0)
        server = ReproServer(hive, queue_capacity=3)

        async def scenario():
            endpoint = server.connect_in_process(client_capacity=1)
            await endpoint.send({"type": "connect", "headers": {}})
            assert (await endpoint.recv())["type"] == "connected"
            await endpoint.send(
                {"type": "channel", "id": 1, "action": "subscribe",
                 "payload": {"view": VIEW}}
            )
            assert (await endpoint.recv())["status"] == "ok"
            session = next(iter(server._sessions.values()))
            subscription = next(iter(session.subscriptions.values()))
            for index in range(6):
                upload_window(hive, index)
                await close_windows(server, hive, index + 1)
            await settle()
            assert subscription.snapshots_pushed == 5
            endpoint.close()
            await torn_down(server, session)
            return session, subscription

        session, subscription = run(scenario())
        books = (
            server.obs.push_totals["enqueued"],
            server.pushes_sent,
            server.pushes_dropped,
            server.pushes_queued,
        )
        assert books == (5, 1, 4, 0)
        assert (session.pushes_sent, session.pushes_dropped) == (1, 4)
        assert session.pushes_queued == 0
        assert subscription.snapshots_pushed == (
            session.pushes_sent + subscription.pushes_dropped
        )

    def test_sending_toward_a_closed_peer_raises(self):
        async def scenario():
            pipe = InProcessTransport(client_capacity=1)
            await pipe.server_end.send({"n": 1})
            blocked = asyncio.ensure_future(pipe.server_end.send({"n": 2}))
            await settle()
            assert not blocked.done()  # the inbox is full
            pipe.client_end.close()
            with pytest.raises(ServerError):
                await asyncio.wait_for(blocked, timeout=1.0)
            with pytest.raises(ServerError):
                await pipe.server_end.send({"n": 3})
            assert await pipe.server_end.recv() is None

        run(scenario())
