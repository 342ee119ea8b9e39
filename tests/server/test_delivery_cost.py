"""What one push costs the event loop, as exact counts.

The push path is: ``Session.push`` -> bounded queue -> the server's
ready list -> **one** delivery pass per loop turn -> ``try_send`` ->
the client's receiver.  No task exists per session and none wakes per
push; a session owns a sender task only while its transport pushes
back.  These counts pin that shape at N = 16 and 64 in-process
``ServerClient``\\ s (a count that moves is a finding, not a number to
update).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import ReproServer
from tests.server.conftest import VIEW, connect, make_hive, run
from tests.server.test_channel import close_windows, snapshot_keys, upload_window


class LoopCounter:
    """Counts tasks created and callbacks scheduled on the running loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.tasks = 0
        self.scheduled: list = []
        self._call_soon = loop.call_soon

        def factory(loop, coro, **kwargs):
            self.tasks += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        def call_soon(callback, *args, **kwargs):
            self.scheduled.append(callback)
            return self._call_soon(callback, *args, **kwargs)

        loop.set_task_factory(factory)
        loop.call_soon = call_soon

    def reset(self) -> None:
        self.tasks = 0
        self.scheduled.clear()


async def settle() -> None:
    for _ in range(20):
        await asyncio.sleep(0)


@pytest.mark.parametrize("n", [16, 64])
def test_no_task_per_session_beyond_the_connection_handlers(sim, n):
    server = ReproServer(make_hive(sim, lateness=0.0))

    async def scenario():
        clients = [await connect(server) for _ in range(n)]
        for client in clients:
            await client.subscribe(VIEW)
        await settle()
        # This coroutine, plus one handler per connection — nothing else.
        assert len(asyncio.all_tasks()) == 1 + n
        for client in clients:
            await client.close()

    run(scenario())


@pytest.mark.parametrize("n", [16, 64])
def test_one_window_close_is_one_delivery_pass_and_no_task(sim, n):
    hive = make_hive(sim, lateness=0.0)
    server = ReproServer(hive)

    async def scenario():
        counter = LoopCounter(asyncio.get_running_loop())
        clients = [await connect(server) for _ in range(n)]
        for client in clients:
            await client.subscribe(VIEW)
        upload_window(hive, 0)
        await close_windows(server, hive, 1)
        await settle()
        counter.reset()
        upload_window(hive, 1)
        hive.pipeline.flush_all()  # closes window 0: N pushes, synchronously
        assert server.pushes_queued == n
        (scheduled,) = counter.scheduled  # one callback for N pushes
        assert scheduled.__name__ == "_deliver" and scheduled.__self__ is server
        await settle()
        assert counter.tasks == 0
        assert [snapshot_keys(client.drain_pushes()) for client in clients] == [
            [("t", 300.0)]
        ] * n
        assert server.pushes_sent == n
        for client in clients:
            await client.close()

    run(scenario())


def test_a_stalled_raw_endpoint_owns_one_sender_only_while_backlogged(sim):
    hive = make_hive(sim, lateness=0.0)
    server = ReproServer(hive, queue_capacity=8)

    async def scenario():
        endpoint = server.connect_in_process(client_capacity=1)
        await endpoint.send({"type": "connect", "headers": {}})
        assert (await endpoint.recv())["type"] == "connected"
        await endpoint.send(
            {"type": "channel", "id": 1, "action": "subscribe", "payload": {"view": VIEW}}
        )
        assert (await endpoint.recv())["status"] == "ok"
        baseline = len(asyncio.all_tasks())  # this coroutine + the handler
        assert baseline == 2
        for index in range(4):  # three windows close: the 1-deep inbox fills
            upload_window(hive, index)
            await close_windows(server, hive, index + 1)
        await settle()
        assert len(asyncio.all_tasks()) == baseline + 1
        received = [await endpoint.recv() for _ in range(3)]
        assert snapshot_keys(received) == [("t", 300.0), ("t", 600.0), ("t", 900.0)]
        await settle()
        assert len(asyncio.all_tasks()) == baseline
        assert server.pushes_queued == 0 and server.pushes_dropped == 0
        endpoint.close()

    run(scenario())
