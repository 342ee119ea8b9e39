"""The serving tier's client: requests by id, pushes into a local queue.

:class:`ServerClient` wraps one :class:`~repro.server.transport.
Endpoint` (in-process or TCP — the protocol is identical) and receives
through :meth:`~repro.server.transport.Endpoint.deliver`: one receiver
callback demultiplexes inbound traffic as it arrives — called straight
from the server's send on the in-process pipe, from the endpoint's one
reader task over TCP:

- ``response`` / ``channel_reply`` messages resolve the future of the
  request that carries the same ``id``;
- ``push`` messages (dashboard snapshots, alerts, alert gaps) land in a
  local queue the application drains via :meth:`next_push` /
  :meth:`drain_pushes`.

A denied or redirected call surfaces as :class:`ServerDenied` /
:class:`ServerRedirected` so callers cannot mistake a refusal for data.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Optional, Sequence

from repro.errors import ReproError, ServerError
from repro.server.protocol import encode_record
from repro.server.transport import Endpoint, Message


class ServerDenied(ReproError):
    """The middleware chain denied the call; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(f"denied: {reason}")
        self.reason = reason


class ServerRedirected(ReproError):
    """The middleware chain redirected the call; retry at ``target``."""

    def __init__(self, target: str):
        super().__init__(f"redirected to {target}")
        self.target = target


class ServerClient:
    """One connection to a :class:`~repro.server.server.ReproServer`.

    Usage::

        client = ServerClient(server.connect_in_process())
        await client.connect({"authorization": "token"})
        await client.subscribe("hourly", alerts=True)
        ...
        push = await client.next_push()
        await client.close()
    """

    def __init__(self, endpoint: Endpoint):
        self._endpoint = endpoint
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self.pushes: asyncio.Queue[Message] = asyncio.Queue()
        self.session_id: int | None = None
        self._eof: asyncio.Future | None = None  # resolved by the receiver
        self._closed = False

    @property
    def connected(self) -> bool:
        return self.session_id is not None and not self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def connect(self, headers: dict[str, str] | None = None) -> int:
        """Handshake; returns the server-assigned session id.

        Raises :class:`ServerDenied` / :class:`ServerRedirected` when a
        connect middleware refuses the handshake.
        """
        if self.session_id is not None:
            raise ServerError("client is already connected")
        await self._endpoint.send(
            {"type": "connect", "headers": dict(headers or {})}
        )
        reply = await self._endpoint.recv()
        if reply is None:
            raise ServerError("server closed during handshake")
        if reply.get("type") == "deny":
            self._closed = True
            raise ServerDenied(reply.get("reason", "denied"))
        if reply.get("type") == "redirect":
            self._closed = True
            raise ServerRedirected(reply.get("target", ""))
        if reply.get("type") != "connected":
            raise ServerError(f"unexpected handshake reply: {reply!r}")
        self.session_id = int(reply["session_id"])
        self._eof = asyncio.get_running_loop().create_future()
        self._endpoint.deliver(self._receive)
        return self.session_id

    def _receive(self, message: Optional[Message]) -> None:
        """The endpoint's receiver: one inbound message, ``None`` at EOF."""
        if message is not None:
            if message.get("type") == "push":
                self.pushes.put_nowait(message)
                return
            future = self._pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result(message)
            return
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ServerError("connection closed"))
        self._pending.clear()
        if not self._eof.done():
            self._eof.set_result(None)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            await self._endpoint.send({"type": "close"})
        except ServerError:  # pragma: no cover - already torn down
            pass
        if self._eof is not None:
            try:  # the server closes its end once it has seen ours
                await asyncio.wait_for(self._eof, timeout=1.0)
            except asyncio.TimeoutError:
                pass
        self._endpoint.close()

    # ------------------------------------------------------------------
    # Round-trips
    # ------------------------------------------------------------------

    async def _round_trip(self, message: Message) -> Message:
        if self.session_id is None or self._closed:
            raise ServerError("client is not connected")
        call_id = next(self._ids)
        message["id"] = call_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[call_id] = future
        await self._endpoint.send(message)
        reply = await future
        status = reply.get("status")
        if status == "deny":
            raise ServerDenied(reply.get("reason", "denied"))
        if status == "redirect":
            raise ServerRedirected(reply.get("target", ""))
        if status == "error":
            raise ServerError(reply.get("error", "server error"))
        return reply

    async def request(
        self, surface: str, action: str, payload: dict[str, Any] | None = None
    ) -> Any:
        """One ingest/query round-trip; returns the response payload."""
        reply = await self._round_trip(
            {
                "type": "request",
                "surface": surface,
                "action": action,
                "payload": dict(payload or {}),
            }
        )
        return reply.get("payload")

    async def upload(
        self, device_id: str, user: str, task: str, records: Sequence
    ) -> dict[str, Any]:
        """Submit one upload batch; returns the backpressure accounting.

        ``records`` may be :class:`~repro.apisense.device.SensorRecord`
        objects (encoded on the wire automatically) or already-encoded
        payload rows.
        """
        rows = [
            encode_record(record) if hasattr(record, "values") else dict(record)
            for record in records
        ]
        return await self.request(
            "ingest",
            "upload",
            {"device_id": device_id, "user": user, "task": task, "records": rows},
        )

    async def aggregate(self, task: str) -> dict[str, Any]:
        """Federated plaintext aggregate of one task."""
        return await self.request("query", "aggregate", {"task": task})

    async def secure_aggregate(
        self, task: str, bin_edges: Sequence[float] | None = None
    ) -> dict[str, Any]:
        """Aggregator-oblivious aggregate of one task."""
        payload: dict[str, Any] = {"task": task}
        if bin_edges is not None:
            payload["bin_edges"] = list(bin_edges)
        return await self.request("query", "secure_aggregate", payload)

    async def channel(
        self, action: str, payload: dict[str, Any] | None = None
    ) -> Any:
        """One dashboard-channel round-trip; returns the reply payload."""
        reply = await self._round_trip(
            {"type": "channel", "action": action, "payload": dict(payload or {})}
        )
        return reply.get("payload")

    async def subscribe(
        self,
        view: str,
        tasks: Sequence[str] | None = None,
        alerts: bool = False,
        catch_up: bool = False,
    ) -> dict[str, Any]:
        """Subscribe to a streaming view; returns ``{subscription, catchup}``."""
        payload: dict[str, Any] = {
            "view": view,
            "alerts": alerts,
            "catch_up": catch_up,
        }
        if tasks is not None:
            payload["tasks"] = list(tasks)
        return await self.channel("subscribe", payload)

    async def watch_obs(
        self, names: Sequence[str] | None = None, slo: bool = True
    ) -> dict[str, Any]:
        """Subscribe to the live metrics/SLO feed; returns ``{subscription}``.

        ``names`` restricts pushed frames to series-name prefixes (all
        series otherwise); ``slo=True`` also delivers SLO state
        transitions as ``obs_alert`` pushes.
        """
        payload: dict[str, Any] = {"slo": slo}
        if names is not None:
            payload["names"] = list(names)
        return await self.channel("watch", payload)

    async def obs_history(
        self,
        name: str | None = None,
        window: float | None = None,
        labels: dict[str, str] | None = None,
    ) -> dict[str, Any]:
        """Scraped history: series listing, or one name's points + rate."""
        payload: dict[str, Any] = {}
        if name is not None:
            payload["name"] = name
        if window is not None:
            payload["window"] = window
        if labels is not None:
            payload["labels"] = dict(labels)
        return await self.request("obs", "history", payload)

    async def obs_slo(self) -> dict[str, Any]:
        """The server's SLO statuses and alert accounting."""
        return await self.request("obs", "slo", {})

    async def unsubscribe(self, subscription: int) -> Any:
        return await self.channel("unsubscribe", {"subscription": subscription})

    # ------------------------------------------------------------------
    # Pushes
    # ------------------------------------------------------------------

    async def next_push(self, timeout: float | None = None) -> Optional[Message]:
        """The next queued push; ``None`` on timeout."""
        if timeout is None:
            return await self.pushes.get()
        try:
            return await asyncio.wait_for(self.pushes.get(), timeout)
        except asyncio.TimeoutError:
            return None

    def drain_pushes(self) -> list[Message]:
        """Every push received so far, in arrival order (non-blocking)."""
        drained: list[Message] = []
        while True:
            try:
                drained.append(self.pushes.get_nowait())
            except asyncio.QueueEmpty:
                return drained
