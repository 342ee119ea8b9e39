"""Server transports: in-process message pipes and a real TCP binding.

The server core speaks **messages** — JSON-able dicts — over an
:class:`Endpoint` (``send`` / ``try_send`` / ``recv`` / ``deliver`` /
``close``), never sockets directly.  Two bindings implement it:

- :class:`InProcessTransport` — two in-memory inboxes, zero sockets.
  Tests, benchmarks, and the CLI's simulated clients run on this.  A
  receiver attached with ``deliver`` (every ``ServerClient`` does) is
  called by the peer's send itself: no task wakes per message.  A raw
  end that reads with ``recv`` has an inbox, which ``client_capacity``
  can bound to emulate a slow consumer: ``try_send`` then refuses, the
  session's sender task waits and its push queue starts dropping oldest.
- :func:`serve_tcp` / :func:`connect_tcp` — the same protocol over real
  ``asyncio`` streams, one JSON object per line; ``try_send`` refuses
  above the transport's own write-buffer high-water mark.

Both ends see EOF as a normal close: ``recv`` returns ``None`` (a
receiver is called with ``None``) and the server tears the session
down; sending toward a closed peer raises :class:`ServerError`.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from typing import Any, Awaitable, Callable, Optional

from repro.errors import ServerError

#: One protocol message: a JSON-able dict.
Message = dict[str, Any]

#: Called with each inbound message, then with ``None`` at EOF.
Receiver = Callable[[Optional[Message]], None]

#: Longest TCP frame line (asyncio's default, named so a refusal can say it).
_LINE_LIMIT = 2**16


class Endpoint:
    """One end of a bidirectional message pipe (abstract)."""

    async def send(self, message: Message) -> None:
        raise NotImplementedError

    def try_send(self, message: Message) -> bool:
        """Send without waiting; False = pushed back (here always: use ``send``)."""
        return False

    async def recv(self) -> Optional[Message]:
        """The next inbound message, or ``None`` once the peer closed."""
        raise NotImplementedError

    def deliver(self, receiver: Receiver) -> None:
        """Hand every inbound message to ``receiver``, then ``None`` at EOF."""

        async def read() -> None:
            try:
                while (message := await self.recv()) is not None:
                    receiver(message)
            finally:
                receiver(None)

        self._reading = asyncio.get_running_loop().create_task(read())

    def close(self) -> None:
        raise NotImplementedError

    @property
    def remote(self) -> str:
        """Peer description for logs / the connect hook."""
        return "unknown"


class _QueueEndpoint(Endpoint):
    """One end of an in-process pipe: the inbox (``capacity``, 0 = unbounded)
    its peer writes into, unless a receiver takes each message directly."""

    def __init__(self, capacity: int, remote: str):
        self.peer: _QueueEndpoint = self  # paired by InProcessTransport
        self._inbox: deque[Message] = deque()
        self._capacity = capacity or math.inf
        self._receiver: Receiver | None = None
        self._changed = asyncio.Event()  # pulsed when the inbox is read/written
        self._remote = remote
        self._closed = False

    def _wake(self) -> None:
        self._changed.set()
        self._changed.clear()

    def try_send(self, message: Message) -> bool:
        peer = self.peer
        if self._closed or peer._closed:
            raise ServerError("endpoint is closed")
        if peer._receiver is not None:
            peer._receiver(message)
        elif len(peer._inbox) < peer._capacity:
            peer._inbox.append(message)
            peer._wake()
        else:  # the stand-in for a TCP buffer that stopped draining
            return False
        return True

    async def send(self, message: Message) -> None:
        while not self.try_send(message):
            await self.peer._changed.wait()

    async def recv(self) -> Optional[Message]:
        while not self._closed:
            if self._inbox:
                message = self._inbox.popleft()
                self._wake()  # room for a sender waiting on this inbox
                return message
            if self.peer._closed:
                return None
            await self._changed.wait()
        return None

    def deliver(self, receiver: Receiver) -> None:
        self._receiver = receiver
        while self._inbox:
            receiver(self._inbox.popleft())
        self._wake()
        if self.peer._closed:
            receiver(None)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wake()  # senders waiting on this inbox now raise
        self.peer._wake()  # the peer's recv sees EOF
        if self.peer._receiver is not None:
            self.peer._receiver(None)

    @property
    def remote(self) -> str:
        return self._remote


class InProcessTransport:
    """A socketless client<->server pipe built from two in-memory inboxes.

    ``client_capacity`` bounds the client's unread inbox (0 = unbounded):
    once it fills, ``server_end.try_send`` refuses and ``send`` waits,
    exactly how a kernel socket buffer pushes back on the sender — the
    hook the session layer's drop-oldest policy needs.
    """

    def __init__(self, client_capacity: int = 0):
        self.client_end = _QueueEndpoint(client_capacity, "in-process:server")
        self.server_end = _QueueEndpoint(0, "in-process:client")
        self.client_end.peer, self.server_end.peer = self.server_end, self.client_end


def _line(message: Message) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


class _StreamEndpoint(Endpoint):
    """JSON-lines framing over an asyncio TCP stream."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._overrun = False
        peer = writer.get_extra_info("peername")
        self._remote = f"{peer[0]}:{peer[1]}" if peer else "tcp:unknown"

    async def send(self, message: Message) -> None:
        async with self._lock:  # sender task and reply path share the pipe
            self._writer.write(_line(message))
            await self._writer.drain()

    def try_send(self, message: Message) -> bool:
        transport = self._writer.transport
        if transport.is_closing():
            raise ServerError("endpoint is closed")
        if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
            return False
        self._writer.write(_line(message))
        return True

    async def recv(self) -> Optional[Message]:
        """The next frame; ``None`` at EOF.  An unreadable line raises
        :class:`ServerError`; after one over the limit the connection
        reads as closed (the rest of it cannot be told from a frame)."""
        if self._overrun:
            return None
        try:
            line = await self._reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        except ValueError:  # readline's LimitOverrunError
            self._overrun = True
            raise ServerError(
                f"frame from {self._remote} exceeds the {_LINE_LIMIT}-byte line limit"
            )
        if not line:
            return None
        try:
            return json.loads(line)
        except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
            raise ServerError(f"malformed frame from {self._remote}: {error}")

    def close(self) -> None:
        self._writer.close()

    @property
    def remote(self) -> str:
        return self._remote


async def serve_tcp(
    handler: Callable[[Endpoint], Awaitable[None]],
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Bind ``handler`` (the server's per-connection loop) to TCP.

    Returns the listening :class:`asyncio.AbstractServer` (close it to
    stop accepting); ``port=0`` picks a free port — read it back from
    ``server.sockets[0].getsockname()[1]``.
    """

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        endpoint = _StreamEndpoint(reader, writer)
        try:
            await handler(endpoint)
        finally:
            endpoint.close()

    return await asyncio.start_server(on_connection, host, port, limit=_LINE_LIMIT)


async def connect_tcp(host: str, port: int) -> Endpoint:
    """Dial a :func:`serve_tcp` listener; returns the client endpoint."""
    reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
    return _StreamEndpoint(reader, writer)
