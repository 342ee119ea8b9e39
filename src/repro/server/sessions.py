"""Server sessions: per-connection state, subscriptions, the one push path.

One :class:`Session` lives for one authenticated connection.  It owns

- the middleware-visible mutable ``state`` dict (auth principal, rate
  windows... private to the connection);
- the connection's :class:`Subscription`\\ s — streaming views and the
  metrics feed are the same type in the same map;
- a bounded **push queue** between the event path and the connection's
  transport.

Every push takes one path: the subscription's cursor
(:meth:`Subscription.advance`) says whether the event is new to it,
:meth:`Session.push` builds the envelope and enqueues it (the first push
into an empty queue puts the session on the server's ready list), and
the server's one delivery pass per loop turn hands it on through
:meth:`Session.flush` -> ``Endpoint.try_send``.  A **sender task**
exists only while the transport pushes back, and exits once the backlog
is gone.  An event's body is built once and **shared between all its
subscribers** — read-only once pushed (in-process clients receive the
same object).

The push queue is the slow-consumer valve: events enqueue instantly
(the simulation must never block on a laggard dashboard), and when a
subscriber cannot keep up the **oldest queued push is evicted** —
counted per session and per subscription (``pushes_dropped``), never
silent, so every consumer can reconcile ``received + dropped ==
emitted``.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.errors import ServerError
from repro.server.transport import Endpoint, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instruments import ServerInstruments

_session_ids = itertools.count(1)
_subscription_ids = itertools.count(1)

#: Push kinds that carry a body, and the envelope key it travels under.
#: (``alert_gap`` is a bare notice, without one.)
_BODY_KEY = {
    "snapshot": "snapshot",
    "alert": "alert",
    "obs_frame": "frame",
    "obs_alert": "alert",
}


@dataclass
class Subscription:
    """One session's standing subscription: a streaming view or the metrics feed."""

    subscription_id: int
    view: str | None  #: None = the metrics feed (``obs watch``)
    tasks: frozenset[str] | None = None  #: None = every task the view tracks
    #: Also push alerts: the view's StreamAlerts / the feed's SLO transitions.
    alerts: bool = False
    #: Metrics feed only: series-name prefixes to include (() = all).
    names: tuple[str, ...] = ()
    #: Exactly-once guard, one monotone position per event stream: newest
    #: window end per task, scrape time, SLO sequence number, alert-log
    #: total per member.
    cursor: dict[Hashable, float] = field(default_factory=dict)
    snapshots_pushed: int = 0
    pushes_dropped: int = 0

    def matches(self, task: str, view: str) -> bool:
        return view == self.view and (self.tasks is None or task in self.tasks)

    def advance(self, key: Hashable, position: float) -> bool:
        """True exactly once per ``key`` as ``position`` grows — the dedup guard."""
        if position <= self.cursor.get(key, float("-inf")):
            return False
        self.cursor[key] = position
        return True


class PushQueue:
    """Bounded FIFO between window closes and a session's transport.

    ``put`` is synchronous (callable from the simulator's window-close
    callbacks); overflow evicts the **oldest** queued item and returns
    it so the caller can account the drop.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ServerError(f"push queue capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._items: deque[Message] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Message) -> Optional[Message]:
        """Enqueue; returns the evicted oldest item on overflow (else None)."""
        dropped = None
        if len(self._items) >= self.capacity:
            dropped = self._items.popleft()
        self._items.append(item)
        return dropped

    def popleft(self) -> Message:
        return self._items.popleft()

    def clear(self) -> list[Message]:
        """Drop and return everything still queued (session teardown)."""
        items = list(self._items)
        self._items.clear()
        return items


class Session:
    """One live connection's server-side state."""

    def __init__(
        self,
        endpoint: Endpoint,
        clock: Callable[[], float],
        queue_capacity: int = 256,
        instruments: "ServerInstruments | None" = None,
    ):
        self.session_id = next(_session_ids)
        self.endpoint = endpoint
        self._clock = clock
        #: The owning server's tally, where every push outcome is counted
        #: beside the session's own (a bare session counts only on itself).
        self._count_on_server: Callable[[str], None] = (
            instruments.count_push if instruments is not None else lambda outcome: None
        )
        #: Middleware-visible mutable state, private to this connection.
        self.state: dict[str, Any] = {}
        self.subscriptions: dict[int, Subscription] = {}
        self.queue = PushQueue(queue_capacity)
        self.pushes_sent = 0
        self.pushes_dropped = 0
        self.closed = False
        #: Waits on a transport that pushed back; None the rest of the time.
        self._sender: asyncio.Task | None = None
        #: A push landed in the empty queue (the server hooks its ready list).
        self.on_ready: Callable[[Session], None] = (
            lambda session: asyncio.get_running_loop().call_soon(session.flush)
        )

    @property
    def now(self) -> float:
        """The server clock (the deployment's simulated time)."""
        return self._clock()

    @property
    def pushes_queued(self) -> int:
        """Pushes enqueued but not yet sent (a running sender holds one)."""
        return len(self.queue) + (self._sender is not None)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self,
        view: str | None,
        tasks: frozenset[str] | None = None,
        alerts: bool = False,
        names: tuple[str, ...] = (),
    ) -> Subscription:
        """Subscribe to a streaming view, or (``view=None``) the metrics feed."""
        subscription = Subscription(
            next(_subscription_ids), view, tasks=tasks, alerts=alerts, names=names
        )
        self.subscriptions[subscription.subscription_id] = subscription
        return subscription

    def unsubscribe(self, subscription_id: int) -> Subscription:
        if subscription_id not in self.subscriptions:
            raise ServerError(f"unknown subscription {subscription_id}")
        return self.subscriptions.pop(subscription_id)

    # ------------------------------------------------------------------
    # Push path
    # ------------------------------------------------------------------

    def push(
        self, subscription: Subscription, kind: str, body: Any = None, **header: Any
    ) -> bool:
        """Enqueue one push toward this session (never blocks).

        The only place a push envelope is built: ``header`` fields, then
        — for the kinds that carry one — the ``body``, which every
        subscriber of the event shares and none may mutate.  Returns
        False when the session is closed.  On overflow the oldest queued
        push is evicted and counted dropped.
        """
        if self.closed:
            return False
        message: Message = {
            "type": "push",
            "kind": kind,
            "subscription": subscription.subscription_id,
            **header,
        }
        if body is not None:
            message[_BODY_KEY[kind]] = body
        if not self.queue and self._sender is None:
            self.on_ready(self)
        evicted = self.queue.put(message)
        self._count_on_server("enqueued")
        if evicted is not None:
            self._dropped(evicted)
        return True

    def _dropped(self, message: Message) -> None:
        """Count one push that will never reach the transport.

        Every way to lose one ends here (eviction, a transport closed
        under the sender, teardown with pushes queued or in flight), on
        the session, its subscription while still subscribed, and the
        server together — so ``enqueued = sent + dropped + queued``
        stays exact.
        """
        self.pushes_dropped += 1
        victim = self.subscriptions.get(message["subscription"])
        if victim is not None:
            victim.pushes_dropped += 1
        self._count_on_server("dropped")

    def flush(self) -> None:
        """Hand queued pushes to the transport; a refused one starts the
        sender task, which then owns the queue until it is empty."""
        while self.queue and self._sender is None:
            message = self.queue.popleft()
            try:
                if not self.endpoint.try_send(message):
                    self._sender = asyncio.get_running_loop().create_task(
                        self._send_backlog(message)
                    )
                    return
            except ServerError:  # the endpoint closed under us
                self._dropped(message)
                return
            self.pushes_sent += 1
            self._count_on_server("sent")

    async def _send_backlog(self, message: Message) -> None:
        try:
            while True:
                await self.endpoint.send(message)
                self.pushes_sent += 1
                self._count_on_server("sent")
                if not self.queue:
                    return
                message = self.queue.popleft()
        except ServerError:  # the endpoint closed under us
            self._dropped(message)
        except asyncio.CancelledError:  # teardown gave up on it
            self._dropped(message)
            raise
        finally:
            self._sender = None

    async def close(self) -> None:
        """Tear the session down: send what the transport takes, drop the rest."""
        if self.closed:
            return
        self.closed = True
        self.flush()
        sender = self._sender
        if sender is not None:
            try:
                await asyncio.wait_for(sender, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                sender.cancel()
        for message in self.queue.clear():
            self._dropped(message)
        self.subscriptions.clear()
        self.endpoint.close()
