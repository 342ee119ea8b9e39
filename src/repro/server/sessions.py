"""Server sessions: per-connection state, subscriptions, the one push path.

One :class:`Session` lives for one authenticated connection.  It owns

- the middleware-visible mutable ``state`` dict (auth principal, rate
  windows... private to the connection);
- the connection's :class:`Subscription`\\ s — streaming views and the
  metrics feed are the same type in the same map;
- a bounded **push queue** between the event path and the connection's
  sender task.

Every push takes one path: the subscription's cursor
(:meth:`Subscription.advance`) says whether the event is new to it,
:meth:`Session.push` builds the envelope and enqueues it, the pump sends
it.  An event's body is built once and **shared between all its
subscribers** — read-only once pushed (in-process clients receive the
same object).

The push queue is the slow-consumer valve: events enqueue instantly
(the simulation must never block on a laggard dashboard), the sender
task drains toward the transport, and when a subscriber cannot keep up
the **oldest queued push is evicted** — counted per session and per
subscription (``pushes_dropped``), never silent, so every consumer can
reconcile ``received + dropped == emitted``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
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
#: (``alert_gap`` is a bare notice: no body, no ``sent_at``.)
_BODY_KEY = {
    "snapshot": "snapshot",
    "alert": "alert",
    "obs_frame": "frame",
    "obs_alert": "alert",
}

#: Queued behind the last push to stop the pump once it has sent them.
_CLOSE: Message = {"type": "_close"}


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
    """Bounded FIFO between window closes and a session's sender task.

    ``put`` is synchronous (callable from the simulator's window-close
    callbacks); overflow evicts the **oldest** queued item and returns
    it so the caller can account the drop.  ``get`` awaits the next
    item.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ServerError(f"push queue capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._items: deque[Message] = deque()
        self._ready = asyncio.Event()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Message) -> Optional[Message]:
        """Enqueue; returns the evicted oldest item on overflow (else None)."""
        dropped = None
        if len(self._items) >= self.capacity:
            dropped = self._items.popleft()
        self._items.append(item)
        self._ready.set()
        return dropped

    def clear(self) -> list[Message]:
        """Drop and return everything still queued (session teardown)."""
        items = list(self._items)
        self._items.clear()
        return items

    async def get(self) -> Message:
        while not self._items:
            self._ready.clear()
            await self._ready.wait()
        return self._items.popleft()


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
        self._sender: asyncio.Task | None = None

    @property
    def now(self) -> float:
        """The server clock (the deployment's simulated time)."""
        return self._clock()

    @property
    def pushes_queued(self) -> int:
        """Pushes enqueued but not yet pumped to the transport."""
        return len(self.queue)

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
        — for the kinds that carry one — the ``sent_at`` stamp and the
        ``body``, which every subscriber of the event shares and none
        may mutate.  Returns False when the session is closed.  On
        overflow the oldest queued push is evicted and counted dropped.
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
            message["sent_at"] = time.perf_counter()
            message[_BODY_KEY[kind]] = body
        evicted = self.queue.put(message)
        self._count_on_server("enqueued")
        if evicted is not None:
            self._dropped(evicted)
        return True

    def _dropped(self, message: Message) -> None:
        """Count one push that will never reach the transport.

        Every way to lose one ends here (eviction, a transport closed
        under the pump, teardown with pushes queued), on the session,
        its subscription while still subscribed, and the server
        together — so ``enqueued = sent + dropped + queued`` stays exact.
        """
        self.pushes_dropped += 1
        victim = self.subscriptions.get(message["subscription"])
        if victim is not None:
            victim.pushes_dropped += 1
        self._count_on_server("dropped")

    def start_sender(self) -> asyncio.Task:
        """Start the drain task: push queue -> transport endpoint."""
        if self._sender is None:
            self._sender = asyncio.get_running_loop().create_task(self._pump())
        return self._sender

    async def _pump(self) -> None:
        while True:
            message = await self.queue.get()
            if message is _CLOSE:
                return
            try:
                await self.endpoint.send(message)
            except ServerError:  # the endpoint closed under us
                self._dropped(message)
                return
            self.pushes_sent += 1
            self._count_on_server("sent")

    async def close(self) -> None:
        """Tear the session down: stop the sender, drop subscriptions."""
        if self.closed:
            return
        self.closed = True
        self.subscriptions.clear()
        if self._sender is not None:
            # The pump sends what is queued ahead of the sentinel; on a
            # full queue the sentinel itself evicts the oldest push.
            evicted = self.queue.put(_CLOSE)
            if evicted is not None:
                self._dropped(evicted)
            try:
                await asyncio.wait_for(self._sender, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._sender.cancel()
        for message in self.queue.clear():
            if message is not _CLOSE:
                self._dropped(message)
        self.endpoint.close()
