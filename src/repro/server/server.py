"""The asyncio serving tier: three surfaces behind one middleware chain.

:class:`ReproServer` puts the in-process platform behind a concurrent
API.  Three surfaces, all gated by the same
:class:`~repro.server.middleware.MiddlewareChain`:

- **ingest** — upload batches feed :meth:`repro.apisense.hive.Hive.
  receive_upload` (or the federation router's data plane), and the
  response maps the pipeline's accept/reject/drop/spill counters back
  to the uploading connection — backpressure is an API status, not a
  silent shed;
- **query** — federated batch reads: :meth:`repro.federation.query.
  FederatedDataset.aggregate` and the privacy tier's
  :meth:`~repro.federation.query.FederatedDataset.secure_aggregate`,
  request/response;
- **channel** — the live dashboard: sessions subscribe to streaming
  views and the server pushes every closing
  :class:`~repro.streams.views.WindowSnapshot` (and
  :class:`~repro.streams.queries.StreamAlert`) to every matching
  subscriber, **exactly once per subscriber per window close**, with
  optional late-subscriber catch-up from the engine's retained history.
  Per-subscriber send queues are bounded; a slow consumer loses the
  *oldest* queued pushes, counted per subscription — never silently.

Every inbound frame — handshake, request, channel message — is answered
by :meth:`ReproServer._answer` (validate, run the chain, map the outcome
to the reply).  Every push — window, alert, alert gap, metrics frame,
SLO transition — takes one path: subscription -> its cursor (is this
event new to it?) -> :meth:`~repro.server.sessions.Session.push` (the
envelope) -> bounded queue -> ready list -> one delivery pass per loop
turn -> :meth:`~repro.server.transport.Endpoint.try_send`, with a
sender task only while a transport pushes back.  An event's body is
built once and shared by all its subscribers, read-only.

The platform itself stays on the deterministic simulator clock: window
closes happen synchronously inside simulator events and only *enqueue*
pushes; the delivery pass (and any sender under backpressure) runs
between simulation slices — :meth:`ReproServer.drive` interleaves the
two.
Tests and benchmarks run the whole protocol over the socketless
:class:`~repro.server.transport.InProcessTransport`; a deployment binds
the identical protocol to TCP via :meth:`ReproServer.serve_tcp`.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro import obs as _obs
from repro.errors import ReproError, ServerError
from repro.obs.instruments import ServerInstruments
from repro.server.middleware import (
    ChannelMessage,
    ChainResult,
    ConnectRequest,
    Deny,
    MiddlewareChain,
    Ok,
    Redirect,
    ServerMiddleware,
    ServerRequest,
)
from repro.server.protocol import (
    NUMBER,
    aggregate_digest,
    alert_digest,
    decode_record,
    secure_aggregate_digest,
    snapshot_digest,
    wire_field,
)
from repro.server.sessions import Session, Subscription
from repro.server.transport import (
    Endpoint,
    InProcessTransport,
    Message,
    serve_tcp,
)
from repro.streams.engine import StreamEngine
from repro.streams.views import WindowSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.hive import Hive
    from repro.federation.router import FederationRouter
    from repro.federation.streams import FederatedStreamMerger
    from repro.federation.timeseries import FederationScraper
    from repro.obs.slo import SLODefinition, SLOTracker
    from repro.obs.timeseries import MetricsScraper, ScrapeFrame
    from repro.simulation import Simulator

#: ``parse`` of :meth:`ReproServer._answer`: -> (hook payload, terminal handler).
_Parse = Callable[[], "tuple[dict[str, Any], Callable[[], Any]]"]

#: The request surfaces the middleware chain's ``request`` hook gates.
#: ``obs`` is the observability surface: registry exposition, hot-path
#: table, trace browsing (read-only; auth scopes gate it like any other).
SURFACES = ("ingest", "query", "obs")


@dataclass
class ServerStats:
    """Counters of one serving tier (monotonic; see :meth:`ReproServer.metrics`)."""

    connections: int = 0
    sessions_closed: int = 0
    denials_connect: int = 0
    denials_request: int = 0
    denials_channel: int = 0
    redirects: int = 0
    requests_ingest: int = 0
    requests_query: int = 0
    requests_obs: int = 0
    channel_messages: int = 0
    subscriptions_total: int = 0
    #: Window-snapshot + metrics-frame pushes enqueued.  Alert, gap and SLO
    #: pushes have their own fields; the registry's ``enqueued`` has them all.
    pushes_enqueued: int = 0
    catchup_snapshots: int = 0
    alerts_pushed: int = 0
    alert_gaps: int = 0
    merged_windows: int = 0
    watches_total: int = 0
    obs_frames_pushed: int = 0
    obs_alerts_pushed: int = 0

    @property
    def denials(self) -> int:
        """Middleware denials across all three hooks."""
        return self.denials_connect + self.denials_request + self.denials_channel


class ReproServer:
    """The serving tier over one Hive — or a whole federation.

    Exactly one of ``hive`` / ``router`` / ``engine`` anchors the
    server:

    - ``hive`` — ingest feeds the hive's pipeline, queries read its
      store, the channel pushes its stream engine's windows;
    - ``router`` — ingest routes through the federation's placement
      ring, queries fan out over every member store, and the channel
      pushes **merged** federation-wide windows (one push per window,
      folded across members once every member closed it);
    - ``engine`` — channel-only (the CLI's replay dashboards).

    ``middlewares`` run outermost-first on every surface.
    ``queue_capacity`` bounds each session's push queue (the
    slow-consumer valve).
    """

    def __init__(
        self,
        hive: "Hive | None" = None,
        *,
        router: "FederationRouter | None" = None,
        engine: StreamEngine | None = None,
        sim: "Simulator | None" = None,
        middlewares: Sequence[ServerMiddleware] = (),
        queue_capacity: int = 256,
        scraper: "MetricsScraper | FederationScraper | None" = None,
        slos: "SLOTracker | Sequence[SLODefinition] | None" = None,
    ):
        anchors = sum(x is not None for x in (hive, router, engine))
        if anchors != 1:
            raise ServerError(
                "anchor the server on exactly one of hive=, router=, engine="
            )
        self._hive = hive
        self._router = router
        self._merger: "FederatedStreamMerger | None" = None
        if hive is not None:
            self._sim = sim or hive.sim
            self._engines = {"local": hive.streams}
        elif router is not None:
            from repro.federation.streams import FederatedStreamMerger

            self._sim = sim or router.sim
            self._engines = {
                name: router.hive(name).streams for name in router.member_names
            }
            self._merger = FederatedStreamMerger(self._engines)
        else:
            assert engine is not None
            self._sim = sim
            self._engines = {"local": engine}
        self.chain = MiddlewareChain(middlewares)
        self.queue_capacity = queue_capacity
        self.stats = ServerStats()
        self.obs = ServerInstruments(
            _obs.metrics_registry(), _obs.next_instance("server")
        )
        # Live levels: read the server's own properties at scrape time.
        self.obs.sessions.set_function(lambda: self.sessions_active)
        self.obs.subscriptions.set_function(lambda: self.subscriptions_active)
        self._tracer = _obs.tracer()
        self._sessions: dict[int, Session] = {}
        #: Sessions with pushes for this loop turn's delivery pass.
        self._ready: list[Session] = []
        #: Federated dedup: newest merged window end pushed per (task, view).
        self._merged_done: dict[tuple[str, str], float] = {}
        for name, eng in self._engines.items():
            eng.on_window(lambda s, member=name: self._on_member_window(member, s))
        #: Metrics-over-time feed: a scraper (single-hive MetricsScraper
        #: or a federation rollup) whose frames drive the ``obs watch``
        #: channel, plus an SLO tracker evaluated at every frame.
        self._scraper = scraper
        self._slo_tracker: "SLOTracker | None" = None
        if slos is not None:
            from repro.obs.slo import SLOTracker
            if isinstance(slos, SLOTracker):
                self._slo_tracker = slos
            else:
                if scraper is None:
                    raise ServerError("slos= needs a scraper= to evaluate against")
                self._slo_tracker = SLOTracker(scraper.store, slos)
        if scraper is not None:
            # A federation rollup exposes on_rollup (merged frames);
            # a plain scraper exposes on_frame.
            subscribe = getattr(scraper, "on_rollup", None) or scraper.on_frame
            subscribe(self._on_scrape_frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def clock(self) -> float:
        """The server clock: the deployment's simulated time."""
        return self._sim.now if self._sim is not None else 0.0

    @property
    def sessions_active(self) -> int:
        return len(self._sessions)

    @property
    def subscriptions_active(self) -> int:
        return sum(len(s.subscriptions) for s in self._sessions.values())

    @property
    def pushes_sent(self) -> int:
        """Pushes that reached a transport (live sessions + closed ones)."""
        return self.obs.push_totals["sent"]

    @property
    def pushes_dropped(self) -> int:
        """Pushes that never will: slow-consumer evictions and teardown losses."""
        return self.obs.push_totals["dropped"]

    @property
    def pushes_queued(self) -> int:
        """Pushes enqueued toward live sessions but not yet sent."""
        return sum(s.pushes_queued for s in self._sessions.values())

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def connect_in_process(self, client_capacity: int = 0) -> Endpoint:
        """A socketless connection: returns the **client** endpoint.

        The server side runs as a background task on the current loop.
        ``client_capacity`` bounds a raw endpoint's unread inbox to
        emulate a slow consumer (0 = unbounded); a
        :class:`~repro.server.client.ServerClient` receives each message
        on arrival, so it has no inbox to fill.
        """
        transport = InProcessTransport(client_capacity=client_capacity)
        asyncio.get_running_loop().create_task(
            self.handle_endpoint(transport.server_end)
        )
        return transport.client_end

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Bind the identical protocol to TCP (JSON-lines framing).

        Returns the listening ``asyncio`` server; ``port=0`` picks a
        free port, readable from ``sockets[0].getsockname()[1]``.
        """
        return await serve_tcp(self.handle_endpoint, host=host, port=port)

    async def handle_endpoint(self, endpoint: Endpoint) -> None:
        """One connection's full lifecycle: handshake, loop, teardown."""
        self.stats.connections += 1
        session = Session(
            endpoint,
            clock=self.clock,
            queue_capacity=self.queue_capacity,
            instruments=self.obs,
        )
        try:
            if not await self._handshake(session, endpoint):
                return
            self._sessions[session.session_id] = session
            self._loop = asyncio.get_running_loop()
            session.on_ready = self._on_ready
            try:
                await self._serve_session(session, endpoint)
            finally:
                self._sessions.pop(session.session_id, None)
                self.stats.sessions_closed += 1
        finally:
            await session.close()

    async def _answer(self, session: Session, hook: str, parse: _Parse) -> Message:
        """Run one interaction through the middleware chain; map its outcome.

        The one place ``Ok`` / ``Deny`` / ``Redirect`` / ``ReproError``
        become reply fields — handshake, request and channel message
        alike — and the one place a denial or redirect is counted.
        ``parse`` validates the inbound frame (a malformed one is
        answered, it never ends the session) and returns the hook's
        payload and the terminal handler.
        """
        try:
            payload, handle = parse()

            async def terminal() -> ChainResult:
                return Ok(handle())

            result = await self.chain.run(hook, session, terminal, **payload)
        except ReproError as error:
            return {"status": "error", "error": str(error)}
        if isinstance(result, Deny):
            where = hook.removesuffix("_message")
            counter = f"denials_{where}"
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self.obs.denial(where).inc()
            return {"status": "deny", "reason": result.reason}
        if isinstance(result, Redirect):
            self.stats.redirects += 1
            return {"status": "redirect", "target": result.target}
        return {"status": "ok", "payload": result.payload}

    async def _handshake(self, session: Session, endpoint: Endpoint) -> bool:
        first = await endpoint.recv()
        if first is None:
            return False

        def parse():
            if not isinstance(first, dict) or first.get("type") != "connect":
                raise ServerError("handshake must be a connect message")
            headers = wire_field(first, "headers", dict, {})
            return {"request": ConnectRequest(headers, endpoint.remote)}, lambda: None

        reply = await self._answer(session, "connect", parse)
        status = reply.pop("status")
        if status == "ok":
            reply = {"type": "connected", "session_id": session.session_id}
        elif status == "error":  # a malformed handshake is refused too
            reply = {"type": "deny", "reason": reply["error"]}
        else:
            reply = {"type": status, **reply}
        await endpoint.send(reply)
        return status == "ok"

    async def _serve_session(self, session: Session, endpoint: Endpoint) -> None:
        while True:
            try:
                frame = await endpoint.recv()
            except ServerError as error:  # an unreadable line is answered too
                reply = {"type": "response", "id": None, "status": "error"}
                await endpoint.send({**reply, "error": str(error)})
                continue
            if frame is None:
                return
            if not isinstance(frame, dict):  # no type: _on_request answers it
                frame = {"type": f"{type(frame).__name__} (a frame is a JSON object)"}
            kind = frame.get("type")
            if kind == "close":
                return
            on_frame = self._on_channel if kind == "channel" else self._on_request
            await endpoint.send(await on_frame(session, frame))

    # ------------------------------------------------------------------
    # Request surfaces (ingest / query / obs)
    # ------------------------------------------------------------------

    async def _on_request(self, session: Session, frame: Message) -> Message:
        kind, surface = frame.get("type"), frame.get("surface", "")
        known = kind == "request" and surface in SURFACES
        timed = known and self.obs.registry.enabled
        started = time.perf_counter() if timed else 0.0

        def parse():
            if kind != "request":
                raise ServerError(f"unknown message type {kind!r}")
            if not known:
                raise ServerError(f"unknown surface {surface!r}")
            request = ServerRequest(
                surface=surface,
                action=wire_field(frame, "action", str, ""),
                payload=wire_field(frame, "payload", dict, {}),
            )

            def handle() -> Message:
                if surface == "ingest":
                    self.stats.requests_ingest += 1
                    return self._handle_ingest(session, request)
                if surface == "obs":
                    self.stats.requests_obs += 1
                    return self._handle_obs(request)
                self.stats.requests_query += 1
                return self._handle_query(request)

            return {"request": request}, handle

        reply = await self._answer(session, "request", parse)
        if known:
            self.obs.request(surface).inc()
            if timed:
                self.obs.request_seconds(surface).observe(
                    time.perf_counter() - started
                )
        return {"type": "response", "id": frame.get("id"), **reply}

    def _handle_ingest(self, session: Session, request: ServerRequest) -> Message:
        """Upload surface: decode, submit, map backpressure to the reply."""
        if self._hive is None and self._router is None:
            raise ServerError("this server exposes no ingest surface")
        payload = request.payload
        device_id = wire_field(payload, "device_id", str)
        user = wire_field(payload, "user", str)
        task = wire_field(payload, "task", str)
        rows = wire_field(payload, "records", list)  # decode_record checks each row
        if None in (device_id, user, task, rows):
            raise ServerError("upload payload lacks device_id, user, task or records")
        records = [decode_record(row, device_id, user, task) for row in rows]

        pipelines = (
            [self._hive.pipeline]
            if self._hive is not None
            else [
                self._router.hive(name).pipeline
                for name in self._router.member_names
            ]
        )
        before = [
            (p.stats.rejected, p.stats.dropped, p.stats.spilled)
            for p in pipelines
        ]
        if self._hive is not None:
            member = "local"
            accepted = self._hive.receive_upload(device_id, user, task, records)
        else:
            member, accepted = self._router.route_upload(
                device_id, user, task, records
            )
        rejected = dropped = spilled = 0
        for pipeline, (r0, d0, s0) in zip(pipelines, before):
            rejected += pipeline.stats.rejected - r0
            dropped += pipeline.stats.dropped - d0
            spilled += pipeline.stats.spilled - s0
        # Per-connection backpressure accounting rides in the session
        # state so middlewares (and the session's owner) can see it.
        for key, delta in (
            ("ingest.accepted", accepted),
            ("ingest.rejected", rejected),
            ("ingest.dropped", dropped),
            ("ingest.spilled", spilled),
        ):
            session.state[key] = session.state.get(key, 0) + delta
        return {
            "member": member,
            "accepted": accepted,
            "rejected": rejected,
            "dropped": dropped,
            "spilled": spilled,
            "status": "backpressure" if (rejected or dropped) else "ok",
        }

    def _federated(self):
        from repro.federation.query import FederatedDataset

        if self._router is not None:
            return FederatedDataset.from_router(self._router)
        if self._hive is not None:
            return FederatedDataset({"local": self._hive.store})
        raise ServerError("this server exposes no query surface")

    def _handle_query(self, request: ServerRequest) -> Message:
        """Query surface: federated aggregate / secure_aggregate / tasks."""
        federated = self._federated()
        payload = request.payload
        if request.action == "tasks":
            return {"tasks": federated.tasks}
        task = wire_field(payload, "task", str)
        if not task:
            raise ServerError(f"query action {request.action!r} needs a 'task'")
        if request.action == "aggregate":
            return aggregate_digest(federated.aggregate(task))
        if request.action == "secure_aggregate":
            kwargs = {"rng": random.Random(task)}
            bin_edges = wire_field(payload, "bin_edges", list, of=NUMBER)
            if bin_edges is not None:
                kwargs["bin_edges"] = [float(e) for e in bin_edges]
            if self._hive is not None:
                kwargs["profiles"] = self._hive.secure_participants(task)
            return secure_aggregate_digest(
                federated.secure_aggregate(task, **kwargs)
            )
        raise ServerError(f"unknown query action {request.action!r}")

    def _handle_obs(self, request: ServerRequest) -> Message:
        """Observability surface: registry dump / hot paths / traces.

        Read-only by construction — it reports on the process-wide
        registry and trace log, never mutates them — so middlewares can
        expose it to low-privilege dashboards safely.
        """
        payload = request.payload
        if request.action == "dump":
            return {"format": "prometheus", "text": _obs.render_prometheus()}
        if request.action == "top":
            limit = wire_field(payload, "limit", int, 10)
            return {"stages": [t.to_dict() for t in _obs.hot_paths()[:limit]]}
        if request.action == "trace":
            log = _obs.tracer().log
            trace_id = wire_field(payload, "trace_id", int)
            if trace_id is None:
                return {
                    "trace_ids": log.trace_ids(),
                    "spans": log.total,
                    "dropped": log.dropped,
                }
            from repro.obs.tracing import trace_tree

            return {
                "trace_id": trace_id,
                "spans": [
                    {"depth": depth, **span.to_dict()}
                    for depth, span in trace_tree(log, trace_id)
                ],
            }
        if request.action == "history":
            if self._scraper is None:
                raise ServerError("this server has no metrics scraper")
            return self._scraper.store.history(
                wire_field(payload, "name", str),
                labels=wire_field(payload, "labels", dict),
                window=wire_field(payload, "window", NUMBER),
            )
        if request.action == "slo":
            if self._slo_tracker is None:
                raise ServerError("this server tracks no SLOs")
            return self._slo_tracker.to_dict()
        raise ServerError(f"unknown obs action {request.action!r}")

    # ------------------------------------------------------------------
    # Channel surface (streaming dashboard)
    # ------------------------------------------------------------------

    async def _on_channel(self, session: Session, frame: Message) -> Message:
        self.stats.channel_messages += 1

        def parse():
            message = ChannelMessage(
                action=wire_field(frame, "action", str, ""),
                payload=wire_field(frame, "payload", dict, {}),
            )
            return {"message": message}, lambda: self._handle_channel(session, message)

        reply = await self._answer(session, "channel_message", parse)
        return {"type": "channel_reply", "id": frame.get("id"), **reply}

    def _handle_channel(self, session: Session, message: ChannelMessage) -> Message:
        payload = message.payload
        if message.action == "subscribe":
            view = wire_field(payload, "view", str)
            if not any(view in engine.views for engine in self._engines.values()):
                raise ServerError(f"cannot subscribe to unknown view {view!r}")
            tasks = wire_field(payload, "tasks", list, of=str)
            subscription = session.subscribe(
                view,
                tasks=frozenset(tasks) if tasks is not None else None,
                alerts=bool(payload.get("alerts", False)),
            )
            self.stats.subscriptions_total += 1
            caught_up = 0
            if payload.get("catch_up", False):
                caught_up = self._catch_up(session, subscription)
            return {
                "subscription": subscription.subscription_id,
                "view": view,
                "catchup": caught_up,
            }
        if message.action == "watch":
            if self._scraper is None:
                raise ServerError("this server has no metrics scraper to watch")
            watch = session.subscribe(
                None,
                alerts=bool(payload.get("slo", True)),
                names=tuple(wire_field(payload, "names", list, (), of=str)),
            )
            self.stats.subscriptions_total += 1
            self.stats.watches_total += 1
            return {
                "subscription": watch.subscription_id,
                "names": list(watch.names),
                "slo": watch.alerts,
            }
        if message.action == "unsubscribe":
            subscription_id = wire_field(payload, "subscription", int, 0)
            session.unsubscribe(subscription_id)
            return {"unsubscribed": subscription_id}
        raise ServerError(f"unknown channel action {message.action!r}")

    def _retained_snapshots(self, view: str) -> list[WindowSnapshot]:
        """Retained history for catch-up, oldest first (merged if federated)."""
        snapshots: list[WindowSnapshot] = []
        if self._merger is not None:
            for task in self._merger.tasks:
                try:
                    snapshots.extend(self._merger.history(task, view))
                except ReproError:  # pragma: no cover - defensive
                    continue
        else:
            engine = next(iter(self._engines.values()))
            for task in engine.tasks:
                snapshots.extend(engine.snapshots(task, view))
        snapshots.sort(key=lambda s: (s.end, s.task))
        return snapshots

    def _catch_up(self, session: Session, subscription: Subscription) -> int:
        """Replay the retained history into a late subscription.

        Through the live path's own cursor, so a replayed window is
        skipped when it closes again: each window once, not twice.
        """
        caught_up = sum(
            self._push_window(snapshot, [(session, subscription)], catchup=True)
            for snapshot in self._retained_snapshots(subscription.view)
        )
        self.stats.catchup_snapshots += caught_up
        return caught_up

    # ------------------------------------------------------------------
    # Push path (every fan-out is synchronous, inside sim events)
    # ------------------------------------------------------------------

    def _on_ready(self, session: Session) -> None:
        """A push landed in ``session``'s empty queue: deliver it this turn."""
        if not self._ready:
            self._loop.call_soon(self._deliver)
        self._ready.append(session)

    def _deliver(self) -> None:
        """The loop turn's one delivery pass: ready queues -> transports."""
        ready, self._ready = self._ready, []
        for session in ready:
            session.flush()

    def _subscribers(self) -> Iterator[tuple[Session, Subscription]]:
        """Every live (session, subscription) pair."""
        for session in self._sessions.values():
            for subscription in session.subscriptions.values():
                yield session, subscription

    def _push_window(
        self,
        snapshot: WindowSnapshot,
        subscribers: Iterable[tuple[Session, Subscription]],
        catchup: bool = False,
    ) -> int:
        """Push one closed window to those of ``subscribers`` it is new to."""
        key = ("window", snapshot.task)
        body = None
        pushed = 0
        for session, subscription in subscribers:
            if not subscription.matches(snapshot.task, snapshot.view):
                continue
            if not subscription.advance(key, snapshot.end):
                continue
            if body is None:
                body = snapshot_digest(snapshot)
            if session.push(subscription, "snapshot", body, catchup=catchup):
                subscription.snapshots_pushed += 1
                pushed += 1
        self.stats.pushes_enqueued += pushed
        return pushed

    def _on_member_window(self, member: str, snapshot: WindowSnapshot) -> None:
        """Engine window-close callback: fan out to matching subscribers."""
        if self._merger is None:
            self._fan_out(snapshot)
        else:
            self._fan_out_merged(snapshot.task, snapshot.view)
        self._fan_alerts(member, self._engines[member])

    def _fan_out(self, snapshot: WindowSnapshot) -> None:
        timed = self.obs.registry.enabled
        started = time.perf_counter() if timed else 0.0
        with self._tracer.span(
            "server.push",
            task=snapshot.task,
            view=snapshot.view,
            start=snapshot.start,
            end=snapshot.end,
        ) as handle:
            handle.set(subscribers=self._push_window(snapshot, self._subscribers()))
        if timed:
            self.obs.push_seconds.observe(time.perf_counter() - started)

    def _fan_out_merged(self, task: str, view: str) -> None:
        """Push federation-merged windows once every member closed them."""
        assert self._merger is not None
        boundary = self._merger.common_boundary(task, view)
        if boundary is None:
            return
        done = self._merged_done.get((task, view), float("-inf"))
        if boundary <= done:
            return
        ends: set[float] = set()
        for engine in self._engines.values():
            if view not in engine.views:
                continue
            ends.update(
                s.end
                for s in engine.snapshots(task, view)
                if done < s.end <= boundary
            )
        for end in sorted(ends):
            merged = self._merger.merged(task, view, end=end)
            self.stats.merged_windows += 1
            self._fan_out(merged)
        self._merged_done[(task, view)] = boundary

    def _fan_alerts(self, member: str, engine: StreamEngine) -> None:
        """Deliver fresh alerts; evicted-before-delivery ones become gaps."""
        log = engine.alerts
        total = log.total
        key = ("alerts", member)
        retained = None  # fetched lazily, once per call
        bodies: dict[int, Message] = {}  # one digest per alert, not per subscriber
        for session, subscription in self._subscribers():
            if subscription.view is None or not subscription.alerts:
                continue
            seen = subscription.cursor.get(key, 0)
            if not subscription.advance(key, total):
                continue
            if retained is None:
                retained = log.alerts()
            fresh = min(total - seen, len(retained))
            missed = total - seen - fresh
            if missed > 0:
                # The bounded log evicted alerts this subscriber
                # never saw: the gap is pushed, not swallowed.
                self.stats.alert_gaps += missed
                session.push(subscription, "alert_gap", source=member, missed=missed)
            for index in range(len(retained) - fresh, len(retained)):
                alert = retained[index]
                if not subscription.matches(alert.task, alert.view):
                    continue
                if index not in bodies:
                    bodies[index] = alert_digest(alert)
                if session.push(subscription, "alert", bodies[index], source=member):
                    self.stats.alerts_pushed += 1

    def _on_scrape_frame(self, frame: "ScrapeFrame") -> None:
        """Scraper frame callback: evaluate SLOs, push to the metrics feed.

        Exactly once, as for windows: one frame push per scrape time,
        one alert push per tracker sequence number, per subscription.
        """
        tracker = self._slo_tracker
        transitions = tracker.evaluate(frame.t) if tracker is not None else []
        frames: dict[tuple[str, ...], Message] = {}  # one digest per names filter
        alerts = [(alert.seq, alert.to_dict()) for alert in transitions]
        for session, watch in self._subscribers():
            if watch.view is not None:
                continue
            if watch.advance("frame", frame.t):
                if watch.names not in frames:
                    frames[watch.names] = frame.digest(watch.names)
                if session.push(watch, "obs_frame", frames[watch.names]):
                    self.stats.pushes_enqueued += 1
                    self.stats.obs_frames_pushed += 1
            if not watch.alerts:
                continue
            for seq, body in alerts:
                if watch.advance("slo", seq) and session.push(watch, "obs_alert", body):
                    self.stats.obs_alerts_pushed += 1

    # ------------------------------------------------------------------
    # Driving a simulated deployment
    # ------------------------------------------------------------------

    async def drive(
        self,
        until: float,
        slice_seconds: float = 60.0,
        sim: "Simulator | None" = None,
    ) -> None:
        """Advance the simulation to ``until``, draining pushes between slices.

        The simulator is synchronous — window closes (and therefore push
        enqueues) happen inside its events.  Slicing its advance and
        yielding to the event loop between slices lets the delivery pass
        and the clients run concurrently with the simulated platform,
        which is what makes 1k live dashboard sessions possible without
        threads.
        """
        simulator = sim or self._sim
        if simulator is None:
            raise ServerError("no simulator to drive; pass sim=")
        if slice_seconds <= 0:
            raise ServerError(f"slice must be positive: {slice_seconds}")
        now = simulator.now
        while now < until:
            now = min(until, now + slice_seconds)
            simulator.run_until(now)
            await asyncio.sleep(0)

    async def drain(self) -> None:
        """Wait until every live session's push queue reached its transport."""
        while any(s.pushes_queued for s in self._sessions.values()):
            await asyncio.sleep(0)
