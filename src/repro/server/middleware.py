"""The serving tier's middleware chain: connect / request / channel hooks.

Every interaction with :class:`~repro.server.server.ReproServer` — the
connection handshake, each ingest/query request, and each message on the
streaming dashboard channel — runs through one composable chain of
:class:`ServerMiddleware` objects before (and after) the terminal
handler executes.  The lifecycle mirrors the ``PulseMiddleware``
connect/message design of production UI middlewares:

- each hook receives the payload, the live ``session`` (whose ``state``
  dict is private to the connection), and an async ``next``
  continuation;
- ``await next()`` passes control down the chain (and ultimately to the
  server's terminal handler); the hook may inspect or replace the
  result on the way back up;
- returning :class:`Deny` or :class:`Redirect` *without* calling
  ``next`` short-circuits the chain — later middlewares and the
  terminal handler never run.

Three hooks cover the server's three surfaces:

==================  =================================================
hook                runs on
==================  =================================================
``connect``         the connection handshake (auth, session setup)
``request``         every ingest / query request
``channel_message``  every dashboard-channel message (subscribe, ack)
==================  =================================================

Shipped in-tree: :class:`AuthTokenMiddleware` (token check at connect +
per-surface scope enforcement), :class:`RateLimitMiddleware` (per-session
token bucket over the server clock), and :class:`MetricsMiddleware`
(counts and log lines, observing downstream outcomes — place it first).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping, Sequence, TYPE_CHECKING

from repro import obs
from repro.errors import ServerError
from repro.obs.instruments import MiddlewareInstruments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.sessions import Session

#: Hook names, in lifecycle order.
HOOKS = ("connect", "request", "channel_message")


# ----------------------------------------------------------------------
# Chain results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Ok:
    """Continue / success: the terminal handler's payload rides along."""

    payload: Any = None


@dataclass(frozen=True)
class Deny:
    """Short-circuit: the caller is refused with ``reason``."""

    reason: str = "denied"


@dataclass(frozen=True)
class Redirect:
    """Short-circuit: the caller should retry against ``target``.

    ``target`` is an opaque address — a federation member name, another
    server's host:port — the client interprets.
    """

    target: str


#: Everything a middleware hook may return.
ChainResult = Ok | Deny | Redirect


# ----------------------------------------------------------------------
# Payload objects the hooks receive
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectRequest:
    """The connection handshake as the ``connect`` hook sees it."""

    headers: Mapping[str, str]
    remote: str = "in-process"


@dataclass(frozen=True)
class ServerRequest:
    """One ingest/query request as the ``request`` hook sees it."""

    surface: str  #: ``"ingest"`` or ``"query"``
    action: str
    payload: Mapping[str, Any]


@dataclass(frozen=True)
class ChannelMessage:
    """One dashboard-channel message as ``channel_message`` sees it."""

    action: str  #: ``"subscribe"``, ``"unsubscribe"``, ``"ack_alerts"``...
    payload: Mapping[str, Any]


# ----------------------------------------------------------------------
# The middleware base class and the chain
# ----------------------------------------------------------------------


class ServerMiddleware:
    """Base class: override any hook; the default passes straight through.

    Hooks are ``async`` and keyword-only, matching the lifecycle
    contract::

        class MyMiddleware(ServerMiddleware):
            async def connect(self, *, request, session, next):
                if not request.headers.get("authorization"):
                    return Deny("no token")
                session.state["user"] = ...
                return await next()

    ``session`` is the live :class:`~repro.server.sessions.Session`;
    its ``state`` dict is private to one connection and shared across
    that connection's hooks and requests.
    """

    async def connect(
        self,
        *,
        request: ConnectRequest,
        session: "Session",
        next: Callable[[], Awaitable[ChainResult]],
    ) -> ChainResult:
        return await next()

    async def request(
        self,
        *,
        request: ServerRequest,
        session: "Session",
        next: Callable[[], Awaitable[ChainResult]],
    ) -> ChainResult:
        return await next()

    async def channel_message(
        self,
        *,
        message: ChannelMessage,
        session: "Session",
        next: Callable[[], Awaitable[ChainResult]],
    ) -> ChainResult:
        return await next()


class MiddlewareChain:
    """An ordered stack of middlewares sharing one calling convention.

    :meth:`run` nests the hooks so the first middleware is outermost:
    it sees the payload first and the result last — exactly the onion
    every HTTP framework builds.  A hook that returns without awaiting
    ``next`` short-circuits everything below it.
    """

    def __init__(self, middlewares: Sequence[ServerMiddleware] = ()):
        for middleware in middlewares:
            if not isinstance(middleware, ServerMiddleware):
                raise ServerError(
                    f"middleware {middleware!r} does not extend ServerMiddleware"
                )
        self._middlewares = tuple(middlewares)

    def __len__(self) -> int:
        return len(self._middlewares)

    @property
    def middlewares(self) -> tuple[ServerMiddleware, ...]:
        return self._middlewares

    async def run(
        self,
        hook: str,
        session: "Session",
        terminal: Callable[[], Awaitable[ChainResult]],
        **payload: Any,
    ) -> ChainResult:
        """Run one hook through the chain down to ``terminal``.

        ``payload`` is the hook's keyword payload (``request=`` or
        ``message=``).  Whatever the outermost hook returns is validated
        to be an :data:`ChainResult`; anything else is a middleware bug
        surfaced as :class:`~repro.errors.ServerError`.
        """
        if hook not in HOOKS:
            raise ServerError(f"unknown middleware hook {hook!r}; one of {HOOKS}")
        # Nested innermost-first out of partials: a closure that calls
        # itself would be a reference cycle per request, and everything
        # it holds would wait for the cyclic collector instead of being
        # freed when the reply is sent.
        proceed = terminal
        for middleware in reversed(self._middlewares):
            proceed = functools.partial(
                getattr(middleware, hook), **payload, session=session, next=proceed
            )
        result = await proceed()
        if not isinstance(result, (Ok, Deny, Redirect)):
            raise ServerError(
                f"middleware hook {hook!r} returned {type(result).__name__}; "
                "hooks must return Ok, Deny or Redirect (or await next())"
            )
        return result


# ----------------------------------------------------------------------
# Shipped middlewares
# ----------------------------------------------------------------------


class AuthTokenMiddleware(ServerMiddleware):
    """Token authentication at connect + per-surface scope enforcement.

    ``tokens`` maps bearer tokens to principal names; a connection
    whose ``authorization`` header is not a known token is denied at the
    handshake.  ``scopes`` (optional) maps principals to the surfaces
    they may touch (``"ingest"``, ``"query"``, ``"channel"``) — a
    request or channel message outside the principal's scopes is denied
    *per call*, so one middleware demonstrably gates all three surfaces.
    """

    def __init__(
        self,
        tokens: Mapping[str, str],
        scopes: Mapping[str, frozenset[str] | set[str]] | None = None,
    ):
        self._tokens = dict(tokens)
        self._scopes = (
            {user: frozenset(surfaces) for user, surfaces in scopes.items()}
            if scopes is not None
            else None
        )

    def _allowed(self, session: "Session", surface: str) -> bool:
        if self._scopes is None:
            return True
        principal = session.state.get("principal")
        return surface in self._scopes.get(principal, frozenset())

    async def connect(self, *, request, session, next):
        token = request.headers.get("authorization")
        principal = self._tokens.get(token or "")
        if principal is None:
            return Deny("invalid token")
        session.state["principal"] = principal
        return await next()

    async def request(self, *, request, session, next):
        if not self._allowed(session, request.surface):
            return Deny(f"principal lacks {request.surface!r} scope")
        return await next()

    async def channel_message(self, *, message, session, next):
        if not self._allowed(session, "channel"):
            return Deny("principal lacks 'channel' scope")
        return await next()


class RateLimitMiddleware(ServerMiddleware):
    """Per-session fixed-window rate limit over the server clock.

    Each session may issue at most ``max_calls`` requests + channel
    messages per ``window_seconds`` of server time (the deployment's
    simulator clock, so limits are deterministic under test).  Excess
    calls are denied; the handshake itself is never limited.
    """

    def __init__(self, max_calls: int, window_seconds: float = 60.0):
        if max_calls < 1:
            raise ServerError(f"rate limit needs >= 1 call: {max_calls}")
        if window_seconds <= 0:
            raise ServerError(f"rate window must be positive: {window_seconds}")
        self.max_calls = max_calls
        self.window_seconds = window_seconds

    def _admit(self, session: "Session") -> bool:
        now = session.now
        start = session.state.setdefault("rate.window_start", now)
        if now - start >= self.window_seconds:
            session.state["rate.window_start"] = now
            session.state["rate.count"] = 0
        count = session.state.get("rate.count", 0)
        if count >= self.max_calls:
            return False
        session.state["rate.count"] = count + 1
        return True

    async def request(self, *, request, session, next):
        if not self._admit(session):
            return Deny(
                f"rate limit: > {self.max_calls} calls per "
                f"{self.window_seconds:.0f}s window"
            )
        return await next()

    async def channel_message(self, *, message, session, next):
        if not self._admit(session):
            return Deny(
                f"rate limit: > {self.max_calls} calls per "
                f"{self.window_seconds:.0f}s window"
            )
        return await next()


class MiddlewareCounters:
    """Registry-backed view of what :class:`MetricsMiddleware` observed.

    Historically a bag of plain ints private to the middleware; the
    counts now live on the shared
    :class:`~repro.obs.registry.MetricsRegistry` (so they appear in the
    platform exposition and the health report), and this view reads
    them back, preserving the ``metrics.counters.requests`` API.
    """

    def __init__(self, instruments: "MiddlewareInstruments"):
        self._obs = instruments

    @property
    def connects(self) -> int:
        return int(self._obs.connects.value)

    @property
    def channel_messages(self) -> int:
        return int(self._obs.channel_messages.value)

    @property
    def denied(self) -> int:
        return int(self._obs.denied.value)

    @property
    def redirected(self) -> int:
        return int(self._obs.redirected.value)

    @property
    def requests(self) -> int:
        return sum(self.by_surface.values())

    @property
    def by_surface(self) -> dict[str, int]:
        """Requests per surface (surfaces never seen are absent)."""
        family = self._obs.registry.family("repro_middleware_requests_total")
        out: dict[str, int] = {}
        for key, child in family.children():
            labels = dict(key)
            if labels.get("instance") != self._obs.instance or not child.value:
                continue
            out[labels["surface"]] = int(child.value)
        return out


class MetricsMiddleware(ServerMiddleware):
    """Counting + logging middleware that observes downstream outcomes.

    Wraps ``next`` and inspects the returned result, so denials and
    redirects issued by *later* middlewares (or the terminal handler)
    are counted too — place it first in the chain.  ``log`` keeps the
    most recent ``log_capacity`` human-readable lines.
    """

    def __init__(self, log_capacity: int = 256):
        self.obs = MiddlewareInstruments(
            obs.metrics_registry(), obs.next_instance("middleware")
        )
        self.counters = MiddlewareCounters(self.obs)
        self.log: list[str] = []
        self._log_capacity = log_capacity

    def _note(self, line: str) -> None:
        self.log.append(line)
        if len(self.log) > self._log_capacity:
            del self.log[0]

    def _observe(self, result: ChainResult, what: str) -> ChainResult:
        if isinstance(result, Deny):
            self.obs.denied.inc()
            self._note(f"DENY {what}: {result.reason}")
        elif isinstance(result, Redirect):
            self.obs.redirected.inc()
            self._note(f"REDIRECT {what} -> {result.target}")
        else:
            self._note(f"OK {what}")
        return result

    async def connect(self, *, request, session, next):
        self.obs.connects.inc()
        return self._observe(await next(), f"connect from {request.remote}")

    async def request(self, *, request, session, next):
        self.obs.request(request.surface).inc()
        return self._observe(
            await next(), f"{request.surface}/{request.action}"
        )

    async def channel_message(self, *, message, session, next):
        self.obs.channel_messages.inc()
        return self._observe(await next(), f"channel/{message.action}")
