"""``repro.server`` — the asyncio serving tier over the platform.

Puts the in-process crowd-sensing platform behind a concurrent API:
upload ingestion with backpressure mapped to the connection, federated
batch queries, and a live streaming dashboard channel with bounded
per-subscriber push queues — every surface gated by one composable
:class:`ServerMiddleware` chain.  Tests and benchmarks run the full
protocol over the socketless :class:`InProcessTransport`; deployments
bind the identical protocol to TCP.  See
:class:`~repro.server.server.ReproServer` for the architecture.
"""

from repro.server.client import ServerClient, ServerDenied, ServerRedirected
from repro.server.middleware import (
    AuthTokenMiddleware,
    ChannelMessage,
    ConnectRequest,
    Deny,
    MetricsMiddleware,
    MiddlewareChain,
    Ok,
    RateLimitMiddleware,
    Redirect,
    ServerMiddleware,
    ServerRequest,
)
from repro.server.server import ReproServer, ServerStats
from repro.server.sessions import PushQueue, Session, Subscription
from repro.server.transport import (
    Endpoint,
    InProcessTransport,
    connect_tcp,
    serve_tcp,
)

__all__ = [
    "AuthTokenMiddleware",
    "ChannelMessage",
    "ConnectRequest",
    "Deny",
    "Endpoint",
    "InProcessTransport",
    "MetricsMiddleware",
    "MiddlewareChain",
    "Ok",
    "PushQueue",
    "RateLimitMiddleware",
    "Redirect",
    "ReproServer",
    "ServerClient",
    "ServerDenied",
    "ServerMiddleware",
    "ServerRedirected",
    "ServerRequest",
    "ServerStats",
    "Session",
    "Subscription",
    "connect_tcp",
    "serve_tcp",
]
