"""``repro stream``: live windowed views and continuous queries::

    repro stream views  --input raw.csv --window 3600
    repro stream alerts --input raw.csv --rate-below 0.02
    repro stream watch  --input raw.csv --window 3600 --slide 900

``alerts`` exits 1 when any query fired.
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.cli import common

QUERIES = common.flag_group()
QUERIES.add_argument("--rate-below", type=float, help="alert when window rate < rec/s")
QUERIES.add_argument(
    "--coverage-stalled",
    type=int,
    help="alert when N consecutive windows add no new coverage cell",
)
QUERIES.add_argument(
    "--lag-p95-above", type=float, help="alert when ingest-lag p95 > seconds"
)
QUERIES.add_argument(
    "--value-p95-above", type=float, help="alert when value p95 > threshold"
)


def register_queries(args: argparse.Namespace, engine) -> None:
    """The continuous queries the :data:`QUERIES` flags ask for."""
    from repro import streams

    predicates = {
        "rate-below": (args.rate_below, streams.rate_below),
        "coverage-stalled": (args.coverage_stalled, streams.coverage_stalled),
        "lag-p95-above": (
            args.lag_p95_above,
            lambda bound: streams.percentile_above("lag", 0.95, bound),
        ),
        "value-p95-above": (
            args.value_p95_above,
            lambda bound: streams.percentile_above("value", 0.95, bound),
        ),
    }
    for name, (bound, predicate) in predicates.items():
        if bound is not None:
            query = streams.ContinuousQuery(name, predicate(bound))
            engine.register_query("window", query)


def cmd_stream_views(args: argparse.Namespace) -> int:
    """Replay a CSV and print the closed windowed views."""
    live = common.Replay(args)
    live.run()
    engine = live.engine
    stats = engine.stats
    print(
        f"stream: {stats.records_seen} records into {stats.windows_emitted} windows "
        f"({stats.late_records} late, watermark {engine.watermark:.0f}s)"
    )
    for task in engine.tasks:
        for snapshot in engine.snapshots(task, "window")[-args.last :]:
            print("  " + snapshot.to_text())
    return 0


def cmd_stream_alerts(args: argparse.Namespace) -> int:
    """Replay with continuous queries; exit 1 if any fired."""
    live = common.Replay(args)
    register_queries(args, live.engine)
    live.run()
    engine = live.engine
    log = engine.alerts
    print(
        f"continuous queries: {engine.stats.queries_evaluated} evaluations, "
        f"{log.total} alerts ({log.dropped} dropped by the bounded log, "
        f"{log.unacknowledged} unacknowledged)"
    )
    for alert in log.alerts():
        print("  " + alert.to_text())
    return 0 if log.total == 0 else 1


def cmd_stream_watch(args: argparse.Namespace) -> int:
    """Print every window as it closes (live dashboard).

    Each line is a window as the serving tier pushed it to a subscribed
    client (:meth:`repro.cli.common.Replay.watch`), not a read of the
    engine after the replay as in ``stream views``.
    """
    from repro.streams.views import window_text

    pushed: Counter = Counter()  # by push kind

    def show(pushes) -> None:
        for push in pushes:
            pushed[push["kind"]] += 1
            if push["kind"] == "snapshot" and (
                args.limit is None or pushed["snapshot"] <= args.limit
            ):
                print(window_text(push["snapshot"]))

    live = common.Replay(args)
    register_queries(args, live.engine)
    live.watch(lambda client: client.subscribe("window", alerts=True), show)
    engine = live.engine
    print(
        f"watched {engine.stats.windows_emitted} windows over the server channel "
        f"({engine.stats.records_seen} records, "
        f"{pushed['alert']} alerts pushed)"
    )
    for alert in engine.alerts.alerts():
        print("  ALERT " + alert.to_text())
    return 0


def init_subparser(subparsers) -> None:
    verbs = common.command_group(
        subparsers, "stream", "Live windowed views + continuous queries (repro.streams)"
    )
    views = common.command(verbs, "views", cmd_stream_views, common.STREAM)
    views.add_argument("--last", type=int, default=12, help="windows shown per task")
    common.command(verbs, "alerts", cmd_stream_alerts, common.STREAM, QUERIES)
    watch = common.command(verbs, "watch", cmd_stream_watch, common.STREAM, QUERIES)
    watch.add_argument("--limit", type=int, help="stop printing after N windows")
