"""``repro obs``: observability of a replayed workload::

    repro obs dump    --input raw.csv --window 900 [--json]
    repro obs top     --input raw.csv --window 900 [--json]
    repro obs trace   --input raw.csv --window 900 --sample-rate 0.1
    repro obs history --input raw.csv --cadence 60 [--name NAME]
    repro obs slo     --input raw.csv --window 3600
    repro obs watch   --input raw.csv --window 3600 --names repro_pipeline

Each verb replays the CSV through the record path and reads what the
replay's own metrics registry, trace log or scraped history kept; ``slo``
exits 1 while an SLO burns.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter

from repro import obs
from repro.cli import common

SCRAPE = common.flag_group(common.STREAM)
SCRAPE.add_argument(
    "--cadence", type=float, default=60.0, help="scrape cadence in simulated seconds"
)
SCRAPE.add_argument("--retain", type=int, default=512, help="scrape frames retained")

SLO = common.flag_group()
SLO.add_argument(
    "--slo-objective",
    type=float,
    default=0.99,
    help="good-ratio target for the stock SLO set",
)
SLO.add_argument("--slo-long-window", type=float, default=3600.0, help=argparse.SUPPRESS)
SLO.add_argument("--slo-short-window", type=float, default=600.0, help=argparse.SUPPRESS)
SLO.add_argument(
    "--slo-flush-threshold",
    type=float,
    default=0.025,
    help="flush-latency SLI threshold (wall seconds)",
)
SLO.add_argument(
    "--slo-max-staleness",
    type=float,
    default=None,
    help="freshness SLI: max watermark age (simulated seconds; "
    "default: twice the replay's drain horizon)",
)


def cmd_obs_dump(args: argparse.Namespace) -> int:
    """Replay a CSV through the record path, dump the metrics registry."""
    workload = common.Replay(args)
    workload.run()
    context = workload.obs_context
    if args.json:
        rows = [sample.to_dict() for sample in context.registry.exposition()]
        print(json.dumps(rows, indent=2))
    else:
        print(context.render_prometheus(), end="")
    return 0


def cmd_obs_top(args: argparse.Namespace) -> int:
    """Replay a CSV and print the hot-path latency table."""
    workload = common.Replay(args)
    workload.run()
    rows = workload.obs_context.hot_paths()
    if args.json:
        print(json.dumps([row.to_dict() for row in rows[: args.limit]], indent=2))
        return 0
    for row in rows[: args.limit]:
        print(row.to_text())
    if len(rows) > args.limit:
        print(f"... {len(rows) - args.limit} more stages (raise --limit)")
    return 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    """Replay a CSV with record tracing on, print end-to-end traces."""
    workload = common.Replay(args, sample_rate=args.sample_rate)
    workload.run()
    log = workload.obs_context.tracer.log
    ids = log.trace_ids()
    print(
        f"trace log: {log.total} spans ({log.dropped} evicted), "
        f"{len(ids)} traces, sample rate {args.sample_rate:g}"
    )
    paths = obs.record_paths(log)
    complete = sum(
        1
        for stages in paths.values()
        if all(
            len(stages.get(s, ())) == 1
            for s in ("ingest.flush", "store.append", "stream.window")
        )
    )
    print(
        f"record paths: {len(paths)} traced records, "
        f"{complete} with exactly-once pipeline -> store -> window delivery"
    )
    wanted = [args.trace_id] if args.trace_id is not None else ids[: args.limit]
    for trace_id in wanted:
        print(f"trace {trace_id}:")
        for depth, span in obs.trace_tree(log, trace_id):
            print("  " + "  " * depth + span.to_text())
    return 0


def cmd_obs_history(args: argparse.Namespace) -> int:
    """Replay a CSV while scraping the registry, then query the history."""
    workload = common.Replay(args, scrape=True)
    workload.run()
    scraper = workload.scraper
    store = scraper.store
    stats = scraper.stats
    print(
        f"scraped {stats.scrapes} frames ({stats.samples} samples, "
        f"{store.n_series} series, {store.frames_evicted} frames evicted)"
    )
    if not args.name:
        for key in sorted(store.keys()):
            series = store.series(key[0], dict(key[1]))
            latest = series.latest()
            tail = f" = {latest[1]:g} @ t={latest[0]:.0f}s" if latest else ""
            print(f"  {series.series}{tail}")
        return 0
    window = args.query_window
    print(
        f"{args.name}: delta {store.delta(args.name, window=window):g}, "
        f"rate {store.rate(args.name, window=window):g}/s over "
        + ("the full history" if window is None else f"the last {window:g}s")
    )
    for series in store.select(args.name):
        points = list(zip(series.t, series.values))[-args.last :]
        rendered = ", ".join(f"({t:.0f}s, {v:g})" for t, v in points)
        print(f"  {series.series}: {rendered}")
    return 0


def default_slos(args: argparse.Namespace) -> list:
    """The CLI's stock SLO set over the replay workload's instruments."""
    rules = (
        obs.BurnRateRule(window=args.slo_long_window, factor=2.0),
        obs.BurnRateRule(window=args.slo_short_window, factor=6.0),
    )
    # The replay keeps scraping through its drain tail (one window of
    # lateness with no new records), so a fixed staleness bound would
    # flag every bounded replay as stale at the end; scale with it.
    max_staleness = args.slo_max_staleness
    if max_staleness is None:
        max_staleness = 2.0 * max(args.window, args.lateness) + args.flush_delay
    slis = {
        "ingest-availability": (
            obs.availability_sli(
                "repro_pipeline_records_accepted_total",
                "repro_pipeline_records_submitted_total",
            ),
            "records admitted / records offered",
        ),
        "flush-latency": (
            obs.latency_sli("repro_pipeline_flush_seconds", args.slo_flush_threshold),
            "shard flushes under the latency threshold",
        ),
        "view-freshness": (
            obs.freshness_sli("repro_stream_watermark_seconds", max_staleness),
            "stream watermark within max staleness",
        ),
    }
    return [
        obs.SLODefinition(name, args.slo_objective, probe, rules, description)
        for name, (probe, description) in slis.items()
    ]


def cmd_obs_slo(args: argparse.Namespace) -> int:
    """Replay a CSV evaluating the stock SLO set with burn-rate rules."""
    workload = common.Replay(args, scrape=True)
    tracker = obs.SLOTracker(workload.scraper.store, default_slos(args))
    workload.scraper.on_frame(lambda frame: tracker.evaluate(frame.t))
    workload.run()
    print(
        f"evaluated {len(tracker.definitions)} SLOs over "
        f"{workload.scraper.stats.scrapes} scrape frames:"
    )
    for status in tracker.statuses():
        print(
            f"  {status.name}: {status.state} "
            f"(objective {status.objective:.3%}, "
            f"worst burn {status.worst_burn():.1f}x, "
            f"{status.transitions} transitions)"
        )
    for alert in tracker.alerts.alerts():
        print("  ALERT " + alert.to_text())
    return 0 if not tracker.burning else 1


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """Watch scrape frames + SLO transitions live over the serving tier.

    Like ``stream watch``, prints what a client subscribed to the
    server's ``obs watch`` channel receives.
    """
    pushed: Counter = Counter()  # by push kind

    def show(pushes) -> None:
        for push in pushes:
            pushed[push["kind"]] += 1
            if push["kind"] == "obs_frame":
                frame = push["frame"]
                if args.limit is None or pushed["obs_frame"] <= args.limit:
                    shown = sorted(frame["samples"].items())[: args.series_limit]
                    print(
                        f"frame @ t={frame['t']:.0f}s "
                        f"({frame['n_series']} series):"
                    )
                    for name, value in shown:
                        print(f"  {name} = {value:g}")
            elif push["kind"] == "obs_alert":
                alert = push["alert"]
                print(
                    f"SLO {alert['slo']} -> {alert['state']} "
                    f"@ t={alert['time']:.0f}s: {alert['message']}"
                )

    workload = common.Replay(args, scrape=True)
    workload.watch(
        lambda client: client.watch_obs(names=args.names or None),
        show,
        slos=default_slos(args),
    )
    scraper = workload.scraper
    print(
        f"watched {pushed['obs_frame']} scrape frames and {pushed['obs_alert']} SLO "
        f"transitions over the server channel "
        f"({scraper.stats.scrapes} scrapes, {scraper.store.n_series} series)"
    )
    return 0


def init_subparser(subparsers) -> None:
    verbs = common.command_group(
        subparsers,
        "obs",
        "Observability: metrics dump / hot-path table / record traces (repro.obs)",
    )
    dump = common.command(verbs, "dump", cmd_obs_dump, common.STREAM)
    dump.add_argument(
        "--json",
        action="store_true",
        help="emit the exposition as JSON rows instead of Prometheus text",
    )

    top = common.command(verbs, "top", cmd_obs_top, common.STREAM)
    top.add_argument("--limit", type=int, default=10, help="stages shown (hottest first)")
    top.add_argument("--json", action="store_true", help="emit the hot-path table as JSON rows")

    trace = common.command(verbs, "trace", cmd_obs_trace, common.STREAM)
    trace.add_argument(
        "--sample-rate",
        type=float,
        default=0.1,
        help="fraction of upload groups traced (systematic sampling)",
    )
    trace.add_argument("--trace-id", type=int, help="show one trace only")
    trace.add_argument("--limit", type=int, default=3, help="trace trees printed")

    history = common.command(verbs, "history", cmd_obs_history, SCRAPE)
    history.add_argument("--name", help="series family to query (omit to list everything)")
    history.add_argument(
        "--query-window",
        type=float,
        help="lookback for delta/rate (simulated seconds; default: all)",
    )
    history.add_argument(
        "--last", type=int, default=5, help="trailing points printed per series"
    )

    common.command(verbs, "slo", cmd_obs_slo, SCRAPE, SLO)

    watch = common.command(verbs, "watch", cmd_obs_watch, SCRAPE, SLO)
    watch.add_argument(
        "--names",
        nargs="*",
        help="series-name prefixes pushed in each frame (default: all)",
    )
    watch.add_argument("--limit", type=int, help="frames rendered in full (default: all)")
    watch.add_argument(
        "--series-limit",
        type=int,
        default=8,
        help="series lines printed per rendered frame",
    )
