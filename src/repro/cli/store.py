"""``repro store``: the columnar dataset store over a CSV::

    repro store stats   --input raw.csv --shards 4
    repro store query   --input raw.csv --t0 0 --t1 86400 --out day0.csv
    repro store compact --input raw.csv --segment-capacity 512
"""

from __future__ import annotations

import argparse

from repro.cli import common


def cmd_store_stats(args: argparse.Namespace) -> int:
    """Ingest through the pipeline and report store health."""
    with common.replay(
        args,
        streams=False,
        segment_capacity=args.segment_capacity,
        policy=args.policy,
        buffer_capacity=args.buffer_capacity,
    ) as ingest:
        ingest.run()
    store, pipeline = ingest.store, ingest.pipeline
    print(store.stats().to_text())
    stats = pipeline.stats
    print(
        f"pipeline: {stats.flushes} flushes, mean batch {stats.mean_flush_batch:.1f}, "
        f"largest {stats.largest_flush}, policy {pipeline.policy} "
        f"({stats.rejected} rejected, {stats.dropped} dropped, {stats.spilled} spilled)"
    )
    for task in store.aggregates.tasks:
        print(store.aggregates.task(task).to_text())
    return 0


def cmd_store_query(args: argparse.Namespace) -> int:
    """Time-range / bbox / per-user scan."""
    store = common.new_store(args)
    store.append(common.csv_records(args))
    common.scan_and_report(args, store)
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Merge sealed segments into time-sorted runs."""
    store = common.new_store(args)
    store.append(common.csv_records(args))
    before = store.stats()
    report = store.compact()
    after = store.stats()
    print(
        f"compacted {report.partitions_compacted} partitions: "
        f"{report.segments_before} -> {report.segments_after} segments "
        f"({report.records} records; store {before.segments} -> {after.segments})"
    )
    return 0


def init_subparser(subparsers) -> None:
    verbs = common.command_group(
        subparsers, "store", "Columnar dataset store operations (repro.store)"
    )
    layout = (common.STORE, common.SEGMENTS)
    stats = common.command(verbs, "stats", cmd_store_stats, *layout, common.FLUSH_DELAY)
    stats.add_argument(
        "--policy", default="spill", choices=["drop-oldest", "reject", "spill"]
    )
    stats.add_argument("--buffer-capacity", type=int, default=4096)
    common.command(verbs, "query", cmd_store_query, *layout, common.QUERY)
    common.command(verbs, "compact", cmd_store_compact, *layout)
