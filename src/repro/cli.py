"""Command-line interface: the library's operations as shell commands.

The subcommands mirror the lifecycle of a crowd-sensing dataset::

    python -m repro generate  --users 20 --days 7 --out raw.csv
    python -m repro protect   --input raw.csv --mechanism speed-smoothing --out prot.csv
    python -m repro attack    --input prot.csv --background raw.csv
    python -m repro evaluate  --raw raw.csv --protected prot.csv
    python -m repro publish   --input raw.csv --max-poi-recall 0.2 --out pub.csv

plus the server-side storage operations, grouped under ``store``::

    python -m repro store stats   --input raw.csv --shards 4
    python -m repro store query   --input raw.csv --t0 0 --t1 86400 --out day0.csv
    python -m repro store compact --input raw.csv --segment-capacity 512

the task-lifecycle operations, grouped under ``task``::

    python -m repro task vet      --spec examples/adaptive_scripting.py
    python -m repro task describe --spec my_experiment.py:TASK

the multi-hive scale-out operations, grouped under ``federation``::

    python -m repro federation run   --users 40 --days 2 --hives 3
    python -m repro federation stats --devices 2000 --hives 4
    python -m repro federation query --input raw.csv --hives 4 --t0 0 --t1 86400

and the live streaming analytics tier, grouped under ``stream``::

    python -m repro stream views  --input raw.csv --window 3600
    python -m repro stream alerts --input raw.csv --rate-below 0.02
    python -m repro stream watch  --input raw.csv --window 3600 --slide 900

Dataset commands work on the ``user,time,lat,lon`` CSV format of
:meth:`repro.mobility.dataset.MobilityDataset.to_csv`; ``task`` commands
load a :class:`~repro.apisense.tasks.SensingTask` from a Python spec
file (a module exposing ``TASK`` or a ``build_task()`` factory).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core import (
    CrowdedPlacesObjective,
    DistortionObjective,
    PrivacyRequirement,
    PrivApi,
    TrafficFlowObjective,
)
from repro.mobility import GeneratorConfig, MobilityDataset, MobilityGenerator
from repro.privacy import (
    GeoIndistinguishabilityMechanism,
    IdentityMechanism,
    PoiAttack,
    ReidentificationAttack,
    SpatialCloakingMechanism,
    SpeedSmoothingMechanism,
    TemporalDownsamplingMechanism,
    reidentification_rate,
)

OBJECTIVES = {
    "crowded-places": CrowdedPlacesObjective,
    "traffic-flow": TrafficFlowObjective,
    "distortion": DistortionObjective,
}


def _build_mechanism(args: argparse.Namespace):
    name = args.mechanism
    if name == "identity":
        return IdentityMechanism()
    if name == "speed-smoothing":
        return SpeedSmoothingMechanism(epsilon_m=args.epsilon_m)
    if name == "geo-indistinguishability":
        return GeoIndistinguishabilityMechanism(epsilon=args.epsilon)
    if name == "spatial-cloaking":
        return SpatialCloakingMechanism(cell_size_m=args.cell_m)
    if name == "temporal-downsampling":
        return TemporalDownsamplingMechanism(window=args.window_s)
    raise SystemExit(f"unknown mechanism: {name}")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_users=args.users,
        n_days=args.days,
        sampling_period=args.period,
    )
    population = MobilityGenerator(config).generate(seed=args.seed)
    population.dataset.to_csv(args.out)
    print(
        f"wrote {population.dataset.n_records} records for "
        f"{len(population.dataset)} users to {args.out}"
    )
    return 0


def cmd_protect(args: argparse.Namespace) -> int:
    dataset = MobilityDataset.from_csv(args.input)
    mechanism = _build_mechanism(args)
    protected = mechanism.protect(dataset, seed=args.seed)
    protected.to_csv(args.out)
    print(
        f"{mechanism.name}: {dataset.n_records} -> {protected.n_records} records, "
        f"{len(dataset)} -> {len(protected)} users; wrote {args.out}"
    )
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    dataset = MobilityDataset.from_csv(args.input)
    attack = PoiAttack(denoise_window=args.denoise_window)
    found = attack.run(dataset)
    total = sum(len(pois) for pois in found.values())
    print(f"POI attack: {total} candidate POIs across {len(found)} users")
    for user, pois in sorted(found.items()):
        tops = ", ".join(f"{p.center}" for p in pois[:3])
        print(f"  {user}: {len(pois)} POIs  top: {tops}")

    if args.background:
        background = MobilityDataset.from_csv(args.background)
        linker = ReidentificationAttack(
            denoise_window=args.denoise_window
        ).fit(background)
        pseudo, secret = dataset.pseudonymized()
        guesses = {p: r.guessed_user for p, r in linker.link(pseudo).items()}
        # The target already carries real ids here; the pseudonymization
        # is only to exercise the linkage path.
        rate = reidentification_rate(secret, guesses)
        print(f"re-identification (vs background {args.background}): {rate:.0%}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.utility.release_report import evaluate_release

    raw = MobilityDataset.from_csv(args.raw)
    protected = MobilityDataset.from_csv(args.protected)
    report = evaluate_release(
        raw, protected, cell_size_m=args.cell_m, hotspot_k=args.top_k
    )
    print(report.to_text())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.apisense import Campaign, CampaignConfig, SensingTask
    from repro.apisense.incentives import (
        FeedbackIncentive,
        NoIncentive,
        RankingIncentive,
        RewardIncentive,
        WinWinIncentive,
    )
    from repro.units import DAY

    incentives = {
        "none": NoIncentive,
        "feedback": FeedbackIncentive,
        "ranking": RankingIncentive,
        "reward": RewardIncentive,
        "win-win": WinWinIncentive,
    }
    population = MobilityGenerator(
        GeneratorConfig(n_users=args.users, n_days=args.days)
    ).generate(seed=args.seed)
    campaign = Campaign(
        population,
        incentive=incentives[args.incentive](),
        config=CampaignConfig(
            n_days=float(args.days), uplink_loss=args.loss, seed=args.seed
        ),
    )
    honeycomb = campaign.deploy(
        SensingTask(
            name="cli-campaign",
            sensors=("gps", "battery"),
            sampling_period=args.period,
            upload_period=1800.0,
            end=args.days * DAY,
        )
    )
    report = campaign.run()
    print(
        f"campaign: {report.total_records} records from {report.n_devices} devices "
        f"over {report.duration_days:.0f} days"
    )
    print(
        f"acceptance {report.acceptance_rate_per_task['cli-campaign']:.0%}, "
        f"mean motivation {report.mean_motivation:.2f}, "
        f"messages {report.messages_sent}, "
        f"transport loss {campaign.hive.transport.stats.loss_rate:.1%}"
    )
    print(f"daily records: {report.daily_records}")
    if args.out:
        honeycomb.mobility_dataset("cli-campaign").to_csv(args.out)
        print(f"wrote collected mobility data to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.mobility.stats import summarize

    dataset = MobilityDataset.from_csv(args.input)
    summary = summarize(dataset, cell_size_m=args.cell_m)
    print(summary.to_text())
    if args.geojson:
        from repro.mobility.geojson import dataset_to_geojson, write_geojson

        write_geojson(dataset_to_geojson(dataset), args.geojson)
        print(f"wrote GeoJSON to {args.geojson}")
    return 0


def cmd_publish(args: argparse.Namespace) -> int:
    dataset = MobilityDataset.from_csv(args.input)
    objective = OBJECTIVES[args.objective]()
    requirement = PrivacyRequirement(max_poi_recall=args.max_poi_recall)
    result = PrivApi(seed=args.seed).publish(
        dataset, requirement, objective, strict=not args.lenient
    )
    print(result.report.to_text())
    if result.dataset is None:
        print("nothing published (strict mode, bar not met)", file=sys.stderr)
        return 1
    result.dataset.to_csv(args.out)
    print(f"wrote published dataset ({result.dataset.n_records} records) to {args.out}")
    return 0


# ----------------------------------------------------------------------
# CSV in, CSV out (shared by store / stream / obs / federation)
# ----------------------------------------------------------------------


def _csv_records(args: argparse.Namespace) -> list:
    """``--input`` as single-task GPS records in time order (the arrival
    order a live deployment would see)."""
    from repro.apisense.device import SensorRecord

    dataset = MobilityDataset.from_csv(args.input)
    return sorted(
        (
            SensorRecord(
                device_id=f"csv:{user}",
                user=user,
                task=args.task_name,
                time=record.time,
                values={"gps": record.point},
            )
            for user, record in dataset.all_records()
        ),
        key=lambda r: r.time,
    )


def _write_rows(path: str, batch) -> None:
    """Write a scanned batch as ``user,time,lat,lon,value`` CSV."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user", "time", "lat", "lon", "value"])
        writer.writerows(batch.rows())
    print(f"wrote {len(batch)} rows to {path}")


# ----------------------------------------------------------------------
# ``store`` subcommands (columnar dataset store operations)
# ----------------------------------------------------------------------


def _ingest_csv_into_store(args: argparse.Namespace, via_pipeline: bool):
    """Load a mobility CSV into a fresh store, optionally via the pipeline.

    Rows are replayed in time order as single-task GPS records.  Returns
    ``(store, pipeline)`` where ``pipeline`` is ``None`` for direct bulk
    loads.
    """
    from repro.simulation import Simulator
    from repro.store import DatasetStore, IngestPipeline

    records = _csv_records(args)
    store = DatasetStore(
        n_shards=args.shards, segment_capacity=args.segment_capacity
    )
    if not via_pipeline:
        store.append(records)
        return store, None
    import itertools

    sim = Simulator()
    pipeline = IngestPipeline(
        sim,
        store,
        policy=args.policy,
        buffer_capacity=args.buffer_capacity,
        flush_delay=args.flush_delay,
    )
    # Replay each record at its own timestamp so the ingest-lag
    # aggregates measure pipeline behaviour (flush batching), not an
    # artifact of arbitrary submit slicing.
    for timestamp, group in itertools.groupby(records, key=lambda r: r.time):
        sim.run_until(max(sim.now, timestamp))
        pipeline.submit(list(group))
    sim.run()
    pipeline.flush_all()
    return store, pipeline


def cmd_store_stats(args: argparse.Namespace) -> int:
    store, pipeline = _ingest_csv_into_store(args, via_pipeline=True)
    print(store.stats().to_text())
    assert pipeline is not None
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
    store, _ = _ingest_csv_into_store(args, via_pipeline=False)
    bbox = tuple(args.bbox) if args.bbox else None
    batch = store.scan(
        args.task_name, t0=args.t0, t1=args.t1, bbox=bbox, user=args.user
    )
    users = sorted(set(batch.user_names()))
    print(f"query matched {len(batch)} records from {len(users)} users")
    if len(batch):
        print(f"  time span [{batch.time.min():.0f}, {batch.time.max():.0f}]s")
    if args.out:
        _write_rows(args.out, batch)
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    store, _ = _ingest_csv_into_store(args, via_pipeline=False)
    before = store.stats()
    report = store.compact()
    after = store.stats()
    print(
        f"compacted {report.partitions_compacted} partitions: "
        f"{report.segments_before} -> {report.segments_after} segments "
        f"({report.records} records; store {before.segments} -> {after.segments})"
    )
    return 0


# ----------------------------------------------------------------------
# ``stream`` subcommands (live windowed views, repro.streams)
# ----------------------------------------------------------------------


def _replay_csv_through_streams(args: argparse.Namespace, engine, scraper=None) -> None:
    """Replay a mobility CSV through a pipeline with ``engine`` attached.

    Rows are replayed at their own timestamps (the arrival order a live
    deployment would see), so windows close as simulated event time —
    not file order — advances.  Each same-timestamp group goes through a
    traced admit gate (the Hive gateway pattern): when record tracing is
    on, sampled groups carry a trace id end to end; when it's off the
    gate is a no-op.

    ``scraper`` (a :class:`repro.obs.MetricsScraper`, optional) is
    started on the replay's simulator, bounded past the last record so
    the periodic scrape event cannot keep the drained simulator alive.
    """
    import dataclasses
    import itertools

    from repro import obs
    from repro.simulation import Simulator
    from repro.store import DatasetStore, IngestPipeline

    records = _csv_records(args)
    sim = Simulator()
    engine.bind_clock(sim)  # lag views measure this replay's pipeline delay
    obs.configure(clock=lambda: sim.now)
    if scraper is not None and records:
        horizon = records[-1].time + max(args.window, args.lateness) + args.flush_delay
        scraper.start(sim, until=horizon)
    store = DatasetStore(n_shards=args.shards)
    pipeline = IngestPipeline(sim, store, flush_delay=args.flush_delay)
    engine.attach(pipeline)
    tracer = obs.tracer()
    for timestamp, group in itertools.groupby(records, key=lambda r: r.time):
        sim.run_until(max(sim.now, timestamp))
        batch = list(group)
        trace_id = tracer.new_trace()
        if trace_id is None:
            pipeline.submit(batch)
            continue
        batch = [dataclasses.replace(r, trace_id=trace_id) for r in batch]
        with tracer.span(
            "ingest.admit",
            trace_id=trace_id,
            task=args.task_name,
            batch=len(batch),
        ) as span:
            span.add_records({trace_id: [r.time for r in batch]})
            pipeline.submit(batch)
    sim.run()
    pipeline.flush_all()
    engine.finalize()


def _build_stream_engine(args: argparse.Namespace):
    from repro.streams import StreamEngine, WindowSpec

    slide = args.slide if args.slide is not None else args.window
    engine = StreamEngine(
        pane_seconds=min(slide, args.window),
        allowed_lateness=args.lateness,
        cell_deg=args.cell_deg,
        history=args.history,
    )
    engine.register_view("window", WindowSpec(size=args.window, slide=slide))
    return engine


def _register_stream_queries(args: argparse.Namespace, engine) -> None:
    from repro.streams import (
        ContinuousQuery,
        coverage_stalled,
        percentile_above,
        rate_below,
    )

    if args.rate_below is not None:
        engine.register_query(
            "window", ContinuousQuery("rate-below", rate_below(args.rate_below))
        )
    if args.coverage_stalled is not None:
        engine.register_query(
            "window",
            ContinuousQuery(
                "coverage-stalled", coverage_stalled(args.coverage_stalled)
            ),
        )
    if args.lag_p95_above is not None:
        engine.register_query(
            "window",
            ContinuousQuery(
                "lag-p95-above", percentile_above("lag", 0.95, args.lag_p95_above)
            ),
        )
    if args.value_p95_above is not None:
        engine.register_query(
            "window",
            ContinuousQuery(
                "value-p95-above",
                percentile_above("value", 0.95, args.value_p95_above),
            ),
        )


def cmd_stream_views(args: argparse.Namespace) -> int:
    engine = _build_stream_engine(args)
    _replay_csv_through_streams(args, engine)
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
    engine = _build_stream_engine(args)
    _register_stream_queries(args, engine)
    _replay_csv_through_streams(args, engine)
    log = engine.alerts
    print(
        f"continuous queries: {engine.stats.queries_evaluated} evaluations, "
        f"{log.total} alerts ({log.dropped} dropped by the bounded log, "
        f"{log.unacknowledged} unacknowledged)"
    )
    for alert in log.alerts():
        print("  " + alert.to_text())
    return 0 if log.total == 0 else 1


def _render_snapshot_push(digest: dict) -> str:
    """One pushed snapshot digest as a dashboard line (mirrors
    :meth:`repro.streams.views.WindowSnapshot.to_text`)."""
    start, end = digest["start"], digest["end"]
    rate = digest["records"] / (end - start) if end > start else 0.0
    top = ", ".join(f"{user}:{count}" for user, count in digest["top_users"])
    return (
        f"[{start:.0f},{end:.0f})s {digest['task']}/{digest['view']}: "
        f"{digest['records']} rec ({rate:.2f}/s) from {digest['n_users']} users, "
        f"{digest['coverage_cells']} cells, value p50/p95 "
        f"{digest['value_p50']:.2f}/{digest['value_p95']:.2f}, "
        f"lag p95 {digest['lag_p95']:.1f}s" + (f", top [{top}]" if top else "")
    )


async def _pump_pushes(client, show) -> None:
    """Let the server's delivery pass run, then render every push that
    arrived (repeats until a pass delivers nothing)."""
    import asyncio

    while True:
        await asyncio.sleep(0)
        pushes = client.drain_pushes()
        if not pushes:
            return
        show(pushes)


def _watch_replay(
    args: argparse.Namespace, engine, subscribe, show, scraper=None, slos=None
) -> None:
    """Replay ``--input`` behind an in-process server, one client watching.

    Stands up a :class:`repro.server.ReproServer` over the replay
    engine, connects one client, lets ``subscribe(client)`` open its
    channel, and hands every batch of pushes to ``show`` as it arrives.
    ``scraper`` (with the ``slos`` evaluated at its frames) feeds the
    server's ``obs watch`` channel and is started on the replay's
    simulator, bounded past the last record so the periodic scrape
    event cannot keep the drained simulator alive.
    """
    import asyncio
    import itertools

    from repro import obs
    from repro.server import ReproServer, ServerClient
    from repro.simulation import Simulator
    from repro.store import DatasetStore, IngestPipeline

    records = _csv_records(args)
    sim = Simulator()
    engine.bind_clock(sim)
    if scraper is not None:
        obs.configure(clock=lambda: sim.now)
    store = DatasetStore(n_shards=args.shards)
    pipeline = IngestPipeline(sim, store, flush_delay=args.flush_delay)
    engine.attach(pipeline)
    server = ReproServer(engine=engine, sim=sim, scraper=scraper, slos=slos)
    if scraper is not None and records:
        horizon = (
            records[-1].time + max(args.window, args.lateness) + args.flush_delay
        )
        scraper.start(sim, until=horizon)

    async def run() -> None:
        client = ServerClient(server.connect_in_process())
        await client.connect()
        await subscribe(client)
        for timestamp, group in itertools.groupby(records, key=lambda r: r.time):
            if timestamp > sim.now:
                await server.drive(timestamp, slice_seconds=args.window)
            pipeline.submit(list(group))
            await _pump_pushes(client, show)
        sim.run()
        pipeline.flush_all()
        engine.finalize()
        await server.drain()
        await _pump_pushes(client, show)
        await client.close()

    asyncio.run(run())


def cmd_stream_watch(args: argparse.Namespace) -> int:
    """Watch windows close live — served over the dashboard channel.

    Unlike ``stream views`` (a batch read after the replay), this prints
    every ``WindowSnapshot`` *as pushed to the subscribed client* (see
    :func:`_watch_replay`) — the CLI is a real serving-tier consumer,
    not a callback on the engine.
    """
    engine = _build_stream_engine(args)
    _register_stream_queries(args, engine)

    printed = 0
    alerts_pushed = 0

    def show(pushes) -> None:
        nonlocal printed, alerts_pushed
        for push in pushes:
            if push["kind"] == "snapshot":
                if args.limit is None or printed < args.limit:
                    print(_render_snapshot_push(push["snapshot"]))
                    printed += 1
            elif push["kind"] == "alert":
                alerts_pushed += 1

    _watch_replay(
        args, engine, lambda client: client.subscribe("window", alerts=True), show
    )
    print(
        f"watched {engine.stats.windows_emitted} windows over the server channel "
        f"({engine.stats.records_seen} records, "
        f"{alerts_pushed} alerts pushed)"
    )
    for alert in engine.alerts.alerts():
        print("  ALERT " + alert.to_text())
    return 0


# ----------------------------------------------------------------------
# ``obs`` subcommands (observability: registry / hot paths / traces)
# ----------------------------------------------------------------------


def _run_observed_replay(args: argparse.Namespace, tracing: bool) -> None:
    """Replay ``--input`` through the full record path with obs on."""
    from repro import obs

    # A CLI replay is self-contained: start from a fresh registry so a
    # long-lived process (tests, REPLs) can't leak stale families in.
    obs.reset(metrics=True, tracing=tracing)
    if tracing:
        obs.configure(sample_rate=args.sample_rate)
    engine = _build_stream_engine(args)
    _replay_csv_through_streams(args, engine)


def cmd_obs_dump(args: argparse.Namespace) -> int:
    """Replay a workload and dump the registry (Prometheus text or JSON)."""
    import json

    from repro import obs

    _run_observed_replay(args, tracing=False)
    if args.json:
        rows = [sample.to_dict() for sample in obs.metrics_registry().exposition()]
        print(json.dumps(rows, indent=2))
    else:
        print(obs.render_prometheus(), end="")
    return 0


def cmd_obs_top(args: argparse.Namespace) -> int:
    """Replay a workload and print the hot-path table (hottest first)."""
    import json

    from repro import obs

    _run_observed_replay(args, tracing=False)
    rows = obs.hot_paths()
    if args.json:
        print(json.dumps([row.to_dict() for row in rows[: args.limit]], indent=2))
        return 0
    for row in rows[: args.limit]:
        print(row.to_text())
    if len(rows) > args.limit:
        print(f"... {len(rows) - args.limit} more stages (raise --limit)")
    return 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    """Replay a workload with record tracing and print trace trees."""
    from repro import obs
    from repro.obs import record_paths, trace_tree

    _run_observed_replay(args, tracing=True)
    log = obs.tracer().log
    ids = log.trace_ids()
    print(
        f"trace log: {log.total} spans ({log.dropped} evicted), "
        f"{len(ids)} traces, sample rate {args.sample_rate:g}"
    )
    paths = record_paths(log)
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
        for depth, span in trace_tree(log, trace_id):
            print("  " + "  " * depth + span.to_text())
    return 0


def _replay_with_scraper(args: argparse.Namespace):
    """Replay ``--input`` with a MetricsScraper sampling the registry."""
    from repro import obs

    obs.reset(metrics=True, tracing=False)
    scraper = obs.MetricsScraper(cadence=args.cadence, capacity=args.retain)
    engine = _build_stream_engine(args)
    _replay_csv_through_streams(args, engine, scraper=scraper)
    return scraper


def _default_slos(args: argparse.Namespace):
    """The CLI's stock SLO set over the replay workload's instruments."""
    from repro import obs

    rules = (
        obs.BurnRateRule(window=args.slo_long_window, factor=2.0),
        obs.BurnRateRule(window=args.slo_short_window, factor=6.0),
    )
    # The replay keeps scraping through its drain tail (one window of
    # lateness with no new records), so a fixed staleness bound would
    # flag every bounded replay as stale at the end; scale with it.
    max_staleness = args.slo_max_staleness
    if max_staleness is None:
        max_staleness = (
            2.0 * max(args.window, args.lateness) + args.flush_delay
        )
    return [
        obs.SLODefinition(
            name="ingest-availability",
            objective=args.slo_objective,
            probe=obs.availability_sli(
                "repro_pipeline_records_accepted_total",
                "repro_pipeline_records_submitted_total",
            ),
            rules=rules,
            description="records admitted / records offered",
        ),
        obs.SLODefinition(
            name="flush-latency",
            objective=args.slo_objective,
            probe=obs.latency_sli(
                "repro_pipeline_flush_seconds", args.slo_flush_threshold
            ),
            rules=rules,
            description="shard flushes under the latency threshold",
        ),
        obs.SLODefinition(
            name="view-freshness",
            objective=args.slo_objective,
            probe=obs.freshness_sli(
                "repro_stream_watermark_seconds", max_staleness
            ),
            rules=rules,
            description="stream watermark within max staleness",
        ),
    ]


def cmd_obs_history(args: argparse.Namespace) -> int:
    """Replay a workload while scraping, then query the history."""
    scraper = _replay_with_scraper(args)
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


def cmd_obs_slo(args: argparse.Namespace) -> int:
    """Replay a workload scraping + evaluating the stock SLO set."""
    from repro import obs

    obs.reset(metrics=True, tracing=False)
    scraper = obs.MetricsScraper(cadence=args.cadence, capacity=args.retain)
    tracker = obs.SLOTracker(scraper.store, _default_slos(args))
    scraper.on_frame(lambda frame: tracker.evaluate(frame.t))
    engine = _build_stream_engine(args)
    _replay_csv_through_streams(args, engine, scraper=scraper)
    print(
        f"evaluated {len(tracker.definitions)} SLOs over "
        f"{scraper.stats.scrapes} scrape frames:"
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
    """Watch scrape frames + SLO transitions live over the server channel.

    Mirrors ``stream watch``: one client subscribed to the in-process
    server's ``obs watch`` channel (see :func:`_watch_replay`), every
    pushed frame/alert printed — a real serving-tier consumer.
    """
    from repro import obs

    obs.reset(metrics=True, tracing=False)
    scraper = obs.MetricsScraper(cadence=args.cadence, capacity=args.retain)
    engine = _build_stream_engine(args)

    frames_shown = 0
    alerts_shown = 0

    def show(pushes) -> None:
        nonlocal frames_shown, alerts_shown
        for push in pushes:
            if push["kind"] == "obs_frame":
                frame = push["frame"]
                frames_shown += 1
                if args.limit is None or frames_shown <= args.limit:
                    shown = sorted(frame["samples"].items())[: args.series_limit]
                    print(
                        f"frame @ t={frame['t']:.0f}s "
                        f"({frame['n_series']} series):"
                    )
                    for name, value in shown:
                        print(f"  {name} = {value:g}")
            elif push["kind"] == "obs_alert":
                alerts_shown += 1
                alert = push["alert"]
                print(
                    f"SLO {alert['slo']} -> {alert['state']} "
                    f"@ t={alert['time']:.0f}s: {alert['message']}"
                )

    _watch_replay(
        args,
        engine,
        lambda client: client.watch_obs(names=args.names or None),
        show,
        scraper=scraper,
        slos=_default_slos(args),
    )
    print(
        f"watched {frames_shown} scrape frames and {alerts_shown} SLO "
        f"transitions over the server channel "
        f"({scraper.stats.scrapes} scrapes, {scraper.store.n_series} series)"
    )
    return 0


# ----------------------------------------------------------------------
# ``serve`` (the asyncio serving tier, repro.server)
# ----------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    """Stand up the serving tier over a simulated campaign scenario.

    Builds a campaign (population, devices, one sensing task), wraps its
    Hive in a :class:`repro.server.ReproServer`, connects ``--clients``
    in-process dashboard sessions, and drives the simulated days with the
    event loop interleaved — every client receives the live window
    pushes while the campaign collects.  Ends with the platform health
    report (including the serving tier's counters) and the per-client
    push accounting.
    """
    import asyncio

    from repro.apisense import Campaign, CampaignConfig, SensingTask
    from repro.apisense.monitoring import snapshot
    from repro.server import MetricsMiddleware, ReproServer, ServerClient
    from repro.streams import WindowSpec
    from repro.units import DAY

    population = MobilityGenerator(
        GeneratorConfig(n_users=args.users, n_days=args.days)
    ).generate(seed=args.seed)
    campaign = Campaign(
        population,
        config=CampaignConfig(n_days=float(args.days), seed=args.seed),
    )
    campaign.deploy(
        SensingTask(
            name="served-campaign",
            sensors=("gps", "battery"),
            sampling_period=args.period,
            upload_period=1800.0,
            end=args.days * DAY,
        )
    )
    hive, sim = campaign.hive, campaign.sim
    hive.streams.register_view("window", WindowSpec.tumbling(args.window))
    metrics = MetricsMiddleware()
    server = ReproServer(
        hive, middlewares=[metrics], queue_capacity=args.queue_capacity
    )
    received = [0] * args.clients

    async def run() -> None:
        clients = []
        for _ in range(args.clients):
            client = ServerClient(server.connect_in_process())
            await client.connect()
            await client.subscribe("window", alerts=True)
            clients.append(client)
        day = 1.0
        while day <= args.days + 1e-9:
            await server.drive(day * DAY, slice_seconds=args.window)
            hive.end_of_day()
            campaign._daily_participation()
            day += 1.0
        await server.drive(
            args.days * DAY + 2.0 * campaign.config.delivery_latency + 1.0,
            slice_seconds=args.window,
        )
        hive.pipeline.flush_all()
        hive.streams.finalize()
        await server.drain()
        for index, client in enumerate(clients):
            await _pump_pushes(client, lambda pushes, i=index: received.__setitem__(
                i, received[i] + len(pushes)
            ))
            await client.close()

    asyncio.run(run())
    print(snapshot(hive, sim.now, server=server).to_text())
    print(
        f"served {args.clients} dashboard clients: "
        f"pushes received {received}, "
        f"{server.pushes_dropped} dropped (slow consumers)"
    )
    return 0


# ----------------------------------------------------------------------
# ``federation`` subcommands (multi-hive scale-out, repro.federation)
# ----------------------------------------------------------------------


def cmd_federation_run(args: argparse.Namespace) -> int:
    """Run a federated campaign: one crowd sharded across N Hives."""
    from repro.apisense.battery import Battery, BatteryModel
    from repro.apisense.device import MobileDevice
    from repro.apisense.hive import Hive
    from repro.apisense.honeycomb import Honeycomb
    from repro.apisense.sensors import default_sensor_suite
    from repro.apisense.tasks import SensingTask
    from repro.apisense.transport import Transport
    from repro.federation import FederatedDataset, FederationRouter, federation_snapshot
    from repro.mobility import GeneratorConfig, MobilityGenerator
    from repro.simulation import Simulator
    from repro.units import DAY, HOUR

    import numpy as np

    population = MobilityGenerator(
        GeneratorConfig(n_users=args.users, n_days=args.days, sampling_period=300.0)
    ).generate(seed=args.seed)
    sim = Simulator()
    router = FederationRouter(
        sim,
        control_transport=Transport(
            latency_mean=0.05, latency_jitter=0.01, loss=args.control_loss, seed=args.seed
        ),
    )
    for index in range(args.hives):
        router.join(f"hive-{index}", Hive(sim, seed=args.seed + index))

    rng = np.random.default_rng(args.seed)
    suite = default_sensor_suite(population.city, rng)
    for index, trajectory in enumerate(population.dataset):
        router.register_device(
            MobileDevice(
                device_id=f"device-{index:04d}",
                user=trajectory.user,
                trajectory=trajectory,
                sensors=suite,
                battery=Battery(BatteryModel(), level=float(rng.uniform(0.5, 1.0))),
                seed=args.seed * 100_003 + index,
            )
        )

    if args.fail_hive:
        router.schedule_failure(
            args.fail_hive,
            at=args.fail_at_hours * HOUR,
            duration=args.fail_for_hours * HOUR if args.fail_for_hours else None,
        )

    owner = Honeycomb("federation-cli", router.hive("hive-0"))
    task = SensingTask(
        name="federated-campaign",
        sensors=("gps", "battery"),
        sampling_period=args.period,
        upload_period=1800.0,
        end=args.days * DAY,
    )
    receipt = router.syndicate(task, owner, home="hive-0")
    print(
        f"syndicated {receipt.task!r}: {receipt.home_offers} home offers, "
        f"{receipt.announcements} partner announcements"
    )

    sim.run_until(args.days * DAY + HOUR)
    for name in router.member_names:
        router.hive(name).pipeline.flush_all()

    print()
    print(federation_snapshot(router, sim.now).to_text())
    print()
    federated = FederatedDataset.from_router(router)
    print(federated.aggregate(task.name).to_text())
    return 0


def cmd_federation_stats(args: argparse.Namespace) -> int:
    """Placement analysis: balance and join-stability of the ring."""
    from repro.federation import ConsistentHashRing

    ring = ConsistentHashRing(replicas=args.replicas)
    for index in range(args.hives):
        ring.add(f"hive-{index}")
    keys = [f"device-{i:06d}" for i in range(args.devices)]
    spread = ring.spread(keys)
    mean = args.devices / args.hives
    print(
        f"ring: {args.hives} hives x {args.replicas} vnodes, "
        f"{args.devices} devices, mean {mean:.0f}/hive"
    )
    for name in sorted(spread):
        count = spread[name]
        print(f"  {name}: {count} devices ({count / mean:.2f}x mean)")

    grown = ConsistentHashRing(replicas=args.replicas)
    for index in range(args.hives + 1):
        grown.add(f"hive-{index}")
    diff = ring.diff(keys, grown)
    print(
        f"adding hive-{args.hives} re-homes {diff.n_moved} devices "
        f"({diff.n_moved / args.devices:.1%}; ideal 1/{args.hives + 1} = "
        f"{1 / (args.hives + 1):.1%}), all onto the new member: "
        f"{all(new == f'hive-{args.hives}' for _, new in diff.moved.values())}"
    )
    return 0


def cmd_federation_query(args: argparse.Namespace) -> int:
    """Shard a CSV across member stores via the ring, query federated."""
    from repro.federation import ConsistentHashRing, FederatedDataset
    from repro.store import DatasetStore

    ring = ConsistentHashRing()
    stores = {}
    for index in range(args.hives):
        name = f"hive-{index}"
        ring.add(name)
        stores[name] = DatasetStore(
            n_shards=args.shards, segment_capacity=args.segment_capacity
        )
    by_member: dict[str, list] = {name: [] for name in stores}
    for record in _csv_records(args):  # time order survives the split
        by_member[ring.place(record.device_id)].append(record)
    for name, records in by_member.items():
        stores[name].append(records)

    federated = FederatedDataset(stores)
    bbox = tuple(args.bbox) if args.bbox else None
    batch = federated.scan(
        args.task_name, t0=args.t0, t1=args.t1, bbox=bbox, user=args.user
    )
    users = sorted(set(batch.user_names()))
    print(
        f"federated query over {args.hives} hives matched {len(batch)} records "
        f"from {len(users)} users"
    )
    for name in federated.member_names:
        print(f"  {name}: {stores[name].n_records} records stored")
    if len(batch):
        print(f"  time span [{batch.time.min():.0f}, {batch.time.max():.0f}]s")

    if args.secure:
        import random

        import numpy as np

        from repro.privacy.secure_aggregation import SecureAggregationPolicy

        policy = SecureAggregationPolicy(
            protocol=args.secure_protocol, key_bits=args.key_bits
        )
        result = federated.secure_aggregate(
            args.task_name, policy=policy, rng=random.Random(args.task_name)
        )
        print()
        print(result.to_text())
        full = federated.scan(args.task_name)
        finite = full.value[np.isfinite(full.value)]
        tolerance = 0.5 * result.contributors / 1000.0 + 1e-9
        ok = (
            result.records == len(full)
            and result.value_count == len(finite)
            and abs(result.value_sum - float(finite.sum())) <= tolerance
        )
        print(
            f"  plaintext cross-check: {len(full)} records, value sum "
            f"{float(finite.sum()):.3f} -> {'match' if ok else 'MISMATCH'} "
            "(no aggregator saw per-user data)"
        )
        if not ok:
            return 1
    if args.out:
        _write_rows(args.out, batch)
    return 0


# ----------------------------------------------------------------------
# ``privacy`` subcommands (secure aggregation, repro.privacy)
# ----------------------------------------------------------------------


def cmd_privacy_demo(args: argparse.Namespace) -> int:
    """Run one secure-aggregation session end to end, with dropouts."""
    import random

    from repro.privacy.secure_aggregation import (
        ParticipantProfile,
        SecureAggregationPolicy,
        SecureAggregationSession,
    )
    from repro.simulation import FaultInjector, Simulator

    rng = random.Random(args.seed)
    profiles = [
        ParticipantProfile(f"device-{i:03d}", battery=rng.uniform(0.05, 1.0))
        for i in range(args.devices)
    ]
    readings = {p.participant_id: [round(rng.uniform(-30.0, -90.0), 3)] for p in profiles}
    policy = SecureAggregationPolicy(
        protocol=args.protocol,
        key_bits=args.key_bits,
        paillier_battery_floor=args.battery_floor,
        dropout_threshold=0.5,
    )
    sim = Simulator()
    faults = FaultInjector(sim)
    session = SecureAggregationSession(
        "privacy-demo",
        profiles,
        components=("signal_dbm",),
        policy=policy,
        rng=random.Random(args.seed + 1),
        faults=faults,
    )
    session.setup()
    print(
        f"session over {args.devices} devices: "
        f"{len(session.paillier_cohort)} paillier / "
        f"{len(session.masking_cohort)} masking"
        + (f" (Shamir threshold {session.threshold})" if session.threshold else "")
    )
    victims = rng.sample(sorted(readings), k=min(args.dropouts, args.devices - 1))
    for victim in victims:
        faults.schedule_outage(f"device:{victim}", at=60.0)
    sim.run()
    if victims:
        print(f"killed mid-session: {', '.join(victims)}")

    result = session.run(readings)
    expected = sum(v[0] for pid, v in readings.items() if pid not in result.dropped)
    secure = result.sum("signal_dbm")
    print(
        f"secure sum over {result.contributors} survivors: {secure:.3f} "
        f"(plaintext {expected:.3f}, |error| {abs(secure - expected):.2e})"
    )
    note = "the aggregator handled only ciphertexts and masked integers"
    if session.masking_cohort and any(
        pid in session.masking_cohort for pid in result.dropped
    ):
        note += "; dropped devices' masks were cancelled via Shamir shares"
    print(note)
    return 0 if abs(secure - expected) < 0.5 * max(1, result.contributors) / 1000.0 + 1e-9 else 1


# ----------------------------------------------------------------------
# ``task`` subcommands (task lifecycle: vet / describe a spec)
# ----------------------------------------------------------------------


def _load_task_from_spec(spec: str):
    """Load a :class:`SensingTask` from ``path.py`` or ``path.py:ATTR``.

    Without an explicit attribute the loader looks for ``TASK`` (a task
    instance) then ``build_task`` (a zero-argument factory) — the same
    contract the examples follow.  A spec requesting custom sensors must
    register them first (build the :class:`~repro.apisense.sensors.
    SensorSuite` providing them, or call ``sensor_registry.register``)
    — validation consults the process-wide registry.
    """
    import importlib.util
    from pathlib import Path

    from repro.apisense.tasks import SensingTask

    path, _, attribute = spec.partition(":")
    if not Path(path).exists():
        raise SystemExit(f"task spec not found: {path}")
    module_spec = importlib.util.spec_from_file_location("_task_spec", path)
    if module_spec is None or module_spec.loader is None:
        raise SystemExit(f"cannot import task spec: {path}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)

    candidates = [attribute] if attribute else ["TASK", "build_task"]
    for name in candidates:
        value = getattr(module, name, None)
        if value is None:
            continue
        if callable(value) and not isinstance(value, SensingTask):
            value = value()
        if isinstance(value, SensingTask):
            return value
        raise SystemExit(f"{path}:{name} is not a SensingTask (got {type(value).__name__})")
    if attribute:
        raise SystemExit(f"{path} has no attribute {attribute!r}")
    raise SystemExit(
        f"{path} exposes neither TASK nor build_task(); "
        "point at the right attribute with --spec path.py:NAME"
    )


def cmd_task_vet(args: argparse.Namespace) -> int:
    from repro.apisense.vetting import dry_run_task

    task = _load_task_from_spec(args.spec)
    report = dry_run_task(task, n_samples=args.samples, seed=args.seed)
    print(report.to_text())
    return 0 if report.acceptable() else 1


def cmd_task_describe(args: argparse.Namespace) -> int:
    from repro.apisense.vetting import describe_task

    task = _load_task_from_spec(args.spec)
    print(describe_task(task))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving crowd-sensing toolkit (APISENSE + PRIVAPI)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesize a mobility dataset")
    generate.add_argument("--users", type=int, default=20)
    generate.add_argument("--days", type=int, default=7)
    generate.add_argument("--period", type=float, default=120.0, help="GPS period (s)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_generate)

    protect = commands.add_parser("protect", help="apply a privacy mechanism")
    protect.add_argument("--input", required=True)
    protect.add_argument(
        "--mechanism",
        default="speed-smoothing",
        choices=[
            "identity",
            "speed-smoothing",
            "geo-indistinguishability",
            "spatial-cloaking",
            "temporal-downsampling",
        ],
    )
    protect.add_argument("--epsilon-m", type=float, default=100.0, help="smoothing step")
    protect.add_argument("--epsilon", type=float, default=0.01, help="geo-ind budget (1/m)")
    protect.add_argument("--cell-m", type=float, default=400.0, help="cloaking cell")
    protect.add_argument("--window-s", type=float, default=900.0, help="downsampling window")
    protect.add_argument("--seed", type=int, default=0)
    protect.add_argument("--out", required=True)
    protect.set_defaults(handler=cmd_protect)

    attack = commands.add_parser("attack", help="run the POI / linkage attacks")
    attack.add_argument("--input", required=True)
    attack.add_argument("--background", help="raw CSV for the linkage attack")
    attack.add_argument("--denoise-window", type=int, default=9)
    attack.set_defaults(handler=cmd_attack)

    evaluate = commands.add_parser("evaluate", help="utility of protected vs raw")
    evaluate.add_argument("--raw", required=True)
    evaluate.add_argument("--protected", required=True)
    evaluate.add_argument("--cell-m", type=float, default=500.0)
    evaluate.add_argument("--top-k", type=int, default=15)
    evaluate.set_defaults(handler=cmd_evaluate)

    campaign = commands.add_parser("campaign", help="run a simulated campaign")
    campaign.add_argument("--users", type=int, default=20)
    campaign.add_argument("--days", type=int, default=3)
    campaign.add_argument("--period", type=float, default=300.0)
    campaign.add_argument(
        "--incentive",
        default="win-win",
        choices=["none", "feedback", "ranking", "reward", "win-win"],
    )
    campaign.add_argument("--loss", type=float, default=0.0, help="uplink loss prob")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--out", help="write collected GPS data as CSV")
    campaign.set_defaults(handler=cmd_campaign)

    stats = commands.add_parser("stats", help="dataset summary statistics")
    stats.add_argument("--input", required=True)
    stats.add_argument("--cell-m", type=float, default=500.0)
    stats.add_argument("--geojson", help="also export trajectories as GeoJSON")
    stats.set_defaults(handler=cmd_stats)

    publish = commands.add_parser("publish", help="full PRIVAPI publication")
    publish.add_argument("--input", required=True)
    publish.add_argument("--objective", default="crowded-places", choices=sorted(OBJECTIVES))
    publish.add_argument("--max-poi-recall", type=float, default=0.2)
    publish.add_argument("--lenient", action="store_true", help="fall back when bar unmet")
    publish.add_argument("--seed", type=int, default=0)
    publish.add_argument("--out", required=True)
    publish.set_defaults(handler=cmd_publish)

    store = commands.add_parser(
        "store", help="columnar dataset store operations (repro.store)"
    )
    store_commands = store.add_subparsers(
        dest="store_command",
        title="store subcommands",
        required=True,
    )

    def add_store_common(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--input", required=True, help="mobility CSV to ingest")
        subparser.add_argument("--task-name", default="ingested", help="task label")
        subparser.add_argument("--shards", type=int, default=4)
        subparser.add_argument("--segment-capacity", type=int, default=4096)

    store_stats = store_commands.add_parser(
        "stats", help="ingest through the pipeline and report store health"
    )
    add_store_common(store_stats)
    store_stats.add_argument(
        "--policy", default="spill", choices=["drop-oldest", "reject", "spill"]
    )
    store_stats.add_argument("--buffer-capacity", type=int, default=4096)
    store_stats.add_argument("--flush-delay", type=float, default=30.0)
    store_stats.set_defaults(handler=cmd_store_stats)

    store_query = store_commands.add_parser(
        "query", help="time-range / bbox / per-user scan"
    )
    add_store_common(store_query)
    store_query.add_argument("--t0", type=float, help="inclusive start time (s)")
    store_query.add_argument("--t1", type=float, help="exclusive end time (s)")
    store_query.add_argument(
        "--bbox",
        type=float,
        nargs=4,
        metavar=("SOUTH", "WEST", "NORTH", "EAST"),
        help="spatial filter in decimal degrees",
    )
    store_query.add_argument("--user", help="restrict to one user (single-shard scan)")
    store_query.add_argument("--out", help="write matching rows as CSV")
    store_query.set_defaults(handler=cmd_store_query)

    store_compact = store_commands.add_parser(
        "compact", help="merge sealed segments into time-sorted runs"
    )
    add_store_common(store_compact)
    store_compact.set_defaults(handler=cmd_store_compact)

    stream = commands.add_parser(
        "stream", help="live windowed views + continuous queries (repro.streams)"
    )
    stream_commands = stream.add_subparsers(
        dest="stream_command",
        title="stream subcommands",
        required=True,
    )

    def add_stream_common(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--input", required=True, help="mobility CSV to replay")
        subparser.add_argument("--task-name", default="ingested", help="task label")
        subparser.add_argument("--shards", type=int, default=4)
        subparser.add_argument("--flush-delay", type=float, default=30.0)
        subparser.add_argument(
            "--window", type=float, default=3600.0, help="window size (s)"
        )
        subparser.add_argument(
            "--slide",
            type=float,
            help="window slide (s); defaults to --window (tumbling)",
        )
        subparser.add_argument(
            "--lateness", type=float, default=1800.0, help="allowed event lateness (s)"
        )
        subparser.add_argument(
            "--cell-deg", type=float, default=0.005, help="coverage cell size (deg)"
        )
        subparser.add_argument(
            "--history", type=int, default=256, help="windows retained per view"
        )

    def add_stream_queries(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--rate-below", type=float, help="alert when window rate < rec/s"
        )
        subparser.add_argument(
            "--coverage-stalled",
            type=int,
            help="alert when N consecutive windows add no new coverage cell",
        )
        subparser.add_argument(
            "--lag-p95-above", type=float, help="alert when ingest-lag p95 > seconds"
        )
        subparser.add_argument(
            "--value-p95-above", type=float, help="alert when value p95 > threshold"
        )

    stream_views = stream_commands.add_parser(
        "views", help="replay a CSV and print the closed windowed views"
    )
    add_stream_common(stream_views)
    stream_views.add_argument(
        "--last", type=int, default=12, help="windows shown per task"
    )
    stream_views.set_defaults(handler=cmd_stream_views)

    stream_alerts = stream_commands.add_parser(
        "alerts", help="replay with continuous queries; exit 1 if any fired"
    )
    add_stream_common(stream_alerts)
    add_stream_queries(stream_alerts)
    stream_alerts.set_defaults(handler=cmd_stream_alerts)

    stream_watch = stream_commands.add_parser(
        "watch", help="print every window as it closes (live dashboard)"
    )
    add_stream_common(stream_watch)
    add_stream_queries(stream_watch)
    stream_watch.add_argument("--limit", type=int, help="stop printing after N windows")
    stream_watch.set_defaults(handler=cmd_stream_watch)

    obs = commands.add_parser(
        "obs",
        help="observability: metrics dump / hot-path table / record traces "
        "(repro.obs)",
    )
    obs_commands = obs.add_subparsers(
        dest="obs_command",
        title="obs subcommands",
        required=True,
    )

    obs_dump = obs_commands.add_parser(
        "dump",
        help="replay a CSV through the record path, dump the metrics "
        "registry in the Prometheus text format",
    )
    add_stream_common(obs_dump)
    obs_dump.add_argument(
        "--json",
        action="store_true",
        help="emit the exposition as JSON rows instead of Prometheus text",
    )
    obs_dump.set_defaults(handler=cmd_obs_dump)

    obs_top = obs_commands.add_parser(
        "top", help="replay a CSV and print the hot-path latency table"
    )
    add_stream_common(obs_top)
    obs_top.add_argument(
        "--limit", type=int, default=10, help="stages shown (hottest first)"
    )
    obs_top.add_argument(
        "--json",
        action="store_true",
        help="emit the hot-path table as JSON rows",
    )
    obs_top.set_defaults(handler=cmd_obs_top)

    obs_trace = obs_commands.add_parser(
        "trace",
        help="replay a CSV with record tracing on, print end-to-end traces",
    )
    add_stream_common(obs_trace)
    obs_trace.add_argument(
        "--sample-rate",
        type=float,
        default=0.1,
        help="fraction of upload groups traced (systematic sampling)",
    )
    obs_trace.add_argument("--trace-id", type=int, help="show one trace only")
    obs_trace.add_argument(
        "--limit", type=int, default=3, help="trace trees printed"
    )
    obs_trace.set_defaults(handler=cmd_obs_trace)

    def add_scrape_common(subparser: argparse.ArgumentParser) -> None:
        add_stream_common(subparser)
        subparser.add_argument(
            "--cadence",
            type=float,
            default=60.0,
            help="scrape cadence in simulated seconds",
        )
        subparser.add_argument(
            "--retain", type=int, default=512, help="scrape frames retained"
        )

    def add_slo_common(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--slo-objective",
            type=float,
            default=0.99,
            help="good-ratio target for the stock SLO set",
        )
        subparser.add_argument(
            "--slo-long-window", type=float, default=3600.0, help=argparse.SUPPRESS
        )
        subparser.add_argument(
            "--slo-short-window", type=float, default=600.0, help=argparse.SUPPRESS
        )
        subparser.add_argument(
            "--slo-flush-threshold",
            type=float,
            default=0.025,
            help="flush-latency SLI threshold (wall seconds)",
        )
        subparser.add_argument(
            "--slo-max-staleness",
            type=float,
            default=None,
            help="freshness SLI: max watermark age (simulated seconds; "
            "default: twice the replay's drain horizon)",
        )

    obs_history = obs_commands.add_parser(
        "history",
        help="replay a CSV while scraping the registry on a sim-clock "
        "cadence, then query the metrics history",
    )
    add_scrape_common(obs_history)
    obs_history.add_argument(
        "--name", help="series family to query (omit to list everything)"
    )
    obs_history.add_argument(
        "--query-window",
        type=float,
        help="lookback for delta/rate (simulated seconds; default: all)",
    )
    obs_history.add_argument(
        "--last", type=int, default=5, help="trailing points printed per series"
    )
    obs_history.set_defaults(handler=cmd_obs_history)

    obs_slo = obs_commands.add_parser(
        "slo",
        help="replay a CSV evaluating the stock SLO set (availability, "
        "flush latency, view freshness) with multi-window burn rates",
    )
    add_scrape_common(obs_slo)
    add_slo_common(obs_slo)
    obs_slo.set_defaults(handler=cmd_obs_slo)

    obs_watch = obs_commands.add_parser(
        "watch",
        help="watch scrape frames + SLO transitions live over the "
        "serving tier's obs watch channel",
    )
    add_scrape_common(obs_watch)
    add_slo_common(obs_watch)
    obs_watch.add_argument(
        "--names",
        nargs="*",
        help="series-name prefixes pushed in each frame (default: all)",
    )
    obs_watch.add_argument(
        "--limit", type=int, help="frames rendered in full (default: all)"
    )
    obs_watch.add_argument(
        "--series-limit",
        type=int,
        default=8,
        help="series lines printed per rendered frame",
    )
    obs_watch.set_defaults(handler=cmd_obs_watch)

    serve = commands.add_parser(
        "serve",
        help="stand up the asyncio serving tier over a simulated campaign "
        "(repro.server)",
    )
    serve.add_argument("--users", type=int, default=20)
    serve.add_argument("--days", type=int, default=2)
    serve.add_argument("--period", type=float, default=600.0, help="sampling (s)")
    serve.add_argument(
        "--window", type=float, default=3600.0, help="dashboard window size (s)"
    )
    serve.add_argument(
        "--clients", type=int, default=3, help="in-process dashboard sessions"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=256, help="per-session push queue bound"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(handler=cmd_serve)

    federation = commands.add_parser(
        "federation", help="multi-hive scale-out operations (repro.federation)"
    )
    federation_commands = federation.add_subparsers(
        dest="federation_command",
        title="federation subcommands",
        required=True,
    )

    federation_run = federation_commands.add_parser(
        "run", help="run a federated campaign sharded across N hives"
    )
    federation_run.add_argument("--users", type=int, default=24)
    federation_run.add_argument("--days", type=int, default=1)
    federation_run.add_argument("--hives", type=int, default=3)
    federation_run.add_argument("--period", type=float, default=600.0)
    federation_run.add_argument(
        "--control-loss", type=float, default=0.0, help="inter-hive gossip loss prob"
    )
    federation_run.add_argument("--fail-hive", help="inject a failure of this member")
    federation_run.add_argument(
        "--fail-at-hours", type=float, default=6.0, help="outage start (hours)"
    )
    federation_run.add_argument(
        "--fail-for-hours", type=float, default=6.0, help="outage length (0 = forever)"
    )
    federation_run.add_argument("--seed", type=int, default=0)
    federation_run.set_defaults(handler=cmd_federation_run)

    federation_stats = federation_commands.add_parser(
        "stats", help="consistent-hash placement balance and join stability"
    )
    federation_stats.add_argument("--devices", type=int, default=2000)
    federation_stats.add_argument("--hives", type=int, default=4)
    federation_stats.add_argument("--replicas", type=int, default=128)
    federation_stats.set_defaults(handler=cmd_federation_stats)

    federation_query = federation_commands.add_parser(
        "query", help="shard a CSV across member stores, query federated"
    )
    federation_query.add_argument("--input", required=True, help="mobility CSV to shard")
    federation_query.add_argument("--task-name", default="ingested", help="task label")
    federation_query.add_argument("--hives", type=int, default=4)
    federation_query.add_argument("--shards", type=int, default=4)
    federation_query.add_argument("--segment-capacity", type=int, default=4096)
    federation_query.add_argument("--t0", type=float, help="inclusive start time (s)")
    federation_query.add_argument("--t1", type=float, help="exclusive end time (s)")
    federation_query.add_argument(
        "--bbox",
        type=float,
        nargs=4,
        metavar=("SOUTH", "WEST", "NORTH", "EAST"),
        help="spatial filter in decimal degrees",
    )
    federation_query.add_argument("--user", help="restrict to one user")
    federation_query.add_argument("--out", help="write matching rows as CSV")
    federation_query.add_argument(
        "--secure",
        action="store_true",
        help="also compute the task aggregate aggregator-obliviously "
        "(secure aggregation across the member stores) and cross-check it",
    )
    federation_query.add_argument(
        "--secure-protocol",
        default="auto",
        choices=["auto", "paillier", "masking"],
        help="per-participant protocol selection (auto = by device profile)",
    )
    federation_query.add_argument(
        "--key-bits", type=int, default=256, help="Paillier modulus size"
    )
    federation_query.set_defaults(handler=cmd_federation_query)

    privacy = commands.add_parser(
        "privacy", help="privacy-tier operations (secure aggregation)"
    )
    privacy_commands = privacy.add_subparsers(
        dest="privacy_command",
        title="privacy subcommands",
        required=True,
    )

    privacy_demo = privacy_commands.add_parser(
        "demo",
        help="run one secure-aggregation session with mid-session dropouts",
    )
    privacy_demo.add_argument("--devices", type=int, default=12)
    privacy_demo.add_argument("--dropouts", type=int, default=2)
    privacy_demo.add_argument(
        "--protocol", default="auto", choices=["auto", "paillier", "masking"]
    )
    privacy_demo.add_argument("--key-bits", type=int, default=256)
    privacy_demo.add_argument(
        "--battery-floor",
        type=float,
        default=0.3,
        help="devices below this battery level use the masking protocol",
    )
    privacy_demo.add_argument("--seed", type=int, default=0)
    privacy_demo.set_defaults(handler=cmd_privacy_demo)

    task = commands.add_parser(
        "task", help="task lifecycle operations (vet / describe a task spec)"
    )
    task_commands = task.add_subparsers(
        dest="task_command",
        title="task subcommands",
        required=True,
    )

    task_vet = task_commands.add_parser(
        "vet", help="dry-run a task's script and print its DryRunReport"
    )
    task_vet.add_argument(
        "--spec",
        required=True,
        help="python file exposing TASK or build_task(), optionally path.py:ATTR",
    )
    task_vet.add_argument("--samples", type=int, default=200, help="sampling ticks")
    task_vet.add_argument("--seed", type=int, default=0)
    task_vet.set_defaults(handler=cmd_task_vet)

    task_describe = task_commands.add_parser(
        "describe", help="print a task's static description and handlers"
    )
    task_describe.add_argument(
        "--spec",
        required=True,
        help="python file exposing TASK or build_task(), optionally path.py:ATTR",
    )
    task_describe.set_defaults(handler=cmd_task_describe)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
