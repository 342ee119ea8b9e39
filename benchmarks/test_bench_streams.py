"""Streaming tier: view-maintenance cost and live-vs-batch convergence.

Two claims anchor the streaming tier:

1. **Flat maintenance cost.**  Views share pane state — per record the
   engine updates exactly one pane, and registered windows are only
   assembled (pane-merge) at close time.  Registering more windowed
   views must therefore leave the per-record ingest cost ~flat, not
   multiply it.

2. **Live == batch.**  The windowed views maintained incrementally at
   flush time must converge to a batch scan of the columnar store over
   the same windows: counts/users/cells exactly, percentiles within
   sketch(-merge) tolerance — on a fixed-seed 1k-device upload
   workload, both on a single hive and merged across a 4-hive
   federation by :class:`~repro.federation.streams.FederatedStreamMerger`.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import record_rows
from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.federation import FederatedDataset, FederatedStreamMerger, FederationRouter
from repro.geo.point import GeoPoint
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import StreamEngine, WindowSpec
from repro.units import DAY

N_DEVICES = 1000
UPLOADS_PER_DEVICE = 4
RECORDS_PER_UPLOAD = 6
N_RECORDS = N_DEVICES * UPLOADS_PER_DEVICE * RECORDS_PER_UPLOAD
TASK_NAME = "stream-bench"
WINDOW = 1800.0
VIEW_COUNTS = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def upload_batches() -> list[tuple[str, str, list[SensorRecord]]]:
    """The fixed-seed 1k-device upload workload, in arrival order."""
    batches = []
    for tick in range(UPLOADS_PER_DEVICE):
        for d in range(N_DEVICES):
            device_id = f"dev-{d:04d}"
            user = f"user-{d:04d}"
            base = tick * WINDOW
            batches.append(
                (
                    device_id,
                    user,
                    [
                        SensorRecord(
                            device_id=device_id,
                            user=user,
                            task=TASK_NAME,
                            time=base + 300.0 * i,
                            values={
                                "gps": GeoPoint(
                                    44.8 + 0.0004 * ((d * 7 + i) % 200),
                                    -0.6 + 0.0004 * ((d * 13 + i) % 200),
                                ),
                                "noise_db": float((d * 17 + tick * 5 + i) % 90),
                            },
                        )
                        for i in range(RECORDS_PER_UPLOAD)
                    ],
                )
            )
    return batches


def fresh_engine(sim: Simulator, n_views: int) -> StreamEngine:
    """An engine with ``n_views`` windowed views over shared panes."""
    engine = StreamEngine(
        sim=sim, pane_seconds=WINDOW, allowed_lateness=2 * WINDOW, history=128
    )
    engine.register_view("tumbling", WindowSpec.tumbling(WINDOW))
    for extra in range(1, n_views):
        engine.register_view(
            f"rolling-{extra}", WindowSpec.sliding((extra + 1) * WINDOW, WINDOW)
        )
    return engine


def run_stream(batches, n_views: int) -> tuple[StreamEngine, float]:
    """Push the workload through pipeline+engine; returns (engine, secs)."""
    sim = Simulator()
    store = DatasetStore(n_shards=4, segment_capacity=4096)
    pipeline = IngestPipeline(sim, store, flush_delay=0.2)
    engine = fresh_engine(sim, n_views).attach(pipeline)
    started = time.perf_counter()
    now = 0.0
    for _device_id, _user, records in batches:
        now = max(now, records[0].time)
        sim.run_until(now)
        pipeline.submit(records)
    sim.run()
    pipeline.flush_all()
    engine.finalize()
    elapsed = time.perf_counter() - started
    return engine, elapsed


@pytest.mark.benchmark(group="streams")
def test_bench_view_maintenance_flat_per_record(benchmark, upload_batches):
    """Per-record maintenance cost stays ~flat as views multiply."""

    def sweep():
        costs = {}
        for n_views in VIEW_COUNTS:
            engine, elapsed = run_stream(upload_batches, n_views)
            assert engine.stats.records_seen == N_RECORDS
            assert engine.stats.late_records == 0
            costs[n_views] = (elapsed, engine.stats.windows_emitted)
        return costs

    costs = benchmark.pedantic(sweep, iterations=1, rounds=2)
    per_record = {
        n: elapsed / N_RECORDS * 1e6 for n, (elapsed, _) in costs.items()
    }
    rows = [
        {
            "views": n,
            "records": N_RECORDS,
            "us_per_record": round(per_record[n], 3),
            "windows_emitted": costs[n][1],
            "vs_1_view": round(per_record[n] / per_record[1], 2),
        }
        for n in VIEW_COUNTS
    ]
    record_rows(
        benchmark,
        rows,
        claim="pane sharing keeps per-record view maintenance ~flat",
    )
    # 8x the views must cost far less than 8x per record; the bound is
    # loose (CI noise) but firmly sub-linear.
    assert per_record[8] <= 3.0 * per_record[1]


def route_through_hive(hive: Hive, batches) -> None:
    owner = Honeycomb("stream-lab", hive)
    task = SensingTask(
        name=TASK_NAME,
        sensors=("gps",),
        sampling_period=300.0,
        upload_period=WINDOW,
        end=DAY,
    )
    owner.register_task(task)
    hive.adopt_task(task, owner)
    sim = hive.sim
    now = 0.0
    for device_id, user, records in batches:
        now = max(now, records[0].time)
        sim.run_until(now)
        hive.receive_upload(device_id, user, TASK_NAME, records)
    sim.run()
    hive.pipeline.flush_all()
    hive.streams.finalize()


@pytest.mark.benchmark(group="streams")
def test_bench_live_views_converge_single_hive(benchmark, upload_batches):
    """Live windowed aggregates == batch scan, one 1k-device hive."""

    def run() -> Hive:
        sim = Simulator()
        hive = Hive(sim, streams=fresh_engine(sim, 1))
        hive.streams.register_view("rolling", WindowSpec.sliding(2 * WINDOW, WINDOW))
        route_through_hive(hive, upload_batches)
        return hive

    hive = benchmark.pedantic(run, iterations=1, rounds=2)
    engine, store = hive.streams, hive.store
    snapshots = engine.snapshots(TASK_NAME, "tumbling")
    assert sum(s.records for s in snapshots) == N_RECORDS == store.n_records

    mismatches = 0
    for snapshot in snapshots:
        batch = store.scan(TASK_NAME, t0=snapshot.start, t1=snapshot.end)
        if snapshot.records != len(batch):
            mismatches += 1
        if snapshot.n_users != len(set(batch.user_names())):
            mismatches += 1
        live_cells = {
            (int(np.floor(lat / engine.cell_deg)), int(np.floor(lon / engine.cell_deg)))
            for lat, lon in zip(batch.lat, batch.lon)
            if not np.isnan(lat)
        }
        if set(snapshot.cells) != live_cells:
            mismatches += 1
    assert mismatches == 0

    # Percentiles: merged live sketches vs the pooled scanned values.
    from repro.store.quantiles import QuantileSketch

    merged = QuantileSketch.merge([s.value_sketch for s in snapshots])
    exact = float(np.percentile(store.scan(TASK_NAME).value, 95.0))
    assert merged.quantile(0.95) == pytest.approx(exact, abs=5.0)

    record_rows(
        benchmark,
        [
            {
                "hives": 1,
                "records": N_RECORDS,
                "windows": len(snapshots),
                "exact_count_match": True,
                "value_p95_live": round(merged.quantile(0.95), 2),
                "value_p95_batch": round(exact, 2),
            }
        ],
        claim="live windowed views equal batch scans, single hive",
    )


@pytest.mark.benchmark(group="streams")
def test_bench_live_views_converge_federated(benchmark, upload_batches):
    """Merged live views across a 4-hive federation == ground truth."""
    N_HIVES = 4

    def run() -> FederationRouter:
        sim = Simulator()
        router = FederationRouter(sim)
        for index in range(N_HIVES):
            hive = Hive(sim, streams=fresh_engine(sim, 1), seed=index)
            router.join(f"hive-{index}", hive)
        owner = Honeycomb("stream-lab", router.hive("hive-0"))
        task = SensingTask(
            name=TASK_NAME,
            sensors=("gps",),
            sampling_period=300.0,
            upload_period=WINDOW,
            end=DAY,
        )
        router.syndicate(task, owner, home="hive-0")
        now = 0.0
        for device_id, user, records in upload_batches:
            now = max(now, records[0].time)
            sim.run_until(now)
            router.route_upload(device_id, user, TASK_NAME, records)
        sim.run()
        for name in router.member_names:
            router.hive(name).pipeline.flush_all()
            router.hive(name).streams.finalize()
        return router

    router = benchmark.pedantic(run, iterations=1, rounds=2)
    merger = FederatedStreamMerger.from_router(router)
    federated = FederatedDataset.from_router(router)
    history = merger.history(TASK_NAME, "tumbling")

    # Counts and cells: exact equality against the federated batch scan.
    assert sum(s.records for s in history) == N_RECORDS == federated.n_records
    mismatches = 0
    for snapshot in history:
        batch = federated.scan(TASK_NAME, t0=snapshot.start, t1=snapshot.end)
        if snapshot.records != len(batch):
            mismatches += 1
        if snapshot.n_users != len(set(batch.user_names())):
            mismatches += 1
    assert mismatches == 0
    live_cells = set().union(*(s.cells for s in history))
    agg = federated.aggregate(TASK_NAME)
    assert len(live_cells) == agg.coverage_cells

    # Percentiles across the federation: the exact merge of the members.
    from repro.store.quantiles import QuantileSketch

    merged = QuantileSketch.merge([s.value_sketch for s in history])
    exact = float(np.percentile(federated.scan(TASK_NAME).value, 95.0))
    assert merged.quantile(0.95) == pytest.approx(exact, abs=5.0)

    per_member = {
        name: router.hive(name).streams.stats.records_seen
        for name in router.member_names
    }
    record_rows(
        benchmark,
        [
            {
                "hives": N_HIVES,
                "records": N_RECORDS,
                "windows_merged": len(history),
                "max_member_share": max(per_member.values()),
                "value_p95_live": round(merged.quantile(0.95), 2),
                "value_p95_batch": round(exact, 2),
            }
        ],
        claim="federated live dashboard equals pooled ground truth",
    )
