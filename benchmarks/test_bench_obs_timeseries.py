"""Metrics history tier: what does *remembering* the metrics cost?

The scraper samples the whole registry on a 1-simulated-second cadence
while the fixed-seed 1k-device workload runs (the same shape as
``test_bench_obs``, compressed to a ~300-sim-second horizon so the
cadence yields ~300 scrape frames over 200+ live series).  The headline
number is what one scrape costs (time spent scraping / scrapes) — the
budget is an absolute :data:`SCRAPE_BUDGET_US` per scrape, asserted on
measurement runs only (``REPRO_BENCH_ENFORCE=1``, see
``benchmarks/conftest.py``).  The same seconds as a share of the plain
replay's wall clock are reported, not asserted: a faster ingest path
raises that share without the scraper doing anything more.

Two companion experiments:

- **series scaling** — per-scrape wall time at 100/400/1600 live
  series (the columnar batched write should scale sub-linearly in
  Python-overhead terms);
- **watch fan-out** — per-frame delivery time through the serving
  tier's ``obs watch`` channel to 8 live subscribers.

Results persist to the tracked ``BENCH_obs_timeseries.json`` so the
trajectory stays diffable (``repro obs bench-diff``); CI gates on the
per-scrape cost.
"""

import asyncio
import time
from pathlib import Path

import pytest

from benchmarks.conftest import ENFORCE_BUDGETS, record_rows, write_tracked
from repro import obs
from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.geo.point import GeoPoint
from repro.server import ReproServer, ServerClient
from repro.simulation import Simulator
from repro.streams import StreamEngine, WindowSpec
from repro.units import DAY

N_DEVICES = 1000
UPLOADS_PER_DEVICE = 4
RECORDS_PER_UPLOAD = 6
N_RECORDS = N_DEVICES * UPLOADS_PER_DEVICE * RECORDS_PER_UPLOAD
#: Compressed window: 4 windows x 75s = a ~300-sim-second horizon, so
#: the 1s cadence produces ~300 scrapes across the replay.
WINDOW = 75.0
CADENCE = 1.0
VIEW = "tumbling"
TASK_NAME = "tsdb-bench"
ROUNDS = 3
#: Synthetic fleet gauges padding the registry to >=200 live series.
N_FLEET_GAUGES = 150
MIN_SERIES = 200
#: Wall-clock budget of one scrape of the >=200-series registry, about
#: twice what it costs (~27 us at 255 series): a bar on the scraper's own
#: work, where a share of the replay's wall would tighten whenever
#: ingest got faster.
SCRAPE_BUDGET_US = 60.0
RESULTS = Path(__file__).resolve().parents[1] / "BENCH_obs_timeseries.json"


@pytest.fixture(scope="module")
def upload_batches() -> list[tuple[str, str, list[SensorRecord]]]:
    """The fixed-seed 1k-device upload workload, in arrival order."""
    step = WINDOW / RECORDS_PER_UPLOAD
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
                            time=base + step * i,
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


def _pad_registry() -> None:
    """Synthetic per-device fleet gauges: guarantees >=200 live series."""
    fam = obs.metrics_registry().gauge(
        "repro_bench_fleet_level", "synthetic fleet gauge", ("instance",)
    )
    for index in range(N_FLEET_GAUGES):
        fam.labels(instance=f"fleet-{index:03d}").set(float(index % 100))


def _replay(batches, *, scrape: bool) -> dict:
    """One metrics-on workload pass, with or without the scraper."""
    obs.reset(metrics=True, tracing=False)
    _pad_registry()
    sim = Simulator()
    engine = StreamEngine(
        sim=sim, pane_seconds=WINDOW, allowed_lateness=0.0, history=128
    )
    engine.register_view(VIEW, WindowSpec.tumbling(WINDOW))
    hive = Hive(sim, streams=engine)
    owner = Honeycomb("tsdb-bench", hive)
    task = SensingTask(
        name=TASK_NAME,
        sensors=("gps",),
        sampling_period=WINDOW / RECORDS_PER_UPLOAD,
        upload_period=WINDOW,
        end=DAY,
    )
    owner.register_task(task)
    hive.adopt_task(task, owner)
    horizon = UPLOADS_PER_DEVICE * WINDOW + 2.0
    scraper = None
    scrape_seconds = 0.0
    if scrape:
        # Retention sized to the replay: ~302 frames at 1s cadence.
        scraper = obs.MetricsScraper(cadence=CADENCE, capacity=320)
        # Time every scrape from inside: the A/B wall-clock delta of two
        # ~0.5s replays sits below scheduler noise, the accumulated
        # in-scraper time does not.
        inner = scraper.scrape

        def timed_scrape(now=None):
            nonlocal scrape_seconds
            t0 = time.perf_counter()
            frame = inner(now)
            scrape_seconds += time.perf_counter() - t0
            return frame

        scraper.scrape = timed_scrape
        scraper.start(sim, until=horizon)

    started = time.perf_counter()
    now = 0.0
    for device_id, user, records in batches:
        at = records[0].time
        if at > now:
            now = at
            sim.run_until(now)
        hive.receive_upload(device_id, user, TASK_NAME, records)
    sim.run()
    hive.pipeline.flush_all()
    engine.finalize()
    elapsed = time.perf_counter() - started

    result = {
        "elapsed": elapsed,
        "stored": hive.store.n_records,
        "windows": len(engine.snapshots(TASK_NAME, VIEW)),
    }
    if scraper is not None:
        result["scrapes"] = scraper.stats.scrapes
        result["samples"] = scraper.stats.samples
        result["series"] = scraper.store.n_series
        result["scrape_seconds"] = scrape_seconds
    return result


def _best_of(batches, rounds: int, **posture) -> dict:
    runs = [_replay(batches, **posture) for _ in range(rounds)]
    best = dict(min(runs, key=lambda r: r["elapsed"]))
    assert all(r["stored"] == best["stored"] for r in runs)
    if "scrape_seconds" in best:  # same best-of-N treatment as the walls
        best["scrape_seconds"] = min(r["scrape_seconds"] for r in runs)
    return best


def _series_scaling() -> list[dict]:
    """Per-scrape wall time as the live-series count grows."""
    rows = []
    for n_series in (100, 400, 1600):
        obs.reset(metrics=True, tracing=False)
        fam = obs.metrics_registry().gauge(
            "repro_bench_scaling_level", "synthetic", ("instance",)
        )
        for index in range(n_series):
            fam.labels(instance=f"s-{index:04d}").set(float(index))
        scraper = obs.MetricsScraper(capacity=256)
        scraper.scrape(0.5)  # readers cached, columns resolved
        n_scrapes = 500
        started = time.perf_counter()
        for k in range(n_scrapes):
            scraper.scrape(1.0 + k)
        elapsed = time.perf_counter() - started
        assert scraper.store.n_series >= n_series
        rows.append(
            {
                "series": scraper.store.n_series,
                "scrapes": n_scrapes,
                "per_scrape_us": round(elapsed / n_scrapes * 1e6, 2),
            }
        )
    return rows


def _watch_fanout(n_watchers: int = 8, n_frames: int = 50) -> dict:
    """Per-frame delivery time to ``n_watchers`` obs-watch subscribers."""
    obs.reset(metrics=True, tracing=False)
    _pad_registry()
    sim = Simulator()
    engine = StreamEngine(sim=sim, pane_seconds=WINDOW, allowed_lateness=0.0)
    engine.register_view(VIEW, WindowSpec.tumbling(WINDOW))
    hive = Hive(sim, streams=engine)
    scraper = obs.MetricsScraper(cadence=CADENCE, capacity=256)
    server = ReproServer(hive, sim=sim, scraper=scraper)

    async def scenario() -> tuple[float, list[int]]:
        clients = []
        for _ in range(n_watchers):
            client = ServerClient(server.connect_in_process())
            await client.connect()
            await client.watch_obs()
            clients.append(client)
        started = time.perf_counter()
        for k in range(n_frames):
            scraper.scrape(1.0 + k)
        await server.drain()
        await asyncio.sleep(0)
        counts = []
        for client in clients:
            pushes = client.drain_pushes()
            counts.append(
                sum(1 for p in pushes if p.get("kind") == "obs_frame")
            )
        elapsed = time.perf_counter() - started
        for client in clients:
            await client.close()
        return elapsed, counts

    elapsed, counts = asyncio.run(scenario())
    assert counts == [n_frames] * n_watchers  # exactly once, everyone
    return {
        "watchers": n_watchers,
        "frames": n_frames,
        "per_frame_us": round(elapsed / n_frames * 1e6, 2),
        "per_delivery_us": round(
            elapsed / (n_frames * n_watchers) * 1e6, 2
        ),
    }


@pytest.mark.benchmark(group="obs")
def test_bench_scraper_overhead_scaling_and_fanout(benchmark, upload_batches):
    """One scrape of 200+ live series stays within its absolute budget."""
    _replay(upload_batches, scrape=True)  # warmup: caches, allocator
    baseline = _best_of(upload_batches, ROUNDS, scrape=False)
    scraped = benchmark.pedantic(
        lambda: _best_of(upload_batches, ROUNDS, scrape=True),
        iterations=1,
        rounds=1,
    )
    for result in (baseline, scraped):
        assert result["stored"] == N_RECORDS
        assert result["windows"] == UPLOADS_PER_DEVICE
    assert scraped["series"] >= MIN_SERIES
    assert scraped["scrapes"] >= 295  # ~one per simulated second

    # The headline: time actually spent scraping, per scrape.  Its
    # share of the plain replay's wall clock and the A/B wall delta are
    # recorded too, but the first moves with ingest speed and the
    # second is a ~5ms signal inside two runs' scheduler noise.
    per_scrape_us = scraped["scrape_seconds"] / scraped["scrapes"] * 1e6
    overhead_pct = scraped["scrape_seconds"] / baseline["elapsed"] * 100.0
    wall_delta_pct = (
        (scraped["elapsed"] - baseline["elapsed"]) / baseline["elapsed"] * 100.0
    )
    if ENFORCE_BUDGETS:
        assert per_scrape_us <= SCRAPE_BUDGET_US, (
            f"one scrape cost {per_scrape_us:.1f}us (budget: {SCRAPE_BUDGET_US}us)"
        )
    scaling = _series_scaling()
    fanout = _watch_fanout()

    record_rows(
        benchmark,
        scaling,
        claim=f"one scrape of 200+ series costs <={SCRAPE_BUDGET_US}us",
        wall_seconds_plain=round(baseline["elapsed"], 3),
        wall_seconds_scraped=round(scraped["elapsed"], 3),
        scrape_wall_us=round(per_scrape_us, 2),
        scrape_overhead_pct=round(overhead_pct, 2),
        live_series=scraped["series"],
        scrapes=scraped["scrapes"],
    )

    write_tracked(
        RESULTS,
        {
            "bench": "obs-timeseries-scrape-overhead",
            "devices": N_DEVICES,
            "records": N_RECORDS,
            "cadence_s": CADENCE,
            "rounds": ROUNDS,
            "live_series": scraped["series"],
            "scrapes": scraped["scrapes"],
            "samples": scraped["samples"],
            "wall_seconds_plain": round(baseline["elapsed"], 3),
            "wall_seconds_scraped": round(scraped["elapsed"], 3),
            "scrape_seconds": round(scraped["scrape_seconds"], 4),
            "scrape_wall_us": round(per_scrape_us, 2),
            "scrape_overhead_pct": round(overhead_pct, 2),
            "wall_delta_pct": round(wall_delta_pct, 2),
            "series_scaling": scaling,
            "watch_fanout": fanout,
        },
    )
    obs.reset()
