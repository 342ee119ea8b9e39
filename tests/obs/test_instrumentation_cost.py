"""What watching the platform costs, as counts rather than seconds.

The registry's design constraints (:mod:`repro.obs.registry`) are a
*mechanism* — children resolved once at wiring, one clock pair per
flush / append / window close and none per record, one fused column
write per scrape — and a mechanism is countable.  These tests drive
N devices x 4 upload ticks x R records through ``Hive.receive_upload``
-> pipeline -> store -> one tumbling view with ``time.perf_counter``,
``_Family.labels`` and ``Counter.inc`` behind counting shims, and pin
the counts: the same integers on every host and every run, where a
wall-clock budget could not tell a 3x regression from a busy machine.

Seconds are the end-to-end benchmark's business
(``python3 benchmarks/e2e/run.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from repro import obs
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.obs.registry import Counter as RegistryCounter
from repro.obs.registry import _Family
from repro.obs.timeseries import MetricsScraper, TimeSeriesStore
from repro.server.protocol import snapshot_digest
from repro.simulation import Simulator
from repro.store import DatasetStore
from repro.streams import StreamEngine, WindowSpec
from repro.units import DAY
from tests.conftest import Calls
from tests.obs.conftest import stored_columns
from tests.store.conftest import make_record

TICKS = 4
WINDOW = 1800.0
VIEW = "tumbling"
TASK = "cost"


@pytest.fixture()
def calls(calls: Calls, monkeypatch) -> Calls:
    # Every timed path reads the clock as ``time.perf_counter()`` (an
    # attribute of the module at call time), so one shim sees them all.
    calls.shim(monkeypatch, time, "perf_counter")
    calls.shim(monkeypatch, _Family, "labels")
    calls.shim(monkeypatch, RegistryCounter, "inc")
    calls.shim(monkeypatch, DatasetStore, "append")
    return calls


@dataclass
class Replay:
    clock_reads: int
    label_lookups: int
    counter_incs: int
    #: ``*_seconds`` family -> observations, for every family that timed anything.
    timed: dict[str, int]
    flushes: int
    appends: int
    windows: int
    scrapes: int
    stored: tuple
    snapshots: list


def replay(
    calls: Calls,
    n_devices: int,
    per_upload: int,
    *,
    metrics: bool,
    scrape_every: float | None = None,
) -> Replay:
    """One pass of the workload; the counts cover the driven part only
    (wiring resolves its children before, the read-back scans after)."""
    obs.reset(metrics=metrics, tracing=False)
    sim = Simulator()
    engine = StreamEngine(sim=sim, pane_seconds=WINDOW, allowed_lateness=0.0)
    engine.register_view(VIEW, WindowSpec.tumbling(WINDOW))
    hive = Hive(sim, streams=engine)
    owner = Honeycomb("cost", hive)
    step = WINDOW / per_upload
    task = SensingTask(
        name=TASK,
        sensors=("gps",),
        sampling_period=step,
        upload_period=WINDOW,
        end=DAY,
    )
    owner.register_task(task)
    hive.adopt_task(task, owner)
    scraper = None
    if scrape_every is not None:
        scraper = MetricsScraper(cadence=scrape_every)
        scraper.start(sim, until=TICKS * WINDOW)

    calls.clear()
    for tick in range(TICKS):
        sim.run_until(tick * WINDOW)  # drain the last tick's flush timers
        for d in range(n_devices):
            user = f"u{d:04d}"
            records = [
                make_record(
                    user=user,
                    task=TASK,
                    time=tick * WINDOW + step * i,
                    lat=44.8 + 0.0004 * ((d * 7 + i) % 200),
                    lon=-0.6 + 0.0004 * ((d * 13 + i) % 200),
                    value=float((d * 17 + tick * 5 + i) % 90),
                )
                for i in range(per_upload)
            ]
            accepted = hive.receive_upload(f"dev-{user}", user, TASK, records)
            assert accepted == per_upload
    sim.run()
    hive.pipeline.flush_all()
    engine.finalize()
    # The counts first: the read-back scan below is itself timed.
    result = Replay(
        clock_reads=calls["perf_counter"],
        label_lookups=calls["labels"],
        counter_incs=calls["inc"],
        timed={
            stage.stage.partition("{")[0]: stage.count for stage in obs.hot_paths()
        },
        flushes=hive.pipeline.stats.flushes,
        appends=calls["append"],
        windows=engine.stats.windows_emitted,
        scrapes=scraper.stats.scrapes if scraper is not None else 0,
        stored=stored_columns(hive.store, TASK),
        snapshots=[snapshot_digest(s) for s in engine.snapshots(TASK, VIEW)],
    )
    assert hive.store.n_records == n_devices * TICKS * per_upload
    return result


class TestRecordPathCost:
    def test_metrics_off_reads_no_clock_and_changes_nothing_stored(self, calls):
        off = replay(calls, 200, 6, metrics=False)
        assert (off.clock_reads, off.timed, off.label_lookups) == (0, {}, 0)
        on = replay(calls, 200, 6, metrics=True)
        assert off.stored == on.stored
        assert off.snapshots == on.snapshots and len(on.snapshots) == TICKS

    @pytest.mark.parametrize(
        "n_devices, per_upload", [(200, 6), (200, 36), (1000, 6)]
    )
    def test_metrics_on_pay_per_flush_never_per_record(
        self, calls, n_devices, per_upload
    ):
        run = replay(calls, n_devices, per_upload, metrics=True)
        # One timed observation per flush, per store append and per
        # window close; one clock pair per observation.
        assert run.timed == {
            "repro_pipeline_flush_seconds": run.flushes,
            "repro_store_append_seconds": run.appends,
            "repro_stream_window_close_seconds": run.windows,
        }
        assert run.clock_reads == 2 * sum(run.timed.values())
        # Children were resolved at wiring: no look-up on the hot path.
        assert run.label_lookups == 0
        # 4 shards x 4 ticks flush (and append) once each, 4 windows
        # close: the same 72 reads at 6x the records and 5x the devices.
        assert (run.flushes, run.appends, run.windows) == (16, 16, 4)
        assert run.clock_reads == 72

    @pytest.mark.parametrize("metrics", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "n_devices, per_upload", [(200, 6), (200, 36), (1000, 6)]
    )
    def test_one_counter_increment_per_store_append(
        self, calls, n_devices, per_upload, metrics
    ):
        # The pipeline's and the engine's counts are read from their
        # stats objects, never mirrored: the one registry increment left
        # on the record path is the store's own, once per append.
        run = replay(calls, n_devices, per_upload, metrics=metrics)
        assert run.counter_incs == run.appends == 16


class TestScrapeCost:
    def test_a_scraper_beside_the_replay_costs_the_record_path_nothing(self, calls):
        plain = replay(calls, 200, 6, metrics=True)
        scraped = replay(calls, 200, 6, metrics=True, scrape_every=60.0)
        assert (plain.scrapes, scraped.scrapes) == (0, TICKS * WINDOW / 60.0)
        assert scraped.clock_reads == plain.clock_reads
        assert scraped.label_lookups == 0
        assert scraped.timed == plain.timed
        assert scraped.stored == plain.stored
        assert scraped.snapshots == plain.snapshots

    @pytest.mark.parametrize("n_series", [100, 400, 1600])
    def test_one_scrape_is_one_frame_and_one_fused_write(
        self, calls, monkeypatch, n_series
    ):
        registry = obs.metrics_registry()
        levels = registry.gauge("repro_cost_level", "synthetic", ("instance",))
        for index in range(n_series - 20):
            levels.labels(instance=f"s-{index:04d}").set(float(index))
        # Every reader kind: a callback gauge, a counter and a histogram
        # (17 bucket/sum/count columns) beside the plain gauges.
        levels.labels(instance="live").set_function(lambda: 1.0)
        registry.counter("repro_cost_total", "synthetic").labels().inc()
        registry.histogram("repro_cost_seconds", "synthetic").labels().observe(0.01)
        for name in ("open_frame", "write", "write_one"):
            calls.shim(monkeypatch, TimeSeriesStore, name)
        calls.shim(monkeypatch, MetricsScraper, "_rebuild_readers")
        calls.clear()

        scraper = MetricsScraper(capacity=32)
        scraper.scrape(0.5)  # resolves readers and columns, once
        assert calls["rebuild_readers"] == 1
        scrapes = 40  # past the ring's capacity: eviction costs no write
        for k in range(1, scrapes):
            scraper.scrape(0.5 + k)
        assert scraper.store.n_series == n_series
        assert scraper.stats.scrapes == scrapes
        assert calls["open_frame"] == calls["write"] == scrapes
        assert calls["write_one"] == 0
        assert calls["rebuild_readers"] == 1
        assert scraper.stats.samples == scrapes * n_series
        assert calls["perf_counter"] == calls["labels"] == 0
