"""The TSDB: ring-buffer semantics, the query layer, federation rollup."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import MetricsScraper, TimeSeriesStore, series_id
from repro.simulation import Simulator


def fill(store: TimeSeriesStore, points, name="m", labels=None):
    for t, value in points:
        store.record(name, t, value, labels)


class TestRingBuffer:
    def test_append_and_read_back(self):
        store = TimeSeriesStore(capacity=8)
        fill(store, [(1.0, 10.0), (2.0, 20.0), (3.0, 25.0)])
        series = store.series("m")
        assert list(series.t) == [1.0, 2.0, 3.0]
        assert list(series.values) == [10.0, 20.0, 25.0]
        assert series.latest() == (3.0, 25.0)

    def test_frames_must_advance_in_time(self):
        store = TimeSeriesStore(capacity=8)
        store.open_frame(5.0)
        with pytest.raises(ObsError, match="advance in time"):
            store.open_frame(5.0)
        with pytest.raises(ObsError, match="advance in time"):
            store.open_frame(4.0)

    def test_drop_oldest_keeps_newest_frames(self):
        store = TimeSeriesStore(capacity=4)
        fill(store, [(float(t), float(t) * 10) for t in range(1, 8)])
        assert store.n_frames == 4
        series = store.series("m")
        assert list(series.t) == [4.0, 5.0, 6.0, 7.0]
        assert store.frames_evicted == 3

    def test_mid_run_series_backfills_nan_and_reads_clean(self):
        store = TimeSeriesStore(capacity=8)
        store.append(1.0, {series_id("a"): 1.0})
        store.append(2.0, {series_id("a"): 2.0, series_id("b"): 9.0})
        late = store.series("b")
        # 'b' did not exist at t=1; its series holds only live samples.
        assert list(late.t) == [2.0]
        assert list(late.values) == [9.0]

    def test_label_sets_are_distinct_series(self):
        store = TimeSeriesStore(capacity=8)
        fill(store, [(1.0, 1.0)], labels={"instance": "a"})
        fill(store, [(2.0, 5.0)], labels={"instance": "b"})
        assert store.n_series == 2
        assert store.series("m", {"instance": "b"}).latest() == (2.0, 5.0)
        with pytest.raises(ObsError, match="ambiguous"):
            store.series("m")

    def test_eviction_accounting_invariant(self):
        """samples_appended == samples_retained + samples_evicted, always."""
        store = TimeSeriesStore(capacity=4)
        for t in range(1, 20):
            samples = {series_id("a"): float(t)}
            if t % 2:
                samples[series_id("b")] = float(t) * 2  # sparse series
            store.append(float(t), samples)
            assert (
                store.samples_appended
                == store.samples_retained + store.samples_evicted
            )
        assert store.samples_evicted > 0
        assert store.frames_appended == store.frames_evicted + store.n_frames


class TestQueryLayer:
    def test_delta_and_rate_over_window(self):
        store = TimeSeriesStore(capacity=16)
        fill(store, [(float(t), float(t) * 100) for t in range(1, 11)])
        assert store.delta("m") == pytest.approx(900.0)
        assert store.delta("m", window=3.0) == pytest.approx(300.0)
        assert store.rate("m", window=3.0) == pytest.approx(100.0)

    def test_delta_folds_label_sets_like_registry_total(self):
        store = TimeSeriesStore(capacity=16)
        fill(store, [(1.0, 0.0), (2.0, 10.0)], labels={"instance": "a"})
        fill(store, [(3.0, 5.0), (4.0, 11.0)], labels={"instance": "b"})
        assert store.delta("m") == pytest.approx(16.0)
        assert store.delta("m", labels={"instance": "b"}) == pytest.approx(6.0)

    def test_single_sample_window_has_no_delta(self):
        store = TimeSeriesStore(capacity=16)
        fill(store, [(1.0, 5.0)])
        assert store.delta("m") == 0.0
        assert store.rate("m") == 0.0

    def test_windowed_agg(self):
        store = TimeSeriesStore(capacity=16)
        fill(store, [(1.0, 4.0), (2.0, 8.0), (3.0, 6.0)])
        assert store.windowed_agg("m", "mean") == pytest.approx(6.0)
        assert store.windowed_agg("m", "max") == pytest.approx(8.0)
        assert store.windowed_agg("m", "min", window=1.5) == pytest.approx(6.0)
        assert store.windowed_agg("m", "last") == pytest.approx(6.0)
        assert store.windowed_agg("m", "count") == 3.0
        with pytest.raises(ObsError, match="unknown windowed agg"):
            store.windowed_agg("m", "median")

    def test_unknown_series_raises(self):
        store = TimeSeriesStore(capacity=4)
        with pytest.raises(ObsError, match="unknown series"):
            store.delta("nope")

    def test_histogram_quantile_over_time(self):
        """The quantile reads bucket *increases*, not whole-run totals."""
        registry = obs.metrics_registry()
        hist = registry.histogram("repro_q_seconds", "x", ("instance",)).labels(
            instance="a"
        )
        scraper = MetricsScraper(registry=registry, capacity=16)
        scraper.scrape(0.5)  # baseline: deltas only see scraped history
        # Window 1: everything fast.
        for _ in range(100):
            hist.observe(0.0002)
        scraper.scrape(1.0)
        # Window 2: everything slow.
        for _ in range(100):
            hist.observe(0.08)
        scraper.scrape(2.0)
        over_all = scraper.store.histogram_quantile(0.5, "repro_q_seconds")
        recent = scraper.store.histogram_quantile(
            0.5, "repro_q_seconds", window=1.0
        )
        # Over the full history the median straddles both modes; over
        # the last window only the slow mode exists.
        assert recent > 0.05
        assert over_all < recent

    def test_histogram_quantile_validates_q(self):
        store = TimeSeriesStore(capacity=4)
        with pytest.raises(ObsError, match="quantile"):
            store.histogram_quantile(1.5, "m")


class TestScrapedQueries:
    def test_scraper_emits_prometheus_conventional_series(self):
        registry = obs.metrics_registry()
        hist = registry.histogram("repro_h_seconds", "x", ("instance",)).labels(
            instance="a"
        )
        hist.observe(0.002)
        scraper = MetricsScraper(registry=registry, capacity=4)
        scraper.scrape(1.0)
        names = {key[0] for key in scraper.store.keys()}
        assert "repro_h_seconds_bucket" in names
        assert "repro_h_seconds_sum" in names
        assert "repro_h_seconds_count" in names
        count = scraper.store.series("repro_h_seconds_count")
        assert count.latest() == (1.0, 1.0)

    def test_callback_gauges_sample_live_values(self):
        registry = obs.metrics_registry()
        level = {"value": 3.0}
        registry.gauge("repro_level", "x", ("instance",)).labels(
            instance="a"
        ).set_function(lambda: level["value"])
        scraper = MetricsScraper(registry=registry, capacity=4)
        scraper.scrape(1.0)
        level["value"] = 7.0
        scraper.scrape(2.0)
        series = scraper.store.series("repro_level")
        assert list(series.values) == [3.0, 7.0]

    def test_scheduled_scrapes_follow_the_sim_clock(self):
        sim = Simulator()
        registry = obs.metrics_registry()
        counter = registry.counter("repro_c_total", "x", ("instance",)).labels(
            instance="a"
        )
        scraper = MetricsScraper(registry=registry, cadence=10.0, capacity=64)
        scraper.start(sim, until=55.0)
        sim.schedule(32.0, lambda: counter.inc(5))
        sim.run()
        series = scraper.store.series("repro_c_total")
        assert list(series.t) == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert scraper.store.delta("repro_c_total") == 5.0


class TestPerInstanceQueries:
    """``labels=`` is a subset match in every query, as in :meth:`select`:
    a query with only ``instance`` folds that component's other labels."""

    REFUSED = "repro_pipeline_records_refused_total"

    def test_instance_query_sums_the_outcome_series(self):
        from repro.apisense.hive import Hive
        from repro.apisense.honeycomb import Honeycomb
        from repro.apisense.tasks import SensingTask
        from repro.server import ReproServer
        from repro.store import DatasetStore, IngestPipeline
        from tests.server.conftest import connect, run
        from tests.server.test_channel import upload_window

        sim = Simulator()
        pipeline = IngestPipeline(sim, DatasetStore(), policy="reject", buffer_capacity=8)
        hive = Hive(sim, pipeline=pipeline)
        owner = Honeycomb("tests", hive)
        task = SensingTask(
            name="t", sensors=("gps",), sampling_period=60.0, upload_period=300.0
        )
        owner.register_task(task)
        hive.adopt_task(task, owner)
        scraper = MetricsScraper(capacity=16)
        server = ReproServer(hive, sim=sim, scraper=scraper)
        instance = {"instance": pipeline.obs.instance}

        async def scenario():
            client = await connect(server)
            scraper.scrape(1.0)
            for window in (0, 1):
                assert upload_window(hive, window, n=6) == 6
                assert upload_window(hive, window, n=6) == 0  # bounced whole
                pipeline.flush_all()
                scraper.scrape(3.0 + 2 * window)
            return await client.obs_history(self.REFUSED, labels=instance)

        history = run(scenario())
        store = scraper.store
        outcomes = [
            store.delta(self.REFUSED, {**instance, "outcome": outcome})
            for outcome in ("rejected", "dropped")
        ]
        assert outcomes == [12.0, 0.0]
        assert store.delta(self.REFUSED, instance) == sum(outcomes)
        assert store.rate(self.REFUSED, instance) == pytest.approx(12.0 / 4.0)
        assert store.windowed_agg(self.REFUSED, "max", instance) == 12.0
        assert sorted(e["labels"]["outcome"] for e in history["series"]) == [
            "dropped",
            "rejected",
        ]
        assert history["rate"] == pytest.approx(12.0 / 4.0)
        with pytest.raises(ObsError, match="unknown series"):
            store.delta(self.REFUSED, {"instance": "pipeline-99"})
