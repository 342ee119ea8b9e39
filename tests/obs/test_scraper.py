"""Scraper robustness: disabled registries, stalled clocks, eviction.

The satellite contract (mirroring ``test_health_reconciliation``'s
style): every sample the scraper ever wrote is *somewhere* —
``samples_appended == samples_retained + samples_evicted`` — and the
skip paths (registry off, clock stalled) are counted, never silent.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import MetricsScraper, TimeSeriesStore, instance_select
from repro.simulation import Simulator


def make_workload():
    registry = obs.metrics_registry()
    counter = registry.counter("repro_w_total", "x", ("instance",)).labels(
        instance="a"
    )
    hist = registry.histogram("repro_w_seconds", "x", ("instance",)).labels(
        instance="a"
    )
    return registry, counter, hist


class TestDisabledRegistry:
    def test_disabled_registry_scrape_is_a_counted_noop(self):
        registry, counter, _ = make_workload()
        scraper = MetricsScraper(registry=registry, capacity=8)
        counter.inc()
        assert scraper.scrape(1.0) is not None
        registry.enabled = False  # toggled off mid-run
        assert scraper.scrape(2.0) is None
        assert scraper.scrape(3.0) is None
        registry.enabled = True
        assert scraper.scrape(4.0) is not None
        stats = scraper.stats
        assert stats.scrapes == 2
        assert stats.skipped_disabled == 2
        # No frame was written while disabled.
        assert list(scraper.store.series("repro_w_total").t) == [1.0, 4.0]

    def test_disabled_period_never_fabricates_samples(self):
        registry, counter, _ = make_workload()
        scraper = MetricsScraper(registry=registry, capacity=8)
        scraper.scrape(1.0)
        registry.enabled = False
        counter.inc(100)  # counted, but no frame is taken while disabled
        scraper.scrape(2.0)
        registry.enabled = True
        scraper.scrape(3.0)
        store = scraper.store
        assert (
            store.samples_appended
            == store.samples_retained + store.samples_evicted
        )


class TestStalledClock:
    def test_same_timestamp_never_writes_twice(self):
        registry, counter, _ = make_workload()
        scraper = MetricsScraper(registry=registry, capacity=8)
        assert scraper.scrape(5.0) is not None
        counter.inc()
        assert scraper.scrape(5.0) is None  # clock did not advance
        assert scraper.scrape(4.0) is None  # ...or went backwards
        assert scraper.stats.skipped_clock == 2
        series = scraper.store.series("repro_w_total")
        assert list(series.t) == [5.0]

    def test_scheduled_scrapes_with_frozen_clock(self):
        """A periodic event on a clock wired to a constant never dupes."""
        registry, _, _ = make_workload()
        scraper = MetricsScraper(
            registry=registry, cadence=1.0, capacity=8, clock=lambda: 42.0
        )
        for _ in range(5):
            scraper.scrape()
        assert scraper.stats.scrapes == 1
        assert scraper.stats.skipped_clock == 4
        assert scraper.store.n_frames == 1


class TestEvictionAccounting:
    def test_scraped_equals_retained_plus_evicted(self):
        registry, counter, hist = make_workload()
        scraper = MetricsScraper(registry=registry, capacity=4)
        for t in range(1, 25):
            counter.inc()
            hist.observe(0.001 * t)
            scraper.scrape(float(t))
            store = scraper.store
            assert (
                store.samples_appended
                == store.samples_retained + store.samples_evicted
            )
        assert scraper.store.frames_evicted == 20
        assert scraper.store.samples_evicted > 0
        # The scraper's own sample counter reconciles with the store's.
        assert scraper.stats.samples == scraper.store.samples_appended

    def test_eviction_with_series_appearing_mid_run(self):
        """New columns mid-run keep the invariant exact (NaN backfill)."""
        registry, counter, _ = make_workload()
        scraper = MetricsScraper(registry=registry, capacity=3)
        for t in range(1, 5):
            scraper.scrape(float(t))
        # A brand-new labeled child appears after eviction started.
        registry.counter("repro_w_total", "x", ("instance",)).labels(
            instance="late"
        ).inc()
        for t in range(5, 12):
            scraper.scrape(float(t))
        store = scraper.store
        assert (
            store.samples_appended
            == store.samples_retained + store.samples_evicted
        )


class TestReaderCache:
    def test_readers_rebuild_only_on_topology_change(self):
        registry, counter, _ = make_workload()
        scraper = MetricsScraper(registry=registry, capacity=8)
        scraper.scrape(1.0)
        version = scraper._readers_version
        counter.inc(5)
        scraper.scrape(2.0)  # value changed, topology did not
        assert scraper._readers_version == version
        registry.counter("repro_new_total", "x", ("instance",)).labels(
            instance="a"
        )
        scraper.scrape(3.0)
        assert scraper._readers_version != version
        assert scraper.store.series("repro_new_total").latest() == (3.0, 0.0)

    def test_select_filter_limits_the_series(self):
        registry, _, _ = make_workload()
        registry.counter("repro_w_total", "x", ("instance",)).labels(
            instance="b"
        ).inc()
        scraper = MetricsScraper(
            registry=registry,
            capacity=8,
            select=instance_select({"a"}, include_unlabelled=False),
        )
        scraper.scrape(1.0)
        keys = scraper.store.keys()
        assert keys  # instance 'a' series are present
        assert all(dict(key[1]).get("instance") == "a" for key in keys)


class TestSimClockIntegration:
    def test_bounded_periodic_scrape_lets_the_sim_drain(self):
        sim = Simulator()
        registry, counter, _ = make_workload()
        scraper = MetricsScraper(registry=registry, cadence=5.0, capacity=64)
        scraper.start(sim, until=30.0)
        sim.run()  # must terminate: the periodic event is bounded
        assert sim.now == 30.0
        assert scraper.stats.scrapes == 6
