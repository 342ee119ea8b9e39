"""Unit tests of the metrics registry: instruments, reading, exposition."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        child = registry.counter("repro_test_total", labelnames=("instance",)).labels(
            instance="a"
        )
        child.inc()
        child.inc(4)
        assert child.value == 5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        child = registry.counter("repro_test_total").labels()
        with pytest.raises(ObsError):
            child.inc(-1)

    def test_disabled_registry_is_a_noop(self):
        # Built with metrics off, the registry is a no-op for timing only:
        # a histogram observes nothing, while a counter still counts.
        registry = MetricsRegistry(enabled=False)
        child = registry.counter("repro_test_total").labels()
        hist = registry.histogram("repro_lat_seconds").labels()
        child.inc(100)
        hist.observe(0.5)
        assert (child.value, hist.count, hist.sum) == (100, 0, 0)

    def test_live_toggle(self):
        # The switch gates only timing: counters and gauges count through
        # it, histograms observe nothing while metrics are off — and the
        # flag is checked per call, not captured at wiring time.
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("repro_test_total").labels()
        gauge = registry.gauge("repro_level").labels()
        hist = registry.histogram("repro_lat_seconds").labels()
        for enabled in (True, False, True):
            registry.enabled = enabled
            counter.inc()
            gauge.inc(2)
            hist.observe(0.001)
        assert (counter.value, gauge.value, hist.count) == (3, 6, 2)


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_level").labels()
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_callback_backed(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_level").labels()
        state = {"n": 3}
        gauge.set_function(lambda: state["n"])
        assert gauge.value == 3
        state["n"] = 9
        assert gauge.value == 9


class TestHistogram:
    def test_counts_sum_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds").labels()
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.006)
        assert hist.mean == pytest.approx(0.002)

    def test_quantiles_bucket_interpolated(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_lat_seconds", buckets=(1.0, 2.0, 4.0)
        ).labels()
        for _ in range(100):
            hist.observe(1.5)  # all in the (1, 2] bucket
        assert 1.0 <= hist.quantile(0.5) <= 2.0
        assert 1.0 <= hist.quantile(0.99) <= 2.0

    def test_observations_past_last_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(1.0,)).labels()
        hist.observe(50.0)
        assert hist.count == 1
        assert hist.quantile(0.5) == 1.0  # clamped to the last finite edge

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.histogram("repro_bad_seconds", buckets=(2.0, 1.0))

    def test_default_buckets_cover_hot_path_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistration:
    def test_idempotent_for_same_shape(self):
        registry = MetricsRegistry()
        one = registry.counter("repro_test_total", labelnames=("instance",))
        two = registry.counter("repro_test_total", labelnames=("instance",))
        assert one is two

    def test_shape_change_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", labelnames=("instance",))
        with pytest.raises(ObsError):
            registry.gauge("repro_test_total", labelnames=("instance",))
        with pytest.raises(ObsError):
            registry.counter("repro_test_total", labelnames=("other",))

    def test_bad_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.counter("repro test total")

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_test_total", labelnames=("instance",))
        with pytest.raises(ObsError):
            family.labels(surface="query")


class TestReading:
    def test_value_and_total(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "repro_test_total", labelnames=("instance", "outcome")
        )
        family.labels(instance="a", outcome="ok").inc(3)
        family.labels(instance="b", outcome="ok").inc(5)
        family.labels(instance="a", outcome="err").inc(1)
        assert registry.value(
            "repro_test_total", {"instance": "a", "outcome": "ok"}
        ) == 3
        assert registry.total("repro_test_total") == 9
        assert registry.total("repro_test_total", outcome="ok") == 8
        assert registry.total("repro_test_total", instance="a") == 4

    def test_absent_metric_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.value("repro_never_registered") == 0.0
        assert registry.total("repro_never_registered") == 0.0

    def test_stage_timings_sorted_by_total(self):
        registry = MetricsRegistry()
        cold = registry.histogram(
            "repro_cold_seconds", labelnames=("instance",)
        ).labels(instance="x")
        hot = registry.histogram(
            "repro_hot_seconds", labelnames=("instance",)
        ).labels(instance="x")
        cold.observe(0.001)
        for _ in range(10):
            hot.observe(0.5)
        rows = registry.stage_timings()
        assert [r.stage.split("{")[0] for r in rows] == [
            "repro_hot_seconds",
            "repro_cold_seconds",
        ]
        assert rows[0].count == 10
        assert rows[0].p99 >= rows[0].p50 > 0
        assert "calls" in rows[0].to_text()

    def test_untouched_histograms_stay_out_of_top(self):
        registry = MetricsRegistry()
        registry.histogram("repro_idle_seconds", labelnames=("instance",)).labels(
            instance="x"
        )
        assert registry.stage_timings() == []


class TestExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", "Things counted.", ("instance",)
        ).labels(instance="a").inc(2)
        registry.gauge("repro_level").labels().set(1.5)
        text = registry.render_prometheus()
        assert "# HELP repro_test_total Things counted." in text
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{instance="a"} 2' in text
        assert "repro_level 1.5" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(1.0, 2.0)).labels()
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(99.0)
        text = registry.render_prometheus()
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="2"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text

    def test_sim_clock_line(self):
        registry = MetricsRegistry(clock=lambda: 123.0)
        assert "repro_sim_time_seconds 123" in registry.render_prometheus()

    def test_process_wide_render_helper(self):
        obs.metrics_registry().counter("repro_helper_total").labels().inc()
        assert "repro_helper_total 1" in obs.render_prometheus()
