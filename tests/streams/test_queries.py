"""Continuous queries and the bounded alert log."""

import pytest

from repro.errors import StreamError
from repro.streams import (
    AlertLog,
    ContinuousQuery,
    StreamAlert,
    coverage_stalled,
    percentile_above,
    rate_below,
    snapshot_from_panes,
)
from repro.streams.views import PaneStats
from tests.streams.conftest import fill_pane


def window(start, end, users=(), cells=(), values=(), task="t", view="v"):
    stats = fill_pane(PaneStats(start, end), users, cells, values)
    return snapshot_from_panes(task, view, start, end, [stats] if users else [])


def alert(i: int) -> StreamAlert:
    return StreamAlert(
        time=float(i), task="t", view="v", query="q",
        window=(0.0, 60.0), message=f"alert {i}",
    )


class TestAlertLog:
    def test_bad_capacity(self):
        with pytest.raises(StreamError):
            AlertLog(capacity=0)

    def test_bounded_drop_oldest(self):
        log = AlertLog(capacity=3)
        for i in range(5):
            log.append(alert(i))
        assert len(log) == 3
        assert log.total == 5
        assert log.dropped == 2
        assert [a.message for a in log.alerts()] == ["alert 2", "alert 3", "alert 4"]

    def test_acknowledge(self):
        log = AlertLog(capacity=10)
        for i in range(4):
            log.append(alert(i))
        assert log.unacknowledged == 4
        assert log.acknowledge(3) == 3
        assert log.unacknowledged == 1
        assert [a.message for a in log.alerts(unacknowledged_only=True)] == ["alert 3"]
        assert log.acknowledge() == 1
        assert log.unacknowledged == 0

    def test_eviction_consumes_acknowledgement(self):
        log = AlertLog(capacity=2)
        log.append(alert(0))
        log.acknowledge()
        log.append(alert(1))
        log.append(alert(2))  # evicts the acknowledged alert 0
        assert log.unacknowledged == 2


class TestContinuousQuery:
    def test_needs_name(self):
        with pytest.raises(StreamError):
            ContinuousQuery("", rate_below(1.0))

    def test_task_restriction(self):
        query = ContinuousQuery("q", rate_below(1.0), tasks=["a"])
        assert query.applies_to("a")
        assert not query.applies_to("b")

    def test_counts_evaluations_and_fires(self):
        query = ContinuousQuery("q", rate_below(1.0))
        assert query.evaluate(window(0.0, 60.0), []) is not None
        assert query.evaluate(window(0.0, 60.0, users=["u"] * 100), []) is None
        assert query.evaluations == 2
        assert query.fires == 1

    def test_custom_callable(self):
        probe = ContinuousQuery(
            "many-users",
            lambda snapshot, history: (
                f"{snapshot.n_users} users" if snapshot.n_users > 2 else None
            ),
        )
        assert probe.evaluate(window(0.0, 60.0, users=["a", "b", "c"]), []) == "3 users"


class TestRateBelow:
    def test_threshold_validation(self):
        with pytest.raises(StreamError):
            rate_below(0.0)

    def test_fires_on_silence(self):
        assert rate_below(0.5)(window(0.0, 60.0), []) is not None

    def test_quiet_above_threshold(self):
        busy = window(0.0, 60.0, users=["u"] * 60)  # 1 rec/s
        assert rate_below(0.5)(busy, []) is None


class TestCoverageStalled:
    def test_validation(self):
        with pytest.raises(StreamError):
            coverage_stalled(0)

    def test_fires_after_stalled_run(self):
        predicate = coverage_stalled(2)
        exploring = window(0.0, 60.0, users=["u"], cells=[(0, 0)])
        stalled_1 = window(60.0, 120.0, users=["u"], cells=[(0, 0)])
        stalled_2 = window(120.0, 180.0, users=["u"], cells=[(0, 0)])
        assert predicate(stalled_1, [exploring]) is None  # history too short
        assert predicate(stalled_2, [exploring, stalled_1]) is not None

    def test_new_cell_resets(self):
        predicate = coverage_stalled(2)
        seen = window(0.0, 60.0, users=["u"], cells=[(0, 0)])
        repeat = window(60.0, 120.0, users=["u"], cells=[(0, 0)])
        fresh = window(120.0, 180.0, users=["u"], cells=[(9, 9)])
        assert predicate(fresh, [seen, repeat]) is None

    def test_idle_run_does_not_fire(self):
        # Silence is rate_below's business, not a coverage stall.
        predicate = coverage_stalled(2)
        seen = window(0.0, 60.0, users=["u"], cells=[(0, 0)])
        idle_1 = window(60.0, 120.0)
        idle_2 = window(120.0, 180.0)
        assert predicate(idle_2, [seen, idle_1]) is None

    def test_never_covered_does_not_fire(self):
        predicate = coverage_stalled(1)
        blind_1 = window(0.0, 60.0, users=["u"])  # records but no GPS
        blind_2 = window(60.0, 120.0, users=["u"])
        assert predicate(blind_2, [blind_1]) is None


class TestPercentileAbove:
    def test_metric_validation(self):
        with pytest.raises(StreamError):
            percentile_above("speed", 0.95, 1.0)

    def test_fires_on_high_values(self):
        hot = window(0.0, 60.0, users=["u"] * 10, values=[100.0] * 10)
        assert percentile_above("value", 0.95, 50.0)(hot, []) is not None
        assert percentile_above("value", 0.95, 150.0)(hot, []) is None

    def test_lag_metric_reads_lag_sketches(self):
        stats = fill_pane(PaneStats(0.0, 60.0), ["u"] * 10, lags=[42.0] * 10)
        snapshot = snapshot_from_panes("t", "v", 0.0, 60.0, [stats])
        assert percentile_above("lag", 0.95, 10.0)(snapshot, []) is not None
        assert percentile_above("lag", 0.95, 60.0)(snapshot, []) is None
