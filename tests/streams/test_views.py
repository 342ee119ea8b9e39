"""Pane state and window snapshots: assembly and merging."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.streams import PaneStats, merge_snapshots, snapshot_from_panes
from tests.streams.conftest import fill_pane


def pane(start=0.0, end=60.0) -> PaneStats:
    return PaneStats(start, end)


def filled_pane(start, end, users, cells, values, lags=None):
    return fill_pane(pane(start, end), users, cells, values, lags)


class TestPaneStats:
    def test_update_accumulates(self):
        stats = filled_pane(
            0.0, 60.0,
            users=["a", "a", "b"],
            cells=[(0, 0), (0, 1), (0, 0)],
            values=[1.0, 2.0, 3.0],
            lags=[0.5, 0.5, 1.5],
        )
        assert stats.records == 3
        assert stats.user_counts == {"a": 2, "b": 1}
        assert stats.cells == {(0, 0), (0, 1)}
        assert len(stats.value_sketch) == 3
        assert len(stats.lag_sketch) == 3

    def test_optional_fields_skipped(self):
        stats = fill_pane(pane(), ["a"])
        assert stats.records == 1
        assert stats.cells == set()
        assert len(stats.value_sketch) == 0
        assert len(stats.lag_sketch) == 0


class TestSnapshotFromPanes:
    def test_merges_pane_span(self):
        first = filled_pane(0.0, 60.0, ["a", "b"], [(0, 0), (1, 1)], [1.0, 2.0])
        second = filled_pane(60.0, 120.0, ["a"], [(2, 2)], [3.0])
        snapshot = snapshot_from_panes("t", "v", 0.0, 120.0, [first, second])
        assert snapshot.records == 3
        assert snapshot.n_users == 2
        assert snapshot.user_counts == {"a": 2, "b": 1}
        assert snapshot.cells == {(0, 0), (1, 1), (2, 2)}
        assert snapshot.rate == pytest.approx(3 / 120.0)
        assert snapshot.duration == 120.0

    def test_empty_window_still_observable(self):
        snapshot = snapshot_from_panes("t", "v", 0.0, 60.0, [])
        assert snapshot.records == 0
        assert snapshot.rate == 0.0
        assert snapshot.coverage_cells == 0
        assert snapshot.value_quantile(0.5) == 0.0
        assert "0 rec" in snapshot.to_text()

    def test_top_users_ranked_then_lexicographic(self):
        stats = filled_pane(
            0.0, 60.0,
            users=["c", "a", "b", "a", "b"],
            cells=[None] * 5,
            values=[None] * 5,
        )
        snapshot = snapshot_from_panes("t", "v", 0.0, 60.0, [stats])
        assert snapshot.top_users(2) == (("a", 2), ("b", 2))
        assert snapshot.top_users() == (("a", 2), ("b", 2), ("c", 1))

    def test_percentiles_track_pane_values(self):
        values = list(np.linspace(0.0, 100.0, 101))
        stats = filled_pane(
            0.0, 60.0, [f"u{i}" for i in range(101)], [None] * 101, values
        )
        snapshot = snapshot_from_panes("t", "v", 0.0, 60.0, [stats])
        assert snapshot.value_quantile(0.5) == pytest.approx(50.0, abs=3.0)
        assert snapshot.value_quantile(0.95) == pytest.approx(95.0, abs=3.0)


class TestMergeSnapshots:
    def test_same_window_snapshots_fold(self):
        left = snapshot_from_panes(
            "t", "v", 0.0, 60.0,
            [filled_pane(0.0, 60.0, ["a"], [(0, 0)], [1.0])],
        )
        right = snapshot_from_panes(
            "t", "v", 0.0, 60.0,
            [filled_pane(0.0, 60.0, ["a", "b"], [(0, 1), (0, 0)], [2.0, 3.0])],
        )
        merged = merge_snapshots([left, right])
        assert merged.records == 3
        assert merged.user_counts == {"a": 2, "b": 1}
        assert merged.cells == {(0, 0), (0, 1)}

    def test_zero_snapshots_rejected(self):
        with pytest.raises(StreamError):
            merge_snapshots([])

    def test_different_windows_rejected(self):
        a = snapshot_from_panes("t", "v", 0.0, 60.0, [])
        b = snapshot_from_panes("t", "v", 60.0, 120.0, [])
        with pytest.raises(StreamError):
            merge_snapshots([a, b])

    def test_different_tasks_rejected(self):
        a = snapshot_from_panes("t1", "v", 0.0, 60.0, [])
        b = snapshot_from_panes("t2", "v", 0.0, 60.0, [])
        with pytest.raises(StreamError):
            merge_snapshots([a, b])
