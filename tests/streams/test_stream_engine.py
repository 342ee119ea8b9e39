"""The stream engine: live views vs batch ground truth, wiring, alerts."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.store.quantiles import QuantileSketch
from repro.streams import ContinuousQuery, StreamEngine, WindowSpec, rate_below
from tests.store.conftest import make_record, make_records
from tests.streams.conftest import build_stream, replay


class TestRegistration:
    def test_bad_pane(self):
        with pytest.raises(StreamError):
            StreamEngine(pane_seconds=0.0)

    def test_bad_lateness(self):
        with pytest.raises(StreamError):
            StreamEngine(allowed_lateness=-1.0)

    def test_bad_history(self):
        with pytest.raises(StreamError):
            StreamEngine(history=0)

    def test_duplicate_view_rejected(self, sim):
        _, _, engine = build_stream(sim)
        engine.register_view("v", WindowSpec.tumbling(60.0))
        with pytest.raises(StreamError):
            engine.register_view("v", WindowSpec.tumbling(120.0))

    def test_misaligned_view_rejected(self, sim):
        _, _, engine = build_stream(sim, pane_seconds=60.0)
        with pytest.raises(StreamError):
            engine.register_view("v", WindowSpec.tumbling(90.0))

    def test_late_registration_rejected(self, sim):
        _, pipeline, engine = build_stream(sim)
        engine.register_view("v", WindowSpec.tumbling(60.0))
        replay(sim, pipeline, make_records(200, dt=1.0))
        with pytest.raises(StreamError):
            engine.register_view("late", WindowSpec.tumbling(60.0))

    def test_registration_after_unviewed_records_rejected(self, sim):
        """Records absorbed while no view existed were never paned; a
        view registered afterwards would silently under-count, so the
        engine refuses it even before any window has closed."""
        _, pipeline, engine = build_stream(sim)
        replay(sim, pipeline, make_records(10, dt=1.0))
        assert engine.stats.records_seen == 10
        with pytest.raises(StreamError):
            engine.register_view("v", WindowSpec.tumbling(60.0))

    def test_query_needs_registered_view(self, sim):
        _, _, engine = build_stream(sim)
        with pytest.raises(StreamError):
            engine.register_query("ghost", ContinuousQuery("q", rate_below(1.0)))

    def test_unknown_view_snapshots_rejected(self, sim):
        _, _, engine = build_stream(sim)
        with pytest.raises(StreamError):
            engine.snapshots("t", "ghost")


class TestLiveViewsMatchBatchGroundTruth:
    """The tentpole invariant: windowed views maintained at flush time
    equal a batch scan of the store over the same window — without the
    engine ever scanning the store."""

    def test_tumbling_counts_users_cells_exact(self, sim):
        store, pipeline, engine = build_stream(sim, allowed_lateness=60.0)
        engine.register_view("minutely", WindowSpec.tumbling(60.0))
        records = make_records(600, dt=1.0)
        replay(sim, pipeline, records)
        engine.finalize()

        snapshots = engine.snapshots("t", "minutely")
        assert sum(s.records for s in snapshots) == 600
        assert engine.stats.late_records == 0
        for snapshot in snapshots:
            batch = store.scan("t", t0=snapshot.start, t1=snapshot.end)
            assert snapshot.records == len(batch)
            assert snapshot.n_users == len(set(batch.user_names()))
            live_cells = {
                (int(np.floor(lat / engine.cell_deg)), int(np.floor(lon / engine.cell_deg)))
                for lat, lon in zip(batch.lat, batch.lon)
                if not np.isnan(lat)
            }
            assert set(snapshot.cells) == live_cells

    def test_union_of_windows_matches_store_aggregates(self, sim):
        store, pipeline, engine = build_stream(sim, allowed_lateness=120.0)
        engine.register_view("w", WindowSpec.tumbling(300.0))
        records = [
            make_record(
                user=f"u{i % 13}", time=float(i), lat=44.8 + 0.0004 * (i % 37),
                lon=-0.6 + 0.0004 * (i % 29), value=float(i % 100),
            )
            for i in range(3000)
        ]
        replay(sim, pipeline, records, batch=100)
        engine.finalize()
        snapshots = engine.snapshots("t", "w")
        aggregate = store.aggregate("t")
        assert sum(s.records for s in snapshots) == aggregate.records
        assert set().union(*(s.cells for s in snapshots)) == set(aggregate.cells)
        users = set()
        for snapshot in snapshots:
            users.update(snapshot.user_counts)
        assert len(users) == aggregate.n_users

    def test_merged_window_percentiles_track_scanned_values(self, sim):
        store, pipeline, engine = build_stream(sim, allowed_lateness=120.0)
        engine.register_view("w", WindowSpec.tumbling(300.0))
        rng = np.random.default_rng(17)
        values = rng.uniform(0.0, 100.0, size=2000)
        records = [
            make_record(user=f"u{i % 7}", time=float(i), value=float(values[i]))
            for i in range(2000)
        ]
        replay(sim, pipeline, records, batch=100)
        engine.finalize()
        snapshots = engine.snapshots("t", "w")
        merged = QuantileSketch.merge([s.value_sketch for s in snapshots])
        exact = float(np.percentile(values, 95.0))
        assert merged.quantile(0.95) == pytest.approx(exact, abs=5.0)

    def test_boundary_timestamped_record_not_dropped(self, sim):
        """A record stamped exactly on a window boundary belongs to the
        next (half-open) window; finalize() must emit that window too
        instead of silently dropping the record from every view."""
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        pipeline.submit(
            [make_record(time=t) for t in (10.0, 30.0, 60.0)]
        )
        sim.run()
        pipeline.flush_all()
        engine.finalize()
        snapshots = engine.snapshots("t", "w")
        assert sum(s.records for s in snapshots) == 3
        assert engine.stats.late_records == 0
        assert [(s.start, s.end, s.records) for s in snapshots] == [
            (0.0, 60.0, 2),
            (60.0, 120.0, 1),
        ]

    def test_sliding_windows_overlap(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=60.0)
        engine.register_view("rolling", WindowSpec.sliding(300.0, 60.0))
        replay(sim, pipeline, make_records(600, dt=1.0))
        engine.finalize()
        snapshots = engine.snapshots("t", "rolling")
        # One window closes per minute once the first full window exists.
        assert snapshots[0].start == 0.0 and snapshots[0].end == 300.0
        assert all(s.duration == 300.0 for s in snapshots)
        assert all(
            later.start - earlier.start == 60.0
            for earlier, later in zip(snapshots, snapshots[1:])
        )
        # A steady 1 rec/s stream fills every full window with ~300.
        assert all(s.records == 300 for s in snapshots if s.end <= 600.0)


class TestWatermarkAndLateness:
    def test_records_older_than_closed_panes_counted_late(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        pipeline.submit(make_records(5, t0=300.0, dt=1.0))  # watermark -> 304
        sim.run()
        pipeline.submit([make_record(time=10.0)])  # pane [0,60) closed long ago
        sim.run()
        assert engine.stats.late_records == 1
        assert sum(s.records for s in engine.snapshots("t", "w")) == 5 - 5  # none closed yet

    def test_lateness_budget_absorbs_stragglers(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=400.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        pipeline.submit(make_records(5, t0=300.0, dt=1.0))
        sim.run()
        pipeline.submit([make_record(time=10.0)])
        sim.run()
        assert engine.stats.late_records == 0

    def test_advance_watermark_closes_empty_windows(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        fired = []
        engine.register_query(
            "w", ContinuousQuery("silence", rate_below(0.5))
        )
        pipeline.submit(make_records(30, dt=1.0))
        sim.run()
        engine.advance_watermark(300.0)  # the crowd went quiet
        snapshots = engine.snapshots("t", "w")
        assert len(snapshots) == 5
        assert [s.records for s in snapshots] == [30, 0, 0, 0, 0]
        # Silent windows fired the rate query; the busy one did not.
        assert engine.alerts.total == 4

    def test_watermark_property(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=30.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        pipeline.submit(make_records(10, t0=100.0, dt=1.0))
        sim.run()
        assert engine.watermark == pytest.approx(109.0 - 30.0)


class TestEngineWiring:
    def test_no_views_means_near_noop(self, sim):
        _, pipeline, engine = build_stream(sim)
        replay(sim, pipeline, make_records(50, dt=1.0))
        assert engine.stats.records_seen == 50
        assert engine.stats.panes_closed == 0
        assert engine.active_view_count == 0

    def test_on_window_callback_sees_every_close(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        seen = []
        engine.on_window(lambda s: seen.append((s.task, s.start, s.end, s.records)))
        replay(sim, pipeline, make_records(180, dt=1.0))
        engine.finalize()
        assert len(seen) == engine.stats.windows_emitted == 3
        assert seen[0] == ("t", 0.0, 60.0, 60)

    def test_history_bounded(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0, history=3)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        replay(sim, pipeline, make_records(600, dt=1.0))
        engine.finalize()
        snapshots = engine.snapshots("t", "w")
        assert len(snapshots) == 3  # oldest evicted
        assert snapshots[-1].end == 600.0

    def test_last_window_rate_and_view_count(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        replay(sim, pipeline, make_records(120, dt=1.0))
        engine.finalize()
        assert engine.last_window_rate == pytest.approx(1.0)
        assert engine.active_view_count == 1
        assert engine.tasks == ["t"]

    def test_study_area_grid_cells(self, sim):
        """With a SpatialGrid the coverage view uses grid (row, col)
        cells — the same addressing as heatmaps over the study area."""
        from repro.geo.bbox import BoundingBox
        from repro.geo.grid import SpatialGrid
        from repro.geo.point import GeoPoint
        from repro.store import DatasetStore, IngestPipeline
        from repro.streams import StreamEngine

        grid = SpatialGrid(
            BoundingBox(south=44.79, west=-0.61, north=44.90, east=-0.50),
            cell_size_m=500.0,
        )
        store = DatasetStore(n_shards=1)
        pipeline = IngestPipeline(sim, store, flush_delay=0.1)
        engine = StreamEngine(
            sim=sim, pane_seconds=60.0, allowed_lateness=0.0, grid=grid
        ).attach(pipeline)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        records = make_records(30, dt=1.0, step_deg=0.002)
        replay(sim, pipeline, records)
        engine.finalize()
        snapshot = engine.latest("t", "w")
        expected = {
            grid.cell_of(GeoPoint(44.80 + i * 0.002, -0.60 + i * 0.002))
            for i in range(30)
        }
        assert set(snapshot.cells) == expected
        assert all(
            0 <= row < grid.rows and 0 <= col < grid.cols
            for row, col in snapshot.cells
        )

    def test_two_tasks_tracked_independently(self, sim):
        _, pipeline, engine = build_stream(sim, allowed_lateness=0.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        records = sorted(
            make_records(60, task="a", dt=1.0) + make_records(120, task="b", dt=0.5),
            key=lambda r: r.time,
        )
        replay(sim, pipeline, records)
        engine.finalize()
        assert sum(s.records for s in engine.snapshots("a", "w")) == 60
        assert sum(s.records for s in engine.snapshots("b", "w")) == 120
        assert engine.active_view_count == 2


class TestHiveIntegration:
    def test_hive_carries_attached_engine(self, sim):
        from repro.apisense.hive import Hive

        hive = Hive(sim)
        assert hive.streams is not None
        hive.streams.register_view("w", WindowSpec.tumbling(600.0))
        # Uploads routed through the Hive reach the engine via flushes.
        from repro.apisense.honeycomb import Honeycomb
        from repro.apisense.tasks import SensingTask

        owner = Honeycomb("lab", hive)
        task = SensingTask(
            name="t", sensors=("gps",), sampling_period=60.0,
            upload_period=600.0, end=3600.0,
        )
        owner.register_task(task)
        hive.adopt_task(task, owner)
        hive.receive_upload("d0", "u0", "t", make_records(30, dt=1.0))
        sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()
        assert hive.streams.stats.records_seen == 30

    def test_monitoring_surfaces_stream_state(self, sim):
        from repro.apisense.hive import Hive
        from repro.apisense.monitoring import snapshot

        hive = Hive(sim)
        hive.streams.register_view("w", WindowSpec.tumbling(600.0))
        hive.streams.register_query(
            "w", ContinuousQuery("silence", rate_below(10.0))
        )
        from repro.apisense.honeycomb import Honeycomb
        from repro.apisense.tasks import SensingTask

        owner = Honeycomb("lab", hive)
        task = SensingTask(
            name="t", sensors=("gps",), sampling_period=60.0,
            upload_period=600.0, end=3600.0,
        )
        owner.register_task(task)
        hive.adopt_task(task, owner)
        hive.receive_upload("d0", "u0", "t", make_records(30, dt=1.0))
        sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()

        report = snapshot(hive, sim.now)
        assert report.stream_views == 1
        assert report.stream_last_rate == pytest.approx(30 / 600.0)
        assert report.stream_alerts_unacked == hive.streams.alerts.unacknowledged > 0
        assert "live views" in report.to_text()
        hive.streams.alerts.acknowledge()
        assert snapshot(hive, sim.now).stream_alerts_unacked == 0


class TestNumpyScalarValues:
    def test_numpy_readings_count_in_store_and_windows_alike(self, sim):
        """One definition of "the record's scalar value" for both tiers:
        a numpy scalar used to be NaN in the store and absent from
        ``value_count``/``value_sum`` and the value sketches."""
        store, pipeline, engine = build_stream(sim)
        engine.register_view("m1", WindowSpec.tumbling(60.0))
        readings = np.linspace(10.0, 20.0, 40).astype(np.float32)
        records = []
        for i, reading in enumerate(readings):
            record = make_record(time=3.0 * i, value=None)
            record.values["level"] = reading if i % 2 else np.int64(i)  # type: ignore[index]
            records.append(record)
        replay(sim, pipeline, records)
        engine.finalize()
        expected = [float(r.values["level"]) for r in records]
        assert store.scan("t").value.tolist() == expected
        windows = engine.snapshots("t", "m1")
        assert sum(w.value_count for w in windows) == len(records)
        for window in windows:  # live == batch, values included
            batch = store.scan_time("t", window.start, window.end)
            assert window.records == window.value_count == len(batch)
            assert window.value_sum == pytest.approx(float(batch.value.sum()))
            assert window.value_quantile(0.5) == pytest.approx(
                float(np.median(batch.value)), abs=2.0
            )
