"""Federation-wide live views: merging member window snapshots.

The live-plane invariant mirrors the query plane's: placement homes
every device on exactly one member, so folding same-window member
snapshots (count-sum, cell-union, quantile-bucket-sum) reconstructs the
view a single monolithic engine would have materialized — counts, users,
cells and percentile sketches exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamError
from repro.federation import FederatedStreamMerger
from repro.federation.ring import ConsistentHashRing
from repro.simulation import Simulator
from repro.store.quantiles import QuantileSketch
from repro.streams import ContinuousQuery, StreamEngine, WindowSpec, rate_below
from tests.store.conftest import make_record
from tests.streams.conftest import build_stream, replay


def workload(n_users: int = 12, n_records: int = 1200) -> list:
    """A deterministic multi-user GPS+value stream, time-sorted."""
    records = []
    for i in range(n_records):
        user = f"user-{i % n_users:03d}"
        records.append(
            make_record(
                user=user,
                time=float(i),
                lat=44.8 + 0.0004 * ((i * 7) % 120),
                lon=-0.6 + 0.0004 * ((i * 13) % 120),
                value=float((i * 31) % 100),
            )
        )
    return records


def shard_by_ring(records, n_members: int) -> dict[str, list]:
    ring = ConsistentHashRing()
    names = [f"hive-{i}" for i in range(n_members)]
    for name in names:
        ring.add(name)
    shards: dict[str, list] = {name: [] for name in names}
    for record in records:
        shards[ring.place(record.device_id)].append(record)
    return shards


def run_member(records) -> StreamEngine:
    # Lateness must cover the replay's batching span: a sparse member's
    # 40-record submit can span several panes of event time, and flushes
    # of its two store shards arrive back to back.
    sim = Simulator()
    _, pipeline, engine = build_stream(sim, allowed_lateness=600.0)
    engine.register_view("w", WindowSpec.tumbling(300.0))
    if records:
        replay(sim, pipeline, records, batch=40)
    engine.finalize()
    return engine


class TestValidation:
    def test_needs_members(self):
        with pytest.raises(StreamError):
            FederatedStreamMerger({})

    def test_unknown_member(self):
        merger = FederatedStreamMerger({"a": StreamEngine()})
        with pytest.raises(StreamError):
            merger.engine("b")

    def test_merge_without_windows_rejected(self):
        engine = StreamEngine(pane_seconds=60.0)
        engine.register_view("w", WindowSpec.tumbling(60.0))
        merger = FederatedStreamMerger({"a": engine})
        with pytest.raises(StreamError):
            merger.merged("t", "w")


class TestMergedMatchesMonolithic:
    @pytest.mark.parametrize("n_members", [2, 4])
    def test_windows_fold_exactly(self, n_members):
        records = workload()
        baseline = run_member(records)  # the single monolithic hive
        members = {
            name: run_member(shard)
            for name, shard in shard_by_ring(records, n_members).items()
        }
        merger = FederatedStreamMerger(members)
        assert merger.member_names == sorted(members)
        assert merger.tasks == ["t"]
        assert merger.views == ["w"]

        history = merger.history("t", "w")
        mono = baseline.snapshots("t", "w")
        assert [s.end for s in history] == [s.end for s in mono]
        for merged, single in zip(history, mono):
            assert merged.records == single.records
            assert merged.user_counts == single.user_counts
            assert merged.cells == single.cells
            assert merged.top_users(3) == single.top_users(3)
            # Percentiles: within the sketch-merge tolerance ...
            assert merged.value_quantile(0.95) == pytest.approx(
                single.value_quantile(0.95), abs=8.0
            )
            # ... and in fact exact: the value sketches fold bucket for
            # bucket.  (Lag sketches differ: each member ingests on its
            # own simulated clock.)
            assert merged.value_sketch.state() == single.value_sketch.state()

    def test_merged_percentiles_track_pooled_ground_truth(self):
        records = workload(n_records=2000)
        members = {
            name: run_member(shard)
            for name, shard in shard_by_ring(records, 4).items()
        }
        merger = FederatedStreamMerger(members)
        values = [float((i * 31) % 100) for i in range(2000)]
        merged_sketch = QuantileSketch.merge(
            [s.value_sketch for s in merger.history("t", "w")]
        )
        assert merged_sketch.quantile(0.95) == pytest.approx(
            float(np.percentile(values, 95.0)), abs=5.0
        )


class TestBoundaries:
    def test_common_boundary_is_slowest_member(self):
        fast = run_member(workload(n_records=1200))  # windows through 1200
        slow = run_member(workload(n_records=400))  # windows through 600
        merger = FederatedStreamMerger({"fast": fast, "slow": slow})
        assert fast.latest("t", "w").end > slow.latest("t", "w").end
        assert merger.common_boundary("t", "w") == slow.latest("t", "w").end
        merged = merger.merged("t", "w")
        assert merged.end == slow.latest("t", "w").end

    def test_member_without_the_task_is_skipped(self):
        busy = run_member(workload(n_records=600))
        idle = run_member([])
        merger = FederatedStreamMerger({"busy": busy, "idle": idle})
        merged = merger.merged("t", "w")  # the newest window, [300, 600)
        assert (merged.start, merged.end) == (300.0, 600.0)
        assert sum(s.records for s in merger.history("t", "w")) == 600

    def test_explicit_boundary_selects_window(self):
        members = {
            name: run_member(shard)
            for name, shard in shard_by_ring(workload(), 2).items()
        }
        merger = FederatedStreamMerger(members)
        merged = merger.merged("t", "w", end=600.0)
        assert (merged.start, merged.end) == (300.0, 600.0)
        with pytest.raises(StreamError):
            merger.merged("t", "w", end=99999.0)

    def test_per_member_slices_partition_the_window(self):
        records = workload()
        members = {
            name: run_member(shard)
            for name, shard in shard_by_ring(records, 3).items()
        }
        merger = FederatedStreamMerger(members)
        end = merger.common_boundary("t", "w")
        slices = dict(merger.iter_member_snapshots("t", "w", end))
        merged = merger.merged("t", "w", end=end)
        assert sum(s.records for s in slices.values()) == merged.records


class TestAlertsAndDashboard:
    def test_alerts_collected_across_members(self):
        def noisy_member(records):
            sim = Simulator()
            _, pipeline, engine = build_stream(sim, allowed_lateness=600.0)
            engine.register_view("w", WindowSpec.tumbling(300.0))
            engine.register_query(
                "w", ContinuousQuery("always", rate_below(10_000.0))
            )
            replay(sim, pipeline, records, batch=40)
            engine.finalize()
            return engine

        members = {
            name: noisy_member(shard)
            for name, shard in shard_by_ring(workload(), 2).items()
        }
        merger = FederatedStreamMerger(members)
        alerts = merger.alerts()
        assert alerts
        assert {name for name, _ in alerts} == set(members)
        times = [alert.time for _, alert in alerts]
        assert times == sorted(times)
        assert merger.unacknowledged_alerts == len(alerts)

    def test_dashboard_text(self):
        members = {
            name: run_member(shard)
            for name, shard in shard_by_ring(workload(), 2).items()
        }
        merger = FederatedStreamMerger(members)
        text = merger.dashboard("w")
        assert "federated live dashboard (2 hives" in text
        assert "t/w" in text
        assert "unacknowledged" in text


class TestRouterIntegration:
    def test_from_router_reads_member_hive_engines(self, deployed, sim):
        from repro.units import HOUR

        router, devices, owner, task = deployed
        for name in router.member_names:
            router.hive(name).streams.register_view(
                "hourly", WindowSpec.tumbling(HOUR)
            )
        sim.run_until(6 * HOUR)
        for name in router.member_names:
            router.hive(name).pipeline.flush_all()
            router.hive(name).streams.finalize()
        merger = FederatedStreamMerger.from_router(router)
        assert merger.member_names == sorted(router.member_names)
        merged = merger.merged(task.name, "hourly")
        total = sum(
            router.hive(name).streams.stats.records_seen
            for name in router.member_names
        )
        history = merger.history(task.name, "hourly")
        assert sum(s.records for s in history) == total > 0
        assert merged.end == merger.common_boundary(task.name, "hourly")
