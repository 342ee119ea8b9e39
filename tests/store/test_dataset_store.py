"""Unit tests for the columnar dataset store: routing, scans, compaction."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.geo.bbox import BoundingBox
from repro.store import DatasetStore, shard_of
from tests.store.conftest import make_record, make_records


class TestShardRouting:
    def test_deterministic_and_stable(self):
        # Fixed expectations pin the routing function across refactors:
        # segments on disk (or in a partner process) must stay readable.
        assert shard_of("t", "u0", 4) == shard_of("t", "u0", 4)
        store_a = DatasetStore(n_shards=8)
        store_b = DatasetStore(n_shards=8)
        for i in range(50):
            assert store_a.shard_of("task", f"u{i}") == store_b.shard_of("task", f"u{i}")

    def test_spreads_users_across_shards(self):
        store = DatasetStore(n_shards=4)
        shards = {store.shard_of("task", f"user-{i:04d}") for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_task_user_pair_lives_in_one_shard(self):
        store = DatasetStore(n_shards=4, segment_capacity=8)
        store.append(make_records(30, user="alice"))
        stats = store.stats()
        assert sum(1 for s in stats.per_shard if s.records) == 1

    def test_same_user_different_tasks_may_differ(self):
        # The routing key is (task, user), not user alone.
        assert shard_of("task-a", "u", 1024) != shard_of("task-b", "u", 1024)

    def test_invalid_shard_count(self):
        with pytest.raises(StoreError):
            DatasetStore(n_shards=0)

    def test_unrouted_bulk_load_lands_where_shard_of_says(self):
        """A mixed-shard list handed to ``append`` without ``shard`` is
        routed per (task, user), interleaved however the caller had it."""
        records = [
            record
            for i in range(40)
            for record in make_records(3, user=f"user-{i % 8}", task=f"task-{i % 3}", t0=10.0 * i)
        ]
        store = DatasetStore(n_shards=4, segment_capacity=16)
        assert store.append(records, ingest_time=500.0) == store.n_records == 120
        expected = [0, 0, 0, 0]
        for record in records:
            expected[shard_of(record.task, record.user, 4)] += 1
        assert len([n for n in expected if n]) > 1  # the load really is mixed
        assert [s.records for s in store.stats().per_shard] == expected
        for record in records[::7]:
            own = store.scan_user(record.task, record.user)
            assert record.time in own.time.tolist()
            assert set(own.user_names()) == {record.user}
        # One append or one per record: same shards, same segments.
        one_by_one = DatasetStore(n_shards=4, segment_capacity=16)
        for record in records:
            one_by_one.append([record], ingest_time=500.0)
        assert one_by_one.stats().per_shard == store.stats().per_shard

    def test_flush_names_its_shard_and_the_store_does_not_rehash(self, monkeypatch):
        store = DatasetStore(n_shards=4)
        home = store.shard_of("t", "alice")
        monkeypatch.setattr(
            store, "shard_of", lambda task, user: pytest.fail("re-hashed a routed flush")
        )
        store.append(make_records(10, user="alice"), shard=home)
        assert [s.records for s in store.stats().per_shard] == [
            10 if shard == home else 0 for shard in range(4)
        ]


class TestAppend:
    def test_counts(self):
        store = DatasetStore(n_shards=2)
        assert store.append(make_records(10)) == 10
        assert store.append([]) == 0
        assert store.n_records == 10
        assert store.tasks == ["t"]
        assert store.users == ["u0"]

    def test_segment_rollover(self):
        store = DatasetStore(n_shards=1, segment_capacity=8)
        store.append(make_records(20))
        stats = store.stats()
        assert stats.sealed_segments == 2
        assert stats.segments == 3  # two sealed + the open remainder

    def test_gps_less_records_store_nan(self):
        store = DatasetStore(n_shards=1)
        store.append([make_record(time=1.0, lat=None, lon=None, value=0.5)])
        batch = store.scan("t")
        assert np.isnan(batch.lat[0]) and np.isnan(batch.lon[0])
        assert batch.value[0] == 0.5

    def test_scalar_value_extraction_skips_bools(self):
        record = make_record(time=1.0, value=None)
        record.values["charging"] = True  # type: ignore[index]
        record.values["battery"] = 0.25  # type: ignore[index]
        store = DatasetStore(n_shards=1)
        store.append([record])
        assert store.scan("t").value[0] == 0.25

    @pytest.mark.parametrize(
        "reading", [np.float32(0.25), np.float64(0.25), np.int64(3), np.uint8(3)]
    )
    def test_numpy_scalar_is_a_scalar_value(self, reading):
        """What a vectorized custom sensor or ``ctx.save(level=arr.mean())``
        produces is a value, not a missing one."""
        record = make_record(time=1.0, value=None)
        record.values["flag"] = np.bool_(True)  # type: ignore[index]
        record.values["level"] = reading  # type: ignore[index]
        store = DatasetStore(n_shards=1)
        store.append([record])
        assert store.scan("t").value[0] == float(reading)


class TestScans:
    @pytest.fixture()
    def store(self) -> DatasetStore:
        store = DatasetStore(n_shards=4, segment_capacity=16)
        for u in range(6):
            store.append(
                make_records(
                    40,
                    user=f"user-{u}",
                    t0=100.0 * u,
                    lat0=44.80 + 0.002 * u,
                    lon0=-0.60 + 0.002 * u,
                )
            )
        return store

    def all_rows(self, store):
        batch = store.scan("t")
        return set(zip(batch.user_names(), batch.time.tolist()))

    def test_unfiltered_scan_returns_everything(self, store):
        assert len(store.scan("t")) == 240

    def test_unknown_task_scans_empty(self, store):
        assert len(store.scan("ghost")) == 0

    def test_time_range_matches_brute_force(self, store):
        t0, t1 = 500.0, 1500.0
        batch = store.scan("t", t0=t0, t1=t1)
        brute = {(u, t) for u, t in self.all_rows(store) if t0 <= t < t1}
        assert set(zip(batch.user_names(), batch.time.tolist())) == brute
        assert len(brute) > 0

    def test_bbox_matches_brute_force(self, store):
        box = BoundingBox(south=44.81, west=-0.59, north=44.83, east=-0.57)
        batch = store.scan("t", bbox=box)
        full = store.scan("t")
        inside = (
            (full.lat >= box.south)
            & (full.lat <= box.north)
            & (full.lon >= box.west)
            & (full.lon <= box.east)
        )
        assert len(batch) == int(np.count_nonzero(inside))
        assert len(batch) > 0
        assert batch.lat.min() >= box.south and batch.lat.max() <= box.north

    def test_bbox_accepts_tuple(self, store):
        box = (44.81, -0.59, 44.83, -0.57)
        assert len(store.scan("t", bbox=box)) == len(
            store.scan("t", bbox=BoundingBox(*box))
        )

    def test_user_scan(self, store):
        batch = store.scan_user("t", "user-3")
        assert len(batch) == 40
        assert set(batch.user_names()) == {"user-3"}

    def test_unknown_user_scans_empty(self, store):
        assert len(store.scan_user("t", "nobody")) == 0

    def test_filters_compose(self, store):
        batch = store.scan("t", t0=300.0, t1=2000.0, user="user-3")
        assert set(batch.user_names()) <= {"user-3"}
        assert np.all((batch.time >= 300.0) & (batch.time < 2000.0))

    def test_scan_covers_open_and_sealed_segments(self):
        store = DatasetStore(n_shards=1, segment_capacity=8)
        store.append(make_records(12))  # 8 sealed + 4 open
        assert len(store.scan("t")) == 12


class TestCompaction:
    def test_merges_and_sorts(self):
        store = DatasetStore(n_shards=1, segment_capacity=8)
        # Out-of-order arrival: later batch has earlier timestamps.
        store.append(make_records(10, t0=1000.0))
        store.append(make_records(10, t0=0.0))
        before = store.stats()
        assert before.segments > 1
        report = store.compact()
        after = store.stats()
        assert report.segments_after < report.segments_before
        assert after.segments == 1
        assert report.records == 20
        batch = store.scan("t")
        assert len(batch) == 20
        assert np.all(np.diff(batch.time) >= 0)

    def test_compaction_preserves_scan_results(self):
        store = DatasetStore(n_shards=4, segment_capacity=8)
        for u in range(5):
            store.append(make_records(21, user=f"u{u}", t0=50.0 * u))
        expected = set(
            zip(store.scan("t").user_names(), store.scan("t").time.tolist())
        )
        store.compact()
        batch = store.scan("t")
        assert set(zip(batch.user_names(), batch.time.tolist())) == expected
        # And filtered scans still work over the merged segments.
        assert len(store.scan("t", t0=100.0, t1=500.0)) == len(
            {(u, t) for u, t in expected if 100.0 <= t < 500.0}
        )

    def test_compact_single_task(self):
        store = DatasetStore(n_shards=1, segment_capacity=4)
        store.append(make_records(10, task="a"))
        store.append(make_records(10, task="b"))
        report = store.compact(task="a")
        assert report.records == 10
        assert len(store.scan("a")) == 10 and len(store.scan("b")) == 10

    def test_compact_idempotent(self):
        store = DatasetStore(n_shards=1, segment_capacity=4)
        store.append(make_records(10))
        store.compact()
        report = store.compact()
        assert report.segments_before == report.segments_after == 1
        assert report.partitions_compacted == 0

    def test_appends_continue_after_compaction(self):
        store = DatasetStore(n_shards=1, segment_capacity=4)
        store.append(make_records(10))
        store.compact()
        store.append(make_records(5, t0=9000.0))
        assert store.n_records == 15
        assert len(store.scan("t")) == 15
