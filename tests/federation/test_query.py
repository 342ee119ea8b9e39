"""FederatedDataset: cross-store scans and aggregate merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apisense.device import SensorRecord
from repro.errors import StoreError
from repro.federation import ConsistentHashRing, FederatedDataset
from repro.geo.point import GeoPoint
from repro.store import DatasetStore, QuantileSketch
from repro.store.quantiles import RELATIVE_ACCURACY

N_USERS = 30
RECORDS_PER_USER = 40
TASK = "fed-query"


def make_records() -> list[SensorRecord]:
    records = []
    for u in range(N_USERS):
        for i in range(RECORDS_PER_USER):
            records.append(
                SensorRecord(
                    device_id=f"dev-{u:03d}",
                    user=f"user-{u:03d}",
                    task=TASK,
                    time=600.0 * i + u,
                    values={
                        "gps": GeoPoint(44.8 + 0.001 * u, -0.6 + 0.001 * i),
                        "noise": float(u * 100 + i),
                    },
                )
            )
    return records


@pytest.fixture(scope="module")
def baseline() -> DatasetStore:
    """Everything in one store: the single-hive ground truth."""
    store = DatasetStore(n_shards=4)
    store.append(make_records(), ingest_time=90_000.0)
    return store


def shard_records(n_members: int):
    """The same records split across member stores by device placement."""
    ring = ConsistentHashRing()
    stores = {}
    for index in range(n_members):
        name = f"hive-{index}"
        ring.add(name)
        stores[name] = DatasetStore(n_shards=4)
    groups: dict[str, list[SensorRecord]] = {name: [] for name in stores}
    for record in make_records():
        groups[ring.place(record.device_id)].append(record)
    for name, records in groups.items():
        stores[name].append(records, ingest_time=90_000.0)
    return stores


@pytest.fixture(scope="module", params=[1, 3])
def federated(request) -> FederatedDataset:
    return FederatedDataset(shard_records(request.param))


class TestScanMerge:
    def test_full_scan_matches_baseline_count(self, federated, baseline):
        merged = federated.scan(TASK)
        assert len(merged) == len(baseline.scan(TASK)) == N_USERS * RECORDS_PER_USER
        assert federated.n_records == baseline.n_records

    def test_merged_rows_equal_baseline_rows(self, federated, baseline):
        """Same (user, time, lat, lon, value) multiset — the user-id
        remapping across member tables must not scramble attribution."""
        merged = sorted(federated.scan(TASK).rows())
        single = sorted(baseline.scan(TASK).rows())
        assert merged == single

    def test_time_and_bbox_filters_compose(self, federated, baseline):
        bbox = (44.80, -0.59, 44.82, -0.57)
        merged = federated.scan(TASK, t0=3000.0, t1=12_000.0, bbox=bbox)
        single = baseline.scan(TASK, t0=3000.0, t1=12_000.0, bbox=bbox)
        assert len(merged) == len(single)
        assert sorted(merged.rows()) == sorted(single.rows())

    def test_user_scan_touches_one_member(self, federated, baseline):
        user = "user-007"
        merged = federated.scan_user(TASK, user)
        assert len(merged) == RECORDS_PER_USER
        assert set(merged.user_names()) == {user}

    def test_empty_scan(self, federated):
        assert len(federated.scan("no-such-task")) == 0
        assert len(federated.scan(TASK, t0=1e9)) == 0

    def test_user_table_is_deduplicated(self, federated):
        merged = federated.scan(TASK)
        assert len(merged.user_table) == N_USERS
        assert len(set(merged.user_table)) == N_USERS
        assert int(merged.user_id.max()) == N_USERS - 1


class TestAggregateMerge:
    def test_counts_users_cells_merge_exactly(self, federated, baseline):
        merged = federated.aggregate(TASK)
        single = baseline.aggregate(TASK)
        assert merged.records == single.records
        assert merged.gps_records == single.gps_records
        assert merged.n_users == single.n_users == N_USERS
        assert merged.coverage_cells == single.coverage_cells
        assert merged.first_time == single.first_time
        assert merged.last_time == single.last_time
        assert merged.lag_mean == pytest.approx(single.lag_mean)

    def test_percentiles_are_the_merged_member_sketches(self, federated, baseline):
        merged = federated.aggregate(TASK)
        members = QuantileSketch.merge(
            [member.lag_sketch for member in merged.per_member.values()]
        )
        assert merged.lag_p95 == members.quantile(0.95)
        # Every store ingested at one instant, so the members' lags are
        # the single store's lags, split: the merge is that store's sketch.
        single = baseline.aggregate(TASK)
        assert members.state() == single.lag_sketch.state()
        assert (merged.lag_p50, merged.lag_p95, merged.lag_p99) == (
            single.lag_p50, single.lag_p95, single.lag_p99
        )
        assert merged.lag_max == max(
            member.lag_max for member in merged.per_member.values()
        )

    def test_percentiles_of_unequal_members_are_pooled(self):
        """A fresh member and a stale one: the federation's median lag is
        the pooled median, not the stale member's."""
        records = make_records()
        fresh, stale = DatasetStore(), DatasetStore()
        fresh.append(records[: len(records) // 2], ingest_time=30_000.0)
        stale.append(records[len(records) // 2 :], ingest_time=900_000.0)
        merged = FederatedDataset({"fresh": fresh, "stale": stale}).aggregate(TASK)
        pooled = QuantileSketch.merge(
            [fresh.aggregate(TASK).lag_sketch, stale.aggregate(TASK).lag_sketch]
        )
        readings = (merged.lag_p50, merged.lag_p95, merged.lag_p99)
        assert readings == tuple(pooled.quantile(p) for p in (0.50, 0.95, 0.99))
        lags = np.concatenate([
            30_000.0 - fresh.scan(TASK).time, 900_000.0 - stale.scan(TASK).time
        ])
        for reading, p in zip(readings, (0.50, 0.95, 0.99)):
            exact = float(np.quantile(lags, p, method="lower"))
            assert abs(reading - exact) <= RELATIVE_ACCURACY * exact
        assert merged.lag_p50 < stale.aggregate(TASK).lag_p50

    def test_unknown_task_raises(self, federated):
        with pytest.raises(StoreError):
            federated.aggregate("no-such-task")

    def test_mismatched_cell_size_raises(self):
        a = DatasetStore(coverage_cell_deg=0.005)
        b = DatasetStore(coverage_cell_deg=0.01)
        records = make_records()
        a.append(records[: len(records) // 2])
        b.append(records[len(records) // 2 :])
        federated = FederatedDataset({"a": a, "b": b})
        with pytest.raises(StoreError):
            federated.aggregate(TASK)

    def test_to_text_mentions_members(self, federated):
        text = federated.aggregate(TASK).to_text()
        assert "federated task" in text
        for name in federated.member_names:
            assert name in text


class TestConstruction:
    def test_empty_membership_rejected(self):
        with pytest.raises(StoreError):
            FederatedDataset({})

    def test_unknown_member_store_rejected(self, federated):
        with pytest.raises(StoreError):
            federated.store("nope")

    def test_tasks_union(self, federated):
        assert federated.tasks == [TASK]
