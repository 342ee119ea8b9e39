"""The platform on top of the store: Hive -> pipeline -> store -> Honeycomb."""

import numpy as np
import pytest

from repro.apisense import Campaign, CampaignConfig, SensingTask
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.monitoring import snapshot
from repro.errors import PlatformError
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.units import DAY
from tests.apisense.conftest import collect_rows
from tests.store.conftest import make_records


def make_hive(sim, **kwargs) -> Hive:
    return Hive(sim, seed=1, **kwargs)


def register_task(hive: Hive, name: str = "t") -> Honeycomb:
    """Wire a task into the Hive without the offer/acceptance dance."""
    honeycomb = Honeycomb("lab", hive)
    task = SensingTask(
        name=name, sensors=("gps",), sampling_period=300.0, upload_period=1800.0, end=DAY
    )
    honeycomb.register_task(task)
    hive.adopt_task(task, honeycomb)
    return honeycomb


class TestUploadRouting:
    def test_upload_lands_in_store_and_honeycomb(self, sim):
        hive = make_hive(sim)
        honeycomb = register_task(hive)
        records = make_records(12, user="u0")
        hive.community.setdefault("u0", _user_state("u0"))
        hive.receive_upload("dev-u0", "u0", "t", records)
        assert hive.store.n_records == 0  # nothing until the flush fires
        assert honeycomb.n_records("t") == 0
        sim.run()
        assert hive.store.n_records == 12
        assert honeycomb.n_records("t") == 12

    def test_route_upload_alias(self, sim):
        hive = make_hive(sim)
        register_task(hive)
        hive.community.setdefault("u0", _user_state("u0"))
        hive.route_upload("dev-u0", "u0", "t", make_records(3, user="u0"))
        sim.run()
        assert hive.store.n_records == 3

    def test_uploads_coalesce_into_one_hook_batch(self, sim):
        hive = make_hive(sim)
        honeycomb = register_task(hive)
        batches = []
        honeycomb.add_hook(lambda name, columns: batches.append(columns.user_names()))
        hive.community.setdefault("u0", _user_state("u0"))
        # Two uploads of the same (task, user) inside one flush window.
        hive.receive_upload("dev-u0", "u0", "t", make_records(5, user="u0"))
        hive.receive_upload("dev-u0", "u0", "t", make_records(4, user="u0", t0=900.0))
        sim.run()
        assert batches == [["u0"] * 9]

    def test_custom_store_and_policy(self, sim):
        store = DatasetStore(n_shards=2, segment_capacity=64)
        pipeline = IngestPipeline(
            sim, store, policy="reject", buffer_capacity=8, flush_delay=0.1
        )
        hive = make_hive(sim, pipeline=pipeline)
        assert hive.store is store
        register_task(hive)
        hive.community.setdefault("u0", _user_state("u0"))
        assert hive.receive_upload("dev-u0", "u0", "t", make_records(6, user="u0")) == 6
        assert (
            hive.receive_upload("dev-u0", "u0", "t", make_records(6, user="u0", t0=500.0))
            == 0
        )
        sim.run()
        assert store.n_records == 6  # second batch bounced at the gateway
        assert pipeline.stats.rejected == 6
        # Shed records are neither counted nor rewarded.
        assert hive.stats.per_task["t"].records == 6
        assert hive.stats.per_task["t"].uploads == 2

    def test_mismatched_store_and_pipeline_rejected(self, sim):
        store = DatasetStore(n_shards=2)
        other = DatasetStore(n_shards=2)
        pipeline = IngestPipeline(sim, other)
        with pytest.raises(PlatformError):
            make_hive(sim, store=store, pipeline=pipeline)

    def test_pipeline_cannot_serve_two_hives(self, sim):
        from repro.errors import StoreError

        pipeline = IngestPipeline(sim, DatasetStore(n_shards=2))
        make_hive(sim, pipeline=pipeline)
        with pytest.raises(StoreError):
            Hive(sim, pipeline=pipeline, seed=2)


class TestHoneycombStoreReads:
    def _run_campaign(self, small_population):
        campaign = Campaign(
            small_population, config=CampaignConfig(n_days=2, seed=11)
        )
        honeycomb = campaign.deploy(
            SensingTask(
                name="study",
                sensors=("gps", "battery"),
                sampling_period=300.0,
                upload_period=1800.0,
                end=2 * DAY,
            )
        )
        seen = collect_rows(honeycomb)
        report = campaign.run()
        return campaign, honeycomb, report, seen

    def test_store_agrees_with_legacy_record_lists(self, small_population):
        campaign, honeycomb, report, seen = self._run_campaign(small_population)
        assert report.total_records > 0
        # Every record the Honeycomb's hooks saw is in the store, and vice versa.
        assert campaign.hive.store.n_records == report.total_records
        view = honeycomb.dataset_view("study")
        assert len(view) == honeycomb.n_records("study") == len(seen)
        hooked = {(user, time) for user, time, *_ in seen}
        assert set(zip(view.user_names(), view.time.tolist())) == hooked

    def test_dataset_view_filters(self, small_population):
        _, honeycomb, _, _ = self._run_campaign(small_population)
        day0 = honeycomb.dataset_view("study", t0=0.0, t1=float(DAY))
        assert np.all(day0.time < DAY)
        user = honeycomb.dataset_view("study").user_names()[0]
        mine = honeycomb.dataset_view("study", user=user)
        assert set(mine.user_names()) == {user}

    def test_aggregate_view_matches_recount(self, small_population):
        _, honeycomb, _, _ = self._run_campaign(small_population)
        aggregate = honeycomb.aggregate("study")
        assert aggregate is not None
        assert aggregate.records == honeycomb.n_records("study")
        users = honeycomb.dataset_view("study").user_names()
        assert aggregate.n_users == len(set(users))
        # Uploads ride a ~0.2 s hop + <=0.2 s flush window: lag is small
        # but strictly positive once records have been flushed.
        assert 0.0 < aggregate.lag_p95 < 3600.0 + 5.0

    def test_unknown_task_raises(self, sim):
        hive = make_hive(sim)
        honeycomb = Honeycomb("lab", hive)
        with pytest.raises(PlatformError):
            honeycomb.dataset_view("ghost")
        with pytest.raises(PlatformError):
            honeycomb.aggregate("ghost")


class TestMonitoringCounters:
    def test_snapshot_surfaces_store_and_pipeline(self, small_population):
        campaign = Campaign(small_population, config=CampaignConfig(n_days=1, seed=5))
        campaign.deploy(
            SensingTask(
                name="watched",
                sensors=("gps",),
                sampling_period=300.0,
                upload_period=1800.0,
                end=DAY,
            )
        )
        report_obj = campaign.run()
        health = snapshot(campaign.hive, campaign.sim.now)
        assert health.store_records == report_obj.total_records
        assert health.store_shards == campaign.hive.store.n_shards
        assert health.pipeline_flushes > 0
        assert health.pipeline_buffered == 0  # drained at campaign end
        assert health.mean_flush_batch > 0.0
        assert health.ingest_lag_p95 > 0.0
        text = health.to_text()
        assert "store:" in text and "ingest:" in text

    def test_empty_hive_reports_zero_store(self):
        health = snapshot(Hive(Simulator()), 0.0)
        assert health.store_records == 0
        assert health.pipeline_flushes == 0
        assert "store: 0 records" in health.to_text()


def _user_state(user: str):
    from repro.apisense.incentives import UserState

    return UserState(user=user, motivation=0.5)
