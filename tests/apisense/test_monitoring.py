"""Unit tests for platform health monitoring."""

import pytest

from repro.apisense import Campaign, CampaignConfig, SensingTask
from repro.apisense.monitoring import snapshot
from repro.units import DAY, HOUR


@pytest.fixture(scope="module")
def mid_campaign(small_population):
    campaign = Campaign(
        small_population, config=CampaignConfig(n_days=1, seed=21)
    )
    campaign.deploy(
        SensingTask(
            name="watched",
            sensors=("gps",),
            sampling_period=300.0,
            upload_period=1800.0,
            end=DAY,
        )
    )
    campaign.sim.run_until(6 * HOUR)  # mid-campaign, not finished
    return campaign


class TestSnapshot:
    def test_device_counts(self, mid_campaign):
        report = snapshot(mid_campaign.hive, mid_campaign.sim.now)
        assert report.devices == 5
        assert 0 <= report.running_devices <= 5

    def test_battery_and_motivation_bounds(self, mid_campaign):
        report = snapshot(mid_campaign.hive, mid_campaign.sim.now)
        assert 0.0 <= report.mean_battery <= 1.0
        assert 0.0 <= report.mean_motivation <= 1.0
        assert 0 <= report.low_battery_devices <= report.devices
        assert 0 <= report.at_risk_users <= report.devices

    def test_task_progress_tracked(self, mid_campaign):
        report = snapshot(mid_campaign.hive, mid_campaign.sim.now)
        assert len(report.tasks) == 1
        task = report.tasks[0]
        assert task.task == "watched"
        assert task.offers == 5
        if task.acceptances:
            assert task.records >= 0
            assert 0.0 < task.acceptance_rate <= 1.0

    def test_to_text_renders_everything(self, mid_campaign):
        report = snapshot(mid_campaign.hive, mid_campaign.sim.now)
        text = report.to_text()
        assert "platform health" in text
        assert "devices: 5" in text
        assert "task watched" in text
        assert "transport" in text

    def test_empty_hive(self):
        from repro.apisense.hive import Hive
        from repro.simulation import Simulator

        report = snapshot(Hive(Simulator()), 0.0)
        assert report.devices == 0
        assert report.mean_battery == 0.0
        assert report.tasks == ()

    def test_backpressure_counters_rendered(self, mid_campaign):
        report = snapshot(mid_campaign.hive, mid_campaign.sim.now)
        text = report.to_text()
        assert "backpressure:" in text
        assert "dropped" in text and "rejected" in text and "spilled" in text
        assert report.pipeline_shed == report.pipeline_dropped + report.pipeline_rejected

    def test_spilled_counter_tracks_pipeline(self):
        """A tiny reject-policy gateway sheds records, and the snapshot
        shows operators the loss without reaching into the pipeline."""
        from repro.apisense.device import SensorRecord
        from repro.apisense.hive import Hive
        from repro.simulation import Simulator
        from repro.store import DatasetStore, IngestPipeline

        sim = Simulator()
        store = DatasetStore(n_shards=1)
        pipeline = IngestPipeline(
            sim, store, policy="reject", buffer_capacity=2, flush_delay=10.0
        )
        hive = Hive(sim, pipeline=pipeline)
        records = [
            SensorRecord(
                device_id="d", user="u", task="t", time=float(i), values={}
            )
            for i in range(5)
        ]
        pipeline.submit(records)  # bounces: batch exceeds capacity
        pipeline.submit(records[:2])
        report = snapshot(hive, sim.now)
        assert report.pipeline_rejected == 5
        assert report.pipeline_spilled == pipeline.stats.spilled == 0
        assert report.pipeline_shed == 5
        assert "5 rejected" in report.to_text()


class TestBackpressureReconciliation:
    """Regression: the dashboard's backpressure totals reconcile with
    records admitted — accepted = store + dropped + buffered + backlog,
    with every record in at most one shed/parked counter."""

    def test_mid_campaign_snapshot_reconciles(self, mid_campaign):
        report = snapshot(mid_campaign.hive, mid_campaign.sim.now)
        assert report.pipeline_unaccounted == 0
        assert "unaccounted" in report.to_text()

    def test_reconciles_under_drop_oldest_overload(self):
        from repro.apisense.device import SensorRecord
        from repro.apisense.hive import Hive
        from repro.simulation import Simulator
        from repro.store import DatasetStore, IngestPipeline

        sim = Simulator()
        store = DatasetStore(n_shards=1)
        pipeline = IngestPipeline(
            sim, store, policy="drop-oldest", buffer_capacity=4, flush_delay=10.0
        )
        hive = Hive(sim, pipeline=pipeline)

        class _Owner:
            def add_source(self, task, store):
                pass

            def receive_dataset(self, task, batch):
                pass

        from repro.apisense.tasks import SensingTask

        hive.adopt_task(
            SensingTask(name="t", sensors=("gps",), sampling_period=60.0), _Owner()
        )
        records = [
            SensorRecord(device_id="d", user="u", task="t", time=float(i), values={})
            for i in range(11)
        ]
        hive.receive_upload("d", "u", "t", records)  # giant batch: head evicted
        report = snapshot(hive, sim.now)
        assert report.pipeline_accepted == 11
        assert report.pipeline_dropped == 7
        assert report.pipeline_unaccounted == 0
        sim.run()
        pipeline.flush_all()
        report = snapshot(hive, sim.now)
        assert report.pipeline_unaccounted == 0
        assert report.store_records == 4
