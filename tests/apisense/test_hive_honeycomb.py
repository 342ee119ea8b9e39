"""Unit tests for Hive <-> Honeycomb wiring."""

import pytest

from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.units import DAY, HOUR
from tests.apisense.conftest import build_device


def deploy_standard_task(sim, hive, honeycomb, end=12 * HOUR):
    task = SensingTask(
        name="mobility",
        sensors=("gps",),
        sampling_period=300.0,
        upload_period=3600.0,
        end=end,
    )
    honeycomb.deploy(task)
    return task


@pytest.fixture()
def populated_hive(sim, hive, small_population, sensor_suite):
    for index in range(len(small_population.dataset)):
        hive.register_device(build_device(small_population, sensor_suite, index=index))
    return hive


class TestRegistration:
    def test_register_devices(self, populated_hive, small_population):
        assert populated_hive.stats.devices_registered == 5
        assert len(populated_hive.community) == 5

    def test_duplicate_device_rejected(self, populated_hive, small_population, sensor_suite):
        duplicate = build_device(small_population, sensor_suite, index=0)
        with pytest.raises(PlatformError):
            populated_hive.register_device(duplicate)

    def test_device_lookup(self, populated_hive):
        device = populated_hive.devices[0]
        assert populated_hive.device(device.device_id) is device
        with pytest.raises(PlatformError):
            populated_hive.device("nope")


class TestTaskFlow:
    def test_publish_offers_to_all(self, sim, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        deploy_standard_task(sim, populated_hive, honeycomb)
        stats = populated_hive.stats.per_task["mobility"]
        assert stats.offers == 5
        sim.run_until(10.0)  # let delivery-latency offers land
        assert 0 <= stats.acceptances <= 5

    def test_duplicate_publication_rejected(self, sim, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        task = deploy_standard_task(sim, populated_hive, honeycomb)
        with pytest.raises(PlatformError):
            populated_hive.publish_task(task, owner=honeycomb)

    def test_honeycomb_duplicate_deploy_rejected(self, sim, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        task = deploy_standard_task(sim, populated_hive, honeycomb)
        with pytest.raises(PlatformError):
            honeycomb.deploy(task)

    def test_upload_for_unknown_task_rejected(self, populated_hive):
        with pytest.raises(PlatformError):
            populated_hive.receive_upload("dev-0", "user-0000", "ghost", [])

    def test_records_flow_to_honeycomb(self, sim, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        task = deploy_standard_task(sim, populated_hive, honeycomb)
        sim.run_until(task.end + task.upload_period + 10.0)
        stats = populated_hive.stats.per_task["mobility"]
        if stats.acceptances > 0:
            assert stats.records > 0
            assert honeycomb.n_records("mobility") == stats.records

    def test_hooks_fire_on_routing(self, sim, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        batches = []
        honeycomb.add_hook(lambda name, records: batches.append((name, len(records))))
        task = deploy_standard_task(sim, populated_hive, honeycomb)
        sim.run_until(task.end + task.upload_period + 10.0)
        if populated_hive.stats.per_task["mobility"].records > 0:
            assert batches
            assert all(name == "mobility" for name, _ in batches)

    def test_foreign_task_data_rejected(self, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        with pytest.raises(PlatformError):
            honeycomb.receive_dataset("ghost", [])

    def test_unknown_task_records_rejected(self, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        with pytest.raises(PlatformError):
            honeycomb.mobility_dataset("ghost")


class TestMobilityDatasetAssembly:
    def test_gps_records_become_trajectories(self, sim, populated_hive, small_population):
        honeycomb = Honeycomb("lab", populated_hive)
        task = deploy_standard_task(sim, populated_hive, honeycomb, end=DAY)
        sim.run_until(task.end + task.upload_period + 10.0)
        dataset = honeycomb.mobility_dataset("mobility")
        stats = populated_hive.stats.per_task["mobility"]
        if stats.acceptances > 0:
            assert len(dataset) == stats.acceptances
            assert set(dataset.users) <= set(small_population.dataset.users)
            assert dataset.n_records == stats.records

    def test_empty_task_yields_empty_dataset(self, sim, populated_hive):
        honeycomb = Honeycomb("lab", populated_hive)
        task = SensingTask(
            name="battery-only", sensors=("battery",), sampling_period=600.0, end=HOUR
        )
        honeycomb.deploy(task)
        sim.run_until(2 * HOUR)
        dataset = honeycomb.mobility_dataset("battery-only")
        assert len(dataset) == 0  # no GPS values to assemble


class TestIncentiveIntegration:
    def test_contribution_updates_community(self, sim, populated_hive):
        from repro.apisense.incentives import RewardIncentive

        populated_hive.incentive = RewardIncentive()
        honeycomb = Honeycomb("lab", populated_hive)
        task = deploy_standard_task(sim, populated_hive, honeycomb)
        sim.run_until(task.end + task.upload_period + 10.0)
        contributions = sum(
            state.contributions for state in populated_hive.community.values()
        )
        uploads = populated_hive.stats.per_task["mobility"].uploads
        assert contributions == uploads

    def test_mean_motivation_bounds(self, populated_hive):
        assert 0.0 < populated_hive.mean_motivation() < 1.0

    def test_end_of_day_decays(self, populated_hive):
        before = populated_hive.mean_motivation()
        populated_hive.end_of_day()
        assert populated_hive.mean_motivation() < before
