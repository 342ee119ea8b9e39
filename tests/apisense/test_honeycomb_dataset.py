"""The store is the dataset: a Honeycomb keeps no copy of what it collects.

A task's mobility dataset is read from the columnar store the Hive
flushed into, and must equal — users in order, fixes bit for bit — the
dataset assembled from the very records the Honeycomb's hooks saw.  The
records themselves do not outlive their flush.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.device import SensorRecord
from repro.apisense.tasks import SensingTask
from repro.geo.point import GeoPoint, Record
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.units import DAY
from tests.apisense.conftest import (
    assert_same_trajectories,
    collect_records,
    trajectories_from_records,
)

TASK = SensingTask(
    name="trace",
    sensors=("gps", "battery"),
    sampling_period=300.0,
    upload_period=1800.0,
    end=2 * DAY,
)


def six_user_campaign(seed: int, uplink_loss: float) -> Campaign:
    """Six users over two days, losing ``uplink_loss`` of the messages."""
    population = MobilityGenerator(
        GeneratorConfig(n_users=6, n_days=2, sampling_period=300.0)
    ).generate(seed=seed)
    config = CampaignConfig(n_days=2, uplink_loss=uplink_loss, seed=seed)
    return Campaign(population, config=config)


@pytest.mark.parametrize("seed", [2014, 7919])
@pytest.mark.parametrize("compact", [False, True])
def test_mobility_dataset_equals_the_hooked_records(seed, compact):
    campaign = six_user_campaign(seed, uplink_loss=0.1)
    honeycomb = campaign.deploy(TASK)
    seen = collect_records(honeycomb)
    campaign.run()
    if compact:
        campaign.hive.store.compact()
    expected = trajectories_from_records(seen)
    assert expected
    assert_same_trajectories(honeycomb.mobility_dataset(TASK.name), expected)


def test_no_record_outlives_its_flush():
    campaign = six_user_campaign(2014, uplink_loss=0.0)
    honeycomb = campaign.deploy(TASK)
    report = campaign.run()
    gc.collect()
    live = {id(o) for o in gc.get_objects() if isinstance(o, SensorRecord)}
    # The only records left are samples a device took too late to upload.
    unsent = {
        id(record)
        for device in campaign.devices
        for buffer in device._buffers.values()
        for record in buffer
    }
    assert report.total_records > 0
    assert honeycomb.n_records(TASK.name) == report.total_records
    assert live == unsent
    assert len(unsent) < len(campaign.devices)


def test_mobility_dataset_builds_no_record_or_point(monkeypatch):
    campaign = six_user_campaign(2014, uplink_loss=0.0)
    honeycomb = campaign.deploy(TASK)
    campaign.run()
    built: Counter[str] = Counter()
    for cls in (Record, GeoPoint):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    dataset = honeycomb.mobility_dataset(TASK.name)
    assert dataset.n_records > 0
    assert not built
