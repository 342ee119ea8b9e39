"""What a device sample and upload cost, in calls: columns from the device
buffer to the segment.

A kept sample is one ``(time, lat, lon, value)`` row in its task's
device buffer and an upload is one ``UploadChunk`` of those rows: a
scriptless campaign builds no ``SensorRecord`` and no ``GeoPoint`` on
the sample path, traced or not, never columnizes a record list, and
routes each upload with one ``shard_of`` call.  A gateway client's
record lists are read in one pass per flush.  A flush groups its rows
by task once for the store and the router, and once more by (task,
pane) for the stream engine.
"""

from __future__ import annotations

import functools

import pytest

import repro.apisense.hive
import repro.store.columns
import repro.store.dataset_store
import repro.store.pipeline
import repro.streams.engine
from repro import obs
from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.device import SensorRecord
from repro.apisense.tasks import SensingTask
from repro.geo.point import GeoPoint
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import WindowSpec
from repro.units import DAY, HOUR
from tests.conftest import Calls
from tests.store.conftest import make_records

#: The modules that call the counted functions by a name of their own.
MODULES = (
    repro.apisense.hive,
    repro.store.columns,
    repro.store.dataset_store,
    repro.store.pipeline,
    repro.streams.engine,
)


@functools.lru_cache(maxsize=None)
def population():
    config = GeneratorConfig(n_users=6, n_days=1, sampling_period=120.0)
    return MobilityGenerator(config).generate(seed=2014)


def shim_everywhere(calls: Calls, monkeypatch, name: str) -> None:
    """Count ``name`` under every module binding it."""
    for module in MODULES:
        if hasattr(module, name):
            calls.shim(monkeypatch, module, name)


def scriptless_campaign(sensors: tuple[str, ...]) -> tuple[Campaign, SensingTask]:
    campaign = Campaign(population(), config=CampaignConfig(n_days=1, seed=2014))
    campaign.hive.streams.register_view("hourly", WindowSpec.tumbling(HOUR))
    task = SensingTask(
        name="grid",
        sensors=sensors,
        sampling_period=120.0,
        upload_period=1800.0,
        end=DAY,
    )
    campaign.deploy(task)
    return campaign, task


@pytest.fixture()
def traced(request):
    """Every upload traced (the stamp is once per chunk) or none."""
    obs.reset(metrics=True, tracing=request.param)
    obs.configure(sample_rate=1.0)
    yield request.param
    obs.reset(metrics=True, tracing=False)


# Not "network" or "accelerometer": those sensors read the device's
# position themselves (a GeoPoint per read, the sensor's own physics).
@pytest.mark.parametrize("traced", [False, True], indirect=True)
@pytest.mark.parametrize("sensors", [("gps",), ("gps", "battery")])
def test_a_sample_is_a_row_and_an_upload_is_one_chunk(monkeypatch, calls, sensors, traced):
    campaign, task = scriptless_campaign(sensors)
    built = Calls()
    built.shim(monkeypatch, SensorRecord, "__init__")
    points = Calls()
    points.shim(monkeypatch, GeoPoint, "__init__")
    shim_everywhere(calls, monkeypatch, "columnize")
    calls.shim(monkeypatch, DatasetStore, "shard_of")

    campaign.run()

    stats = campaign.hive.stats.per_task[task.name]
    assert stats.records == campaign.hive.store.n_records > 0
    assert sum(built.values()) == 0
    assert sum(points.values()) == 0
    assert calls["columnize"] == 0
    assert calls["shard_of"] == stats.uploads > 0
    admitted = campaign.hive.obs_context.tracer.log.spans("ingest.admit")
    assert len(admitted) == (stats.uploads if traced else 0)


def test_a_flush_groups_its_rows_by_task_once_for_store_and_router(monkeypatch, calls):
    campaign, task = scriptless_campaign(("gps",))
    shim_everywhere(calls, monkeypatch, "group_rows")

    campaign.run()

    pipeline = campaign.hive.pipeline.stats
    assert campaign.hive.streams.stats.records_seen == pipeline.flushed_records > 0
    # One task grouping shared by the store and the router, one (task,
    # pane) grouping in the stream engine's fold.
    assert calls["group_rows"] == 2 * pipeline.flushes > 0


def test_record_lists_are_read_in_one_pass_per_flush(monkeypatch, calls, sim):
    """A gateway client's record lists are columnized per flush, over
    their concatenation, not per upload."""
    pipeline = IngestPipeline(sim, DatasetStore(n_shards=2), flush_delay=1.0)
    shim_everywhere(calls, monkeypatch, "_rows_array")
    for user in range(40):
        pipeline.submit(make_records(6, user=f"u{user}", t0=10.0 * user))
    sim.run()

    assert pipeline.stats.flushed_records == 240
    assert calls["rows_array"] == pipeline.stats.flushes == 2
