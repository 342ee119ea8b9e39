"""``device_campaign``: a real-device ``Campaign`` through all six tiers.

Why it exists: real ``MobileDevice``\\ s, the scripting dispatcher,
sensors, battery, filters and ``Transport``.  Uploads arrive staggered,
so flushes are small (compare ``pipeline.mean_flush_batch`` with the
firehose's ~3000): a batching optimisation with per-flush overhead wins
on ``ingest_firehose`` and loses here, and the device tier's own cost is
measured nowhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.tasks import SensingTask
from repro.mobility.generator import GeneratorConfig, MobilityGenerator, PopulationData
from repro.streams import WindowSpec
from repro.units import DAY

from e2ebench.harness import RoundResult
from e2ebench.spans import SpanRecorder, span_of
from e2ebench.wiring import check_ingest, ingest_ledger, probe_ingest

NAME = "device_campaign"
TASK = "gps-trace"
VIEW = "hourly"
WARMUP = True
PERCENTILES: dict = {}
SAMPLING_SECONDS = 120.0
UPLOAD_SECONDS = 1800.0


@dataclass(frozen=True)
class Shape:
    users: int
    days: int


def shape(scale: str) -> Shape:
    return Shape(users=40, days=4) if scale == "full" else Shape(users=6, days=1)


LOOP = (
    "closed loop: simulated devices upload over the simulated Transport and "
    "the simulator is stepped by Campaign.run(); 0 connections"
)


@dataclass(frozen=True)
class Inputs:
    population: PopulationData
    seed: int


def make_inputs(shape: Shape, seed: int) -> Inputs:
    config = GeneratorConfig(
        n_users=shape.users, n_days=shape.days, sampling_period=SAMPLING_SECONDS
    )
    return Inputs(MobilityGenerator(config).generate(seed=seed), seed)


def run_round(
    shape: Shape, inputs: Inputs, recorder: SpanRecorder | None
) -> RoundResult:
    obs.reset(metrics=True, tracing=False)
    started = time.perf_counter()
    campaign = Campaign(
        inputs.population,
        config=CampaignConfig(n_days=shape.days, seed=inputs.seed),
    )
    hive = campaign.hive
    # Default panes (300 s) and lateness (1800 s = one upload period).
    hive.streams.register_view(VIEW, WindowSpec.tumbling(3600.0))
    windows: list = []  # 96 hourly windows outlive the engine's history of 64
    hive.streams.on_window(windows.append)
    owner = campaign.deploy(
        SensingTask(
            name=TASK,
            sensors=("gps",),
            sampling_period=SAMPLING_SECONDS,
            upload_period=UPLOAD_SECONDS,
            end=shape.days * DAY,
        )
    )
    if recorder is not None:
        probe_ingest(recorder, hive, [owner])
    build_s = time.perf_counter() - started
    span = span_of(recorder)

    started = time.perf_counter()
    with span("round"):
        with span("campaign.run"):
            report = campaign.run()
        with span("streams.finalize"):
            hive.streams.finalize()
    wall_s = time.perf_counter() - started

    stats = [device.stats[TASK] for device in campaign.devices if TASK in device.stats]
    task_stats = hive.stats.per_task[TASK]
    stored = hive.store.n_records
    result = RoundResult(
        build_s=build_s,
        wall_s=wall_s,
        records=stored,
        attempted=sum(s.uploads + s.uploads_failed for s in stats),
        failed=sum(s.uploads_failed + s.uploads_rejected for s in stats),
        failures=check_ingest(hive, owner, VIEW, task_stats.records, windows=windows),
        fingerprint=(
            stored,
            task_stats.uploads,
            hive.streams.stats.windows_emitted,
            hive.pipeline.stats.flushes,
        ),
        recorder=recorder,
    )
    if recorder is not None:
        result.layer, result.covered_s, _ = ingest_ledger(recorder, hive)
        result.layer |= {
            "device.samples": sum(s.samples_taken for s in stats),
            "device.uploads": sum(s.uploads for s in stats),
            "device.messages": report.messages_sent,
        }
    return result
