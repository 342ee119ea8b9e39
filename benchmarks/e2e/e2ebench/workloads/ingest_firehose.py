"""``ingest_firehose``: gateway replay into store and windows, no server.

Why it exists: all time is hive admit -> pipeline -> ``store.append`` /
columnize -> pane fold, in ~3000-record flushes; the server and device
tiers do nothing.  A columnar flush path must show here; a fan-out
change must show nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs

from e2ebench import inputs as gen
from e2ebench.harness import RoundResult
from e2ebench.spans import SpanRecorder, span_of
from e2ebench.wiring import (
    VIEW,
    admit_tick,
    build_platform,
    check_ingest,
    ingest_ledger,
)

NAME = "ingest_firehose"
TASK = "firehose"
WARMUP = True
PERCENTILES: dict = {}


@dataclass(frozen=True)
class Shape:
    devices: int
    ticks: int


def shape(scale: str) -> Shape:
    return Shape(devices=2000, ticks=10) if scale == "full" else Shape(40, 10)


LOOP = (
    "closed loop: one driver hands over each device's upload in turn and "
    "steps the simulator; 0 connections"
)


def make_inputs(shape: Shape, seed: int) -> gen.ReplayInputs:
    return gen.replay_inputs(seed, {TASK: shape.devices}, shape.ticks)


def run_round(
    shape: Shape, inputs: gen.ReplayInputs, recorder: SpanRecorder | None
) -> RoundResult:
    obs.reset(metrics=True, tracing=False)
    started = time.perf_counter()
    hive, owner = build_platform([TASK], inputs.tick_seconds, inputs.horizon, recorder)
    build_s = time.perf_counter() - started
    sim, engine = hive.sim, hive.streams
    span = span_of(recorder)

    accepted = short_uploads = 0
    started = time.perf_counter()
    with span("round"):
        for index, tick in enumerate(inputs.ticks):
            with span("tick", group=f"tick-{index}"):
                sim.run_until(tick.time)  # flushes the previous tick
                got, short = admit_tick(hive, tick)
                accepted += got
                short_uploads += short
        with span("tick", group="drain"):
            sim.run()
            hive.pipeline.flush_all()
            with span("streams.finalize"):
                engine.finalize()
    wall_s = time.perf_counter() - started

    stored = hive.store.n_records
    result = RoundResult(
        build_s=build_s,
        wall_s=wall_s,
        records=stored,
        attempted=inputs.n_uploads,
        failed=short_uploads,
        failures=check_ingest(hive, owner, VIEW, accepted, inputs.n_records),
        fingerprint=(stored, engine.stats.windows_emitted, hive.pipeline.stats.flushes),
        recorder=recorder,
    )
    if recorder is not None:
        result.layer, result.covered_s, _ = ingest_ledger(recorder, hive)
    return result
