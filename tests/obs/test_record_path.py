"""End-to-end record tracing through the live platform.

The acceptance test of the observability tier: drive real uploads
through the Hive gateway, pipeline, store, and stream engine, then
reconstruct every record's journey **from the trace log alone** — no
component counters consulted — and assert exactly-once
pipeline -> store -> window delivery.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.server.protocol import snapshot_digest
from repro.simulation import Simulator
from repro.streams import StreamEngine, WindowSpec
from tests.obs.conftest import stored_columns

WINDOW = 300.0
TASK = "traced"


def make_traced_hive(sim: Simulator) -> Hive:
    hive = Hive(sim, streams=StreamEngine(sim=sim, allowed_lateness=0.0))
    hive.streams.register_view("m5", WindowSpec.tumbling(WINDOW))
    owner = Honeycomb("obs-tests", hive)
    task = SensingTask(
        name=TASK,
        sensors=("gps", "battery"),
        sampling_period=60.0,
        upload_period=WINDOW,
        end=86400.0,
    )
    owner.register_task(task)
    hive.adopt_task(task, owner)
    return hive


def upload(hive: Hive, device: str, times: list[float]) -> int:
    records = [
        SensorRecord(
            device_id=device,
            user=f"user-{device}",
            task=TASK,
            time=t,
            values={"battery": 0.5},
        )
        for t in times
    ]
    return hive.receive_upload(device, f"user-{device}", TASK, records)


def replay_gateway_uploads(n_devices: int) -> Hive:
    """Two upload ticks of ``n_devices`` three-record uploads, drained."""
    sim = Simulator()
    hive = make_traced_hive(sim)
    for tick in range(2):
        sim.run_until(tick * WINDOW)  # the last tick's flush timers fire
        for index in range(n_devices):
            start = tick * WINDOW + 10.0 + index % 50
            times = [start, start + 60.0, start + 120.0]
            assert upload(hive, f"dev-{index:03d}", times) == 3
    sim.run()
    hive.pipeline.flush_all()
    hive.streams.finalize()
    return hive


def assert_each_delivered_exactly_once(paths) -> None:
    """Every traced record crossed each of the four stages once."""
    for key, stages in paths.items():
        seen = {stage: len(spans) for stage, spans in stages.items()}
        assert seen == {
            "ingest.admit": 1,
            "ingest.flush": 1,
            "store.append": 1,
            "stream.window": 1,
        }, f"record {key} was not delivered exactly once: {seen}"


class TestRecordPathReconstruction:
    def test_exactly_once_pipeline_store_window_from_spans_alone(self):
        obs.configure(tracing=True, sample_rate=1.0)
        sim = Simulator()
        hive = make_traced_hive(sim)
        expected_keys = set()
        for index, device in enumerate(("dev-a", "dev-b", "dev-c")):
            times = [10.0 + index + 30.0 * k for k in range(4)]
            accepted = upload(hive, device, times)
            assert accepted == 4
            expected_keys.update((index + 1, t) for t in times)
        sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()

        paths = obs.record_paths(obs.tracer().log)
        # Every admitted record appears, keyed by (trace_id, time) —
        # nothing extra, nothing missing.
        assert set(paths) == expected_keys
        assert_each_delivered_exactly_once(paths)

    def test_flush_all_and_timer_flush_trace_identically(self):
        # Two records in one upload: one flushed by the timer, then the
        # campaign-teardown drain flushes nothing extra — the trace log
        # must show single delivery either way.
        obs.configure(tracing=True, sample_rate=1.0)
        sim = Simulator()
        hive = make_traced_hive(sim)
        upload(hive, "dev-a", [10.0, 40.0])
        sim.run()  # timer-driven flush
        hive.pipeline.flush_all()  # teardown drain (already empty)
        hive.streams.finalize()
        paths = obs.record_paths(obs.tracer().log)
        assert set(paths) == {(1, 10.0), (1, 40.0)}
        for stages in paths.values():
            assert len(stages["ingest.flush"]) == 1
            assert len(stages["store.append"]) == 1

    def test_sampling_traces_a_strict_subset(self):
        obs.configure(tracing=True, sample_rate=0.5)
        sim = Simulator()
        hive = make_traced_hive(sim)
        for index in range(8):
            upload(hive, f"dev-{index}", [10.0 + index])
        sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()
        paths = obs.record_paths(obs.tracer().log)
        # Systematic sampling at 0.5 traces every other upload.
        assert len(paths) == 4
        admits = obs.tracer().log.spans("ingest.admit")
        assert len(admits) == 4

    def test_one_in_ten_sampling_delivers_every_traced_record_exactly_once(self):
        # 0.1 is not a binary fraction: over 400 gate decisions the
        # accumulator may drift by one trace, never more.
        obs.configure(tracing=True, sample_rate=0.1)
        replay_gateway_uploads(200)  # 400 uploads
        log = obs.tracer().log
        assert log.dropped == 0
        n_traced = len(log.trace_ids())
        assert abs(n_traced - 400 * 0.1) <= 1
        paths = obs.record_paths(log)
        assert len(paths) == n_traced * 3
        assert_each_delivered_exactly_once(paths)

    def test_what_is_stored_and_windowed_does_not_depend_on_the_posture(self):
        outcomes = []
        for metrics, tracing in ((False, False), (True, False), (True, True)):
            obs.reset(metrics=metrics, tracing=tracing)
            obs.configure(sample_rate=0.1)
            hive = replay_gateway_uploads(200)
            assert hive.store.n_records == 1200
            outcomes.append(
                (
                    stored_columns(hive.store, TASK),
                    [snapshot_digest(s) for s in hive.streams.snapshots(TASK, "m5")],
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert [window["records"] for window in outcomes[0][1]] == [600, 600]

    def test_tracing_off_leaves_no_spans_and_no_trace_ids(self):
        sim = Simulator()
        hive = make_traced_hive(sim)
        upload(hive, "dev-a", [10.0])
        sim.run()
        hive.pipeline.flush_all()
        assert len(obs.tracer().log) == 0
        batch = hive.store.scan(TASK)
        assert len(batch) == 1

    def test_window_span_carries_window_identity(self):
        obs.configure(tracing=True, sample_rate=1.0)
        sim = Simulator()
        hive = make_traced_hive(sim)
        upload(hive, "dev-a", [10.0, 310.0])  # two tumbling windows
        sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()
        windows = obs.tracer().log.spans("stream.window")
        assert len(windows) == 2
        spans_by_start = {s.attrs["start"]: s for s in windows}
        assert set(spans_by_start) == {0.0, 300.0}
        assert spans_by_start[0.0].record_keys() == [(1, 10.0)]
        assert spans_by_start[300.0].record_keys() == [(1, 310.0)]
        for span in windows:
            assert span.attrs["task"] == TASK
            assert span.attrs["view"] == "m5"

    def test_latency_decomposes_per_stage(self):
        obs.configure(tracing=True, sample_rate=1.0)
        sim = Simulator()
        obs.configure(clock=lambda: sim.now)
        hive = make_traced_hive(sim)
        upload(hive, "dev-a", [10.0])
        sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()
        (key,) = obs.record_paths(obs.tracer().log)
        stages = obs.record_paths(obs.tracer().log)[key]
        for name in ("ingest.admit", "ingest.flush", "store.append", "stream.window"):
            (span,) = stages[name]
            assert span.duration >= 0.0
            assert span.sim_time is not None
        # The store write is nested inside the flush: its wall-clock
        # share is part of the flush span's, never larger.
        assert stages["store.append"][0].duration <= stages["ingest.flush"][0].duration + 1e-6
