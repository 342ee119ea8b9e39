"""``dashboard_fanout``: window closes pushed to 512 in-process sessions.

Why it exists: ingest is ~10 % of the time; ``ReproServer`` digest +
enqueue + per-session queue + transport + client read is the rest.  A
serialize-once fan-out must show here and a columnar ingest path must
not.  Half the sessions filter on one task, which exercises
``Subscription.matches``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro import obs
from repro.server import ReproServer, ServerClient
from repro.server.protocol import snapshot_digest

from e2ebench import inputs as gen
from e2ebench.harness import RoundResult, percentile
from e2ebench.spans import SpanRecorder, span_of
from e2ebench.wiring import (
    VIEW,
    WindowStamps,
    admit_tick,
    build_platform,
    check_ingest,
    ingest_ledger,
)

NAME = "dashboard_fanout"
TASK_A, TASK_B = "task-a", "task-b"
WARMUP = True
SLICE_SECONDS = 450.0
PERCENTILES = {"push_p50_ms": ("push_ms", 50.0), "push_p99_ms": ("push_ms", 99.0)}


@dataclass(frozen=True)
class Shape:
    devices: int
    ticks: int
    sessions: int


def shape(scale: str) -> Shape:
    return Shape(100, 48, 512) if scale == "full" else Shape(10, 6, 16)


LOOP = (
    "closed loop: one driver replays uploads and steps the simulator; dashboard "
    "sessions are connect_in_process() queue pairs on the same loop (0 sockets)"
)


def make_inputs(shape: Shape, seed: int) -> gen.ReplayInputs:
    half = shape.devices // 2
    return gen.replay_inputs(
        seed, {TASK_A: half, TASK_B: shape.devices - half}, shape.ticks
    )


async def _read(client: ServerClient, sink: list) -> None:
    while True:
        message = await client.next_push()
        sink.append((time.perf_counter(), message))


def run_round(
    shape: Shape, inputs: gen.ReplayInputs, recorder: SpanRecorder | None
) -> RoundResult:
    return asyncio.run(_round(shape, inputs, recorder))


async def _round(
    shape: Shape, inputs: gen.ReplayInputs, recorder: SpanRecorder | None
) -> RoundResult:
    obs.reset(metrics=True, tracing=False)
    started = time.perf_counter()
    hive, owner = build_platform(
        [TASK_A, TASK_B], inputs.tick_seconds, inputs.horizon, recorder
    )
    engine = hive.streams

    stamps = WindowStamps(engine, recorder)
    server = ReproServer(hive)
    stamps.after_server()

    clients: list[ServerClient] = []
    sinks: list[list] = []
    filters: list[tuple[str, ...]] = []
    readers = []
    for index in range(shape.sessions):
        tasks = (TASK_A, TASK_B) if index < shape.sessions // 2 else (TASK_A,)
        client = ServerClient(server.connect_in_process())
        await client.connect({"client": f"dash-{index:04d}"})
        await client.subscribe(VIEW, tasks=None if len(tasks) == 2 else list(tasks))
        sink: list = []
        readers.append(asyncio.ensure_future(_read(client, sink)))
        clients.append(client)
        sinks.append(sink)
        filters.append(tasks)
    try:
        build_s = time.perf_counter() - started
        span = span_of(recorder)

        accepted = short_uploads = 0
        started = time.perf_counter()
        with span("round"):
            for index, tick in enumerate(inputs.ticks):
                with span("tick", group=f"tick-{index}"):
                    with span("server.drive"):
                        await server.drive(tick.time, slice_seconds=SLICE_SECONDS)
                    got, short = admit_tick(hive, tick)
                    accepted += got
                    short_uploads += short
            with span("tick", group="drain"):
                with span("server.drive"):
                    await server.drive(inputs.horizon, slice_seconds=SLICE_SECONDS)
                hive.pipeline.flush_all()
                with span("streams.finalize"):
                    engine.finalize()
                with span("server.drain"):
                    await server.drain()
                    # Sent is not yet read: let every reader empty its inbox.
                    expected = server.pushes_sent
                    for _ in range(10_000):
                        if sum(len(sink) for sink in sinks) >= expected:
                            break
                        await asyncio.sleep(0)
        wall_s = time.perf_counter() - started

        # Correctness, outside the timed region.
        stored = hive.store.n_records
        failures = check_ingest(hive, owner, VIEW, accepted, inputs.n_records)
        batch = {
            task: [snapshot_digest(s) for s in engine.snapshots(task, VIEW)]
            for task in (TASK_A, TASK_B)
        }
        pushes_expected = 0
        pushes_wrong = 0
        push_ms: list[float] = []
        for sink, tasks in zip(sinks, filters):
            for task in tasks:
                got = [m["snapshot"] for _, m in sink if m["snapshot"]["task"] == task]
                want = batch[task]
                pushes_expected += len(want)
                pushes_wrong += abs(len(got) - len(want)) + sum(
                    g != w for g, w in zip(got, want)
                )
            for received, message in sink:
                snapshot = message["snapshot"]
                push_ms.append(
                    (received - stamps.closed_at[(snapshot["task"], snapshot["end"])]) * 1000.0
                )
        if pushes_wrong:
            failures.append(
                f"{pushes_wrong} pushes missing, duplicated, out of order or unequal "
                "to the engine's batch view"
            )
        if len(push_ms) != pushes_expected:
            failures.append(f"received {len(push_ms)} pushes, expected {pushes_expected}")
        enqueued = server.stats.pushes_enqueued
        if server.pushes_dropped or enqueued != (
            server.pushes_sent + server.pushes_dropped + server.pushes_queued
        ):
            failures.append(
                f"push accounting: enqueued {enqueued} sent {server.pushes_sent} "
                f"dropped {server.pushes_dropped} queued {server.pushes_queued}"
            )

        result = RoundResult(
            build_s=build_s,
            wall_s=wall_s,
            records=stored,
            attempted=inputs.n_uploads + pushes_expected,
            failed=short_uploads + pushes_wrong + server.pushes_dropped,
            failures=failures,
            fingerprint=(stored, len(batch[TASK_A]), len(batch[TASK_B]), enqueued),
            samples={"push_ms": push_ms},
            values={"pushes_per_s": len(push_ms) / wall_s},
            recorder=recorder,
        )
        if recorder is not None:
            result.layer, result.covered_s, self_times = ingest_ledger(recorder, hive)
            first: dict[tuple, float] = {}
            last: dict[tuple, float] = {}
            for sink in sinks:
                for received, message in sink:
                    key = (message["snapshot"]["task"], message["snapshot"]["end"])
                    first[key] = min(first.get(key, received), received)
                    last[key] = max(last.get(key, received), received)
            fanned_at = stamps.fanned_at
            result.layer |= {
                "server.fan_out_s": self_times.get("server.fan_out", 0.0),
                "server.fan_out_p50_ms": percentile(
                    recorder.durations("server.fan_out"), 50.0
                ) * 1000.0,
                # The loop between simulator slices: sender tasks, the
                # in-process transport, client readers.
                "server.deliver_s": self_times.get("server.drive", 0.0)
                + self_times.get("server.drain", 0.0),
                "server.deliver_first_p50_ms": percentile(
                    [first[k] - fanned_at[k] for k in first], 50.0
                ) * 1000.0,
                "server.deliver_last_p50_ms": percentile(
                    [last[k] - fanned_at[k] for k in last], 50.0
                ) * 1000.0,
                "server.pushes_enqueued": enqueued,
                "server.pushes_sent": server.pushes_sent,
                "server.pushes_dropped": server.pushes_dropped,
                "server.pushes_per_window": enqueued / len(fanned_at),
            }
        return result
    finally:
        for reader in readers:
            reader.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        await asyncio.gather(*(client.close() for client in clients))
