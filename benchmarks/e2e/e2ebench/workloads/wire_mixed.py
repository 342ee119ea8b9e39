"""``wire_mixed``: uploads, scans and queries over TCP beside a watcher.

Why it exists: the same layers used differently — request/response and
JSON encode/decode instead of push, and reads beside writes on the
``DatasetStore``.  An append-path change that fragments segments, or a
fan-out change that slows the request path, shows here and nowhere else.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.server import (
    AuthTokenMiddleware,
    Endpoint,
    MetricsMiddleware,
    ReproServer,
    ServerClient,
    connect_tcp,
)
from repro.streams import ContinuousQuery, rate_below

from e2ebench import inputs as gen
from e2ebench.harness import RoundResult, percentile
from e2ebench.spans import SpanRecorder, span_of
from e2ebench.wiring import (
    VIEW,
    WindowStamps,
    build_platform,
    check_ingest,
    ingest_ledger,
)

NAME = "wire_mixed"
TASK = "wire"
WARMUP = True
SLICE_SECONDS = 450.0
HOST = "127.0.0.1"
PERCENTILES = {
    "upload_rtt_p50_ms": ("upload_rtt_ms", 50.0),
    "query_p50_ms": ("query_ms", 50.0),
    "scan_cycle_p50_ms": ("scan_cycle_ms", 50.0),
}
#: The watcher's query fires on every window: the replayed rate is
#: devices * 6 / 1800 records a second, far below this.
ALERT_BELOW = 1000.0


@dataclass(frozen=True)
class Shape:
    devices: int
    ticks: int
    uploads_per_read_cycle: int


def shape(scale: str) -> Shape:
    return Shape(300, 40, 100) if scale == "full" else Shape(10, 6, 20)


LOOP = (
    "closed loop: 1 uploader connection waits for every reply, 1 watcher "
    "connection reads pushes (2 TCP sockets on 127.0.0.1); the driver steps the simulator"
)


@dataclass(frozen=True)
class Inputs:
    replay: gen.ReplayInputs
    bbox: tuple[float, float, float, float]
    scan_user: str
    #: Rows each scan must return once ``k`` ticks are flushed, ``k = 0..ticks``.
    rows_in_bbox: list[int]


def make_inputs(shape: Shape, seed: int) -> Inputs:
    replay = gen.replay_inputs(seed, {TASK: shape.devices}, shape.ticks)
    # ~5 % of the area at a seeded position; a generator of its own so
    # the replayed records do not depend on how the box is drawn.
    rng = np.random.default_rng([seed, 1])
    south, west, north, east = gen.AREA
    side = 0.05**0.5
    box_south = south + rng.uniform(0.0, 1.0 - side) * (north - south)
    box_west = west + rng.uniform(0.0, 1.0 - side) * (east - west)
    bbox = (
        box_south,
        box_west,
        box_south + side * (north - south),
        box_west + side * (east - west),
    )
    inside = (
        (replay.lat >= bbox[0])
        & (replay.lat <= bbox[2])
        & (replay.lon >= bbox[1])
        & (replay.lon <= bbox[3])
    )
    per_tick = inside.sum(axis=(1, 2))
    return Inputs(
        replay=replay,
        bbox=bbox,
        scan_user=replay.users[int(rng.integers(len(replay.users)))],
        rows_in_bbox=[0] + np.cumsum(per_tick).tolist(),
    )


class CountingEndpoint(Endpoint):
    """Traced rounds: byte counts of the uploader's connection.

    Counts the compact JSON line ``serve_tcp`` frames each message as,
    outside the measured round trip of the untraced rounds.
    """

    def __init__(self, inner: Endpoint):
        self.inner = inner
        self.bytes_out = 0
        self.bytes_in = 0

    async def send(self, message) -> None:
        self.bytes_out += len(json.dumps(message, separators=(",", ":"))) + 1
        await self.inner.send(message)

    async def recv(self):
        message = await self.inner.recv()
        if message is not None:
            self.bytes_in += len(json.dumps(message, separators=(",", ":"))) + 1
        return message

    def close(self) -> None:
        self.inner.close()

    @property
    def remote(self) -> str:
        return self.inner.remote


async def _watch(client: ServerClient, sink: list) -> None:
    while True:
        message = await client.next_push()
        sink.append((time.perf_counter(), message))


def run_round(
    shape: Shape, inputs: Inputs, recorder: SpanRecorder | None
) -> RoundResult:
    return asyncio.run(_round(shape, inputs, recorder))


async def _round(
    shape: Shape, inputs: Inputs, recorder: SpanRecorder | None
) -> RoundResult:
    replay = inputs.replay
    per_tick = len(replay.ticks[0].uploads) * replay.records_per_upload
    obs.reset(metrics=True, tracing=False)
    started = time.perf_counter()
    hive, owner = build_platform([TASK], replay.tick_seconds, replay.horizon, recorder)
    engine, store = hive.streams, hive.store
    engine.register_query(VIEW, ContinuousQuery("rate-low", rate_below(ALERT_BELOW)))
    stamps = WindowStamps(engine, recorder)
    server = ReproServer(
        hive,
        middlewares=[
            MetricsMiddleware(),
            AuthTokenMiddleware({"tok-upload": "uploader", "tok-watch": "watcher"}),
        ],
    )
    stamps.after_server()
    listener = await server.serve_tcp(HOST, 0)
    port = listener.sockets[0].getsockname()[1]
    endpoint = await connect_tcp(HOST, port)
    if recorder is not None:
        endpoint = CountingEndpoint(endpoint)
    uploader = ServerClient(endpoint)
    await uploader.connect({"authorization": "tok-upload"})
    watcher = ServerClient(await connect_tcp(HOST, port))
    await watcher.connect({"authorization": "tok-watch"})
    await watcher.subscribe(VIEW, alerts=True)
    watched: list = []
    watch_task = asyncio.ensure_future(_watch(watcher, watched))
    try:
        build_s = time.perf_counter() - started
        span = span_of(recorder)

        upload_rtt_ms: list[float] = []
        query_ms: list[float] = []
        scan_ms: dict[str, list[float]] = {"time": [], "bbox": [], "user": []}
        short_uploads = 0
        wrong_reads = 0
        reads = 0
        accepted = 0
        uploads = 0
        clock = time.perf_counter

        started = clock()
        with span("round"):
            for flushed, tick in enumerate(replay.ticks):
                # Entering tick k, ticks 0..k-1 are flushed and stored.
                with span("tick", group=f"tick-{flushed}"):
                    with span("server.drive"):
                        await server.drive(tick.time, slice_seconds=SLICE_SECONDS)
                    for upload in tick.uploads:
                        t0 = clock()
                        with span("wire.upload"):
                            reply = await uploader.upload(
                                upload.device_id, upload.user, upload.task, upload.records
                            )
                        upload_rtt_ms.append((clock() - t0) * 1000.0)
                        accepted += reply["accepted"]
                        short_uploads += reply["accepted"] != len(upload.records)
                        uploads += 1
                        if uploads % shape.uploads_per_read_cycle or not flushed:
                            continue  # nothing is stored before the first flush
                        # One read cycle: three store scans, one wire query.
                        t0 = clock()
                        since = tick.time - 2 * replay.tick_seconds
                        with span("store.scan_time"):
                            rows_time = len(store.scan_time(TASK, since, tick.time))
                        t1 = clock()
                        with span("store.scan_bbox"):
                            rows_bbox = len(store.scan_bbox(TASK, inputs.bbox))
                        t2 = clock()
                        with span("store.scan_user"):
                            rows_user = len(store.scan_user(TASK, inputs.scan_user))
                        t3 = clock()
                        with span("wire.query"):
                            aggregate = await uploader.aggregate(TASK)
                        t4 = clock()
                        scan_ms["time"].append((t1 - t0) * 1000.0)
                        scan_ms["bbox"].append((t2 - t1) * 1000.0)
                        scan_ms["user"].append((t3 - t2) * 1000.0)
                        query_ms.append((t4 - t3) * 1000.0)
                        reads += 4
                        wrong_reads += (
                            (rows_time != per_tick * min(flushed, 2))
                            + (rows_bbox != inputs.rows_in_bbox[flushed])
                            + (rows_user != replay.records_per_upload * flushed)
                            + (aggregate["records"] != per_tick * flushed)
                        )
            with span("tick", group="drain"):
                with span("server.drive"):
                    await server.drive(replay.horizon, slice_seconds=SLICE_SECONDS)
                hive.pipeline.flush_all()
                with span("streams.finalize"):
                    engine.finalize()
                with span("store.compact"):
                    compaction = store.compact()
                with span("wire.secure_aggregate"):
                    secure = await uploader.secure_aggregate(TASK)
                with span("server.drain"):
                    await server.drain()
                    expected = server.pushes_sent
                    for _ in range(10_000):
                        if len(watched) >= expected:
                            break
                        await asyncio.sleep(0.0005)  # TCP: let the socket deliver
        wall_s = clock() - started

        # Correctness, outside the timed region.
        stored = store.n_records
        windows = engine.snapshots(TASK, VIEW)
        failures = check_ingest(hive, owner, VIEW, accepted, replay.n_records)
        if secure["records"] != stored:
            failures.append(f"secure aggregate saw {secure['records']} of {stored} records")
        if wrong_reads:
            failures.append(f"{wrong_reads} scans or queries returned an unexpected row count")
        if compaction.records != stored:
            failures.append(f"compaction saw {compaction.records} of {stored} records")
        snapshots = [m for _, m in watched if m["kind"] == "snapshot"]
        alerts = [m for _, m in watched if m["kind"] == "alert"]
        if [m["snapshot"]["end"] for m in snapshots] != [w.end for w in windows]:
            failures.append("watcher did not receive every window exactly once, in order")
        if len(alerts) != len(windows) or server.pushes_dropped:
            failures.append(
                f"{len(alerts)} alerts for {len(windows)} windows, "
                f"{server.pushes_dropped} pushes dropped"
            )
        pushes_expected = 2 * len(windows)

        result = RoundResult(
            build_s=build_s,
            wall_s=wall_s,
            records=stored,
            attempted=uploads + reads + 2 + pushes_expected,
            failed=short_uploads
            + wrong_reads
            + (secure["records"] != stored)
            + (compaction.records != stored)
            + abs(len(watched) - pushes_expected),
            failures=failures,
            fingerprint=(stored, len(windows), len(alerts), reads),
            samples={
                "upload_rtt_ms": upload_rtt_ms,
                "query_ms": query_ms,
                "scan_cycle_ms": [sum(c) for c in zip(*scan_ms.values())],
            },
            recorder=recorder,
        )
        if recorder is not None:
            result.layer, result.covered_s, self_times = ingest_ledger(recorder, hive)
            result.layer |= {
                "store.scan_time_p50_ms": percentile(scan_ms["time"], 50.0),
                "store.scan_bbox_p50_ms": percentile(scan_ms["bbox"], 50.0),
                "store.scan_user_p50_ms": percentile(scan_ms["user"], 50.0),
                "store.compact_s": self_times["store.compact"],
                "server.deliver_s": self_times.get("server.drive", 0.0)
                + self_times.get("server.drain", 0.0),
                # Client encode, TCP, middleware chain, decode, reply: what a
                # request costs beyond the platform call it carries.
                "server.wire_s": sum(
                    self_times.get(name, 0.0)
                    for name in ("wire.upload", "wire.query", "wire.secure_aggregate")
                ),
                "server.wire_overhead_p50_ms": percentile(
                    recorder.self_of("wire.upload"), 50.0
                ) * 1000.0,
                "server.upload_rtt_p99_ms": percentile(upload_rtt_ms, 99.0),
                "server.wire_push_p50_ms": percentile(
                    [
                        (received - stamps.closed_at[(TASK, m["snapshot"]["end"])]) * 1000.0
                        for received, m in watched
                        if m["kind"] == "snapshot"
                    ],
                    50.0,
                ),
                "server.wire_bytes_in": endpoint.bytes_in,
                "server.wire_bytes_out": endpoint.bytes_out,
                "server.secure_aggregate_s": sum(recorder.durations("wire.secure_aggregate")),
                "server.alerts_received": len(alerts),
                "server.fan_out_s": self_times.get("server.fan_out", 0.0),
                "server.pushes_enqueued": server.stats.pushes_enqueued
                + server.stats.alerts_pushed,
                "server.pushes_sent": server.pushes_sent,
                "server.pushes_dropped": server.pushes_dropped,
            }
        return result
    finally:
        watch_task.cancel()
        await asyncio.gather(watch_task, return_exceptions=True)
        await uploader.close()
        await watcher.close()
        listener.close()
        await listener.wait_closed()
