"""Serving tier: concurrent-client dashboard fan-out at 1k sessions.

The claim under measurement: one hive's window closes fan out to 1000+
subscribed dashboard sessions through the bounded per-subscriber queues
with push latencies (enqueue -> client receipt) low enough for a live
dashboard, and every subscriber's pushed stream is **identical** to the
engine's batch view — drops, if any, accounted per subscription rather
than silent.

The run persists its numbers to the tracked ``BENCH_server.json`` at the
repo root so the perf trajectory stays diffable across revisions.
"""

import asyncio
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import record_rows, write_tracked
from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.geo.point import GeoPoint
from repro.server import ReproServer
from repro.server.protocol import snapshot_digest
from repro.simulation import Simulator
from repro.streams import StreamEngine, WindowSpec
from repro.units import DAY

N_DEVICES = 1000
N_SESSIONS = 1000
UPLOADS_PER_DEVICE = 4
RECORDS_PER_UPLOAD = 6
N_RECORDS = N_DEVICES * UPLOADS_PER_DEVICE * RECORDS_PER_UPLOAD
WINDOW = 1800.0
VIEW = "tumbling"
TASK_NAME = "server-bench"
RESULTS = Path(__file__).resolve().parents[1] / "BENCH_server.json"


@pytest.fixture(scope="module")
def upload_batches() -> list[tuple[str, str, list[SensorRecord]]]:
    """The fixed-seed 1k-device upload workload, in arrival order."""
    batches = []
    for tick in range(UPLOADS_PER_DEVICE):
        for d in range(N_DEVICES):
            device_id = f"dev-{d:04d}"
            user = f"user-{d:04d}"
            base = tick * WINDOW
            batches.append(
                (
                    device_id,
                    user,
                    [
                        SensorRecord(
                            device_id=device_id,
                            user=user,
                            task=TASK_NAME,
                            time=base + 300.0 * i,
                            values={
                                "gps": GeoPoint(
                                    44.8 + 0.0004 * ((d * 7 + i) % 200),
                                    -0.6 + 0.0004 * ((d * 13 + i) % 200),
                                ),
                                "noise_db": float((d * 17 + tick * 5 + i) % 90),
                            },
                        )
                        for i in range(RECORDS_PER_UPLOAD)
                    ],
                )
            )
    return batches


async def _read_pushes(endpoint, sink: list) -> None:
    """Per-session reader: stamp receipt time against the send stamp."""
    while True:
        message = await endpoint.recv()
        if message is None:
            return
        if message.get("type") == "push" and message.get("kind") == "snapshot":
            sink.append(
                {
                    "end": message["snapshot"]["end"],
                    "sent_at": message["sent_at"],
                    "recv_at": time.perf_counter(),
                    "digest": message["snapshot"],
                }
            )


async def _scenario(batches) -> dict:
    sim = Simulator()
    engine = StreamEngine(
        sim=sim, pane_seconds=WINDOW, allowed_lateness=0.0, history=128
    )
    engine.register_view(VIEW, WindowSpec.tumbling(WINDOW))
    hive = Hive(sim, streams=engine)
    owner = Honeycomb("server-bench", hive)
    task = SensingTask(
        name=TASK_NAME,
        sensors=("gps",),
        sampling_period=300.0,
        upload_period=WINDOW,
        end=DAY,
    )
    owner.register_task(task)
    hive.adopt_task(task, owner)
    server = ReproServer(hive)

    endpoints, sinks, readers = [], [], []
    for index in range(N_SESSIONS):
        endpoint = server.connect_in_process()
        await endpoint.send(
            {"type": "connect", "headers": {"client": f"dash-{index:04d}"}}
        )
        assert (await endpoint.recv())["type"] == "connected"
        await endpoint.send(
            {
                "type": "channel",
                "id": 1,
                "action": "subscribe",
                "payload": {"view": VIEW},
            }
        )
        assert (await endpoint.recv())["status"] == "ok"
        sink: list = []
        readers.append(asyncio.ensure_future(_read_pushes(endpoint, sink)))
        endpoints.append(endpoint)
        sinks.append(sink)

    started = time.perf_counter()
    now = 0.0
    for device_id, user, records in batches:
        at = records[0].time
        if at > now:
            now = at
            await server.drive(now, slice_seconds=WINDOW / 4)
        hive.receive_upload(device_id, user, TASK_NAME, records)
    await server.drive(now + WINDOW, slice_seconds=WINDOW / 4)
    hive.pipeline.flush_all()
    engine.finalize()
    await server.drain()
    # Let every reader observe its inbox before accounting.
    expected = server.pushes_sent
    for _ in range(1000):
        await asyncio.sleep(0)
        if sum(len(s) for s in sinks) >= expected:
            break
    elapsed = time.perf_counter() - started

    per_subscription = [
        (sub.snapshots_pushed, sub.pushes_dropped)
        for session in server._sessions.values()
        for sub in session.subscriptions.values()
    ]
    for reader in readers:
        reader.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for endpoint in endpoints:
        endpoint.close()
    return {
        "sinks": sinks,
        "elapsed": elapsed,
        "batch": [snapshot_digest(s) for s in engine.snapshots(TASK_NAME, VIEW)],
        "pushes_sent": server.pushes_sent,
        "pushes_dropped": server.pushes_dropped,
        "per_subscription": per_subscription,
    }


@pytest.mark.benchmark(group="server")
def test_bench_dashboard_fanout_1k_sessions(benchmark, upload_batches):
    """1k subscribed sessions: p50/p99 push latency, per-window fan-out."""
    result = benchmark.pedantic(
        lambda: asyncio.run(_scenario(upload_batches)), iterations=1, rounds=1
    )

    batch = result["batch"]
    assert len(batch) == UPLOADS_PER_DEVICE
    assert sum(d["records"] for d in batch) == N_RECORDS

    # Every subscriber's pushed stream equals the engine's batch view —
    # ends in order, no duplicates, drops accounted not silent.
    assert len(result["per_subscription"]) == N_SESSIONS
    for sink, (pushed, dropped) in zip(
        result["sinks"], result["per_subscription"]
    ):
        assert len(sink) + dropped == pushed == len(batch)
        assert dropped == 0  # queues never overflowed at this depth
        assert [p["digest"] for p in sink] == batch
    assert result["pushes_dropped"] == 0
    assert result["pushes_sent"] == N_SESSIONS * len(batch)

    latencies = np.array(
        [
            (p["recv_at"] - p["sent_at"]) * 1000.0
            for sink in result["sinks"]
            for p in sink
        ]
    )
    p50 = float(np.percentile(latencies, 50.0))
    p99 = float(np.percentile(latencies, 99.0))

    rows = []
    for index, digest in enumerate(batch):
        window = [
            p for sink in result["sinks"] for p in sink
            if p["end"] == digest["end"]
        ]
        duration = max(p["recv_at"] for p in window) - min(
            p["sent_at"] for p in window
        )
        rows.append(
            {
                "window_end": digest["end"],
                "sessions": len(window),
                "fanout_ms": round(duration * 1000.0, 3),
                "pushes_per_sec": round(len(window) / duration),
            }
        )
        assert len(window) == N_SESSIONS  # the full fleet, every window

    record_rows(
        benchmark,
        rows,
        claim="1k-session dashboard fan-out: pushed stream == batch view",
        push_p50_ms=round(p50, 3),
        push_p99_ms=round(p99, 3),
    )

    write_tracked(
        RESULTS,
        {
            "bench": "server-dashboard-fanout",
            "sessions": N_SESSIONS,
            "devices": N_DEVICES,
            "records": N_RECORDS,
            "windows": len(batch),
            "pushes_sent": result["pushes_sent"],
            "pushes_dropped": result["pushes_dropped"],
            "push_p50_ms": round(p50, 3),
            "push_p99_ms": round(p99, 3),
            "wall_seconds": round(result["elapsed"], 3),
            "per_window": rows,
        },
    )
