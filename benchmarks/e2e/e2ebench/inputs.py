"""Seeded input generators for the replayed-upload workloads.

``--seed`` reaches the platform only through what is generated here:
device order per tick, coordinates and values.  The generator also
keeps the coordinates as arrays, so a workload can state how many rows
a store scan must return without asking the store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apisense.device import SensorRecord
from repro.geo.point import GeoPoint

#: Study area (south, west, north, east): a city-sized box.
AREA = (44.80, -0.62, 44.88, -0.54)


@dataclass(frozen=True)
class Upload:
    """One device's upload batch, as ``Hive.receive_upload`` takes it."""

    device_id: str
    user: str
    task: str
    records: list[SensorRecord]


@dataclass(frozen=True)
class UploadTick:
    """Every device's upload at one simulated instant, in arrival order."""

    time: float
    uploads: list[Upload]


@dataclass(frozen=True)
class ReplayInputs:
    ticks: list[UploadTick]
    tick_seconds: float
    records_per_upload: int
    users: list[str]
    #: Coordinates as generated, indexed ``[tick, device, record]``.
    lat: np.ndarray
    lon: np.ndarray

    @property
    def n_records(self) -> int:
        return int(self.lat.size)

    @property
    def n_uploads(self) -> int:
        return sum(len(tick.uploads) for tick in self.ticks)

    @property
    def horizon(self) -> float:
        """Simulated time by which every tick's window has closed."""
        return (len(self.ticks) + 1) * self.tick_seconds


def replay_inputs(
    seed: int,
    devices_per_task: dict[str, int],
    n_ticks: int,
    tick_seconds: float = 1800.0,
    records_per_upload: int = 6,
) -> ReplayInputs:
    """Upload ticks ``tick_seconds`` apart; each upload spans one tick.

    Every record carries a GPS fix drawn uniformly over :data:`AREA`
    and one scalar (``noise_db``), ``tick_seconds / records_per_upload``
    apart — the gateway-replay shape of ``benchmarks/test_bench_server``.
    """
    rng = np.random.default_rng(seed)
    task_of_device = [
        task for task, count in devices_per_task.items() for _ in range(count)
    ]
    devices = [
        (task, f"dev-{n:04d}", f"user-{n:04d}")
        for n, task in enumerate(task_of_device)
    ]
    south, west, north, east = AREA
    shape = (n_ticks, len(devices), records_per_upload)
    lat = rng.uniform(south, north, shape)
    lon = rng.uniform(west, east, shape)
    value = rng.uniform(30.0, 90.0, shape)
    spacing = tick_seconds / records_per_upload
    ticks = []
    for tick in range(n_ticks):
        base = tick * tick_seconds
        lat_t, lon_t, value_t = lat[tick].tolist(), lon[tick].tolist(), value[tick].tolist()
        uploads = []
        for d in rng.permutation(len(devices)).tolist():
            task, device_id, user = devices[d]
            uploads.append(
                Upload(
                    device_id,
                    user,
                    task,
                    [
                        SensorRecord(
                            device_id=device_id,
                            user=user,
                            task=task,
                            time=base + spacing * i,
                            values={
                                "gps": GeoPoint(lat_t[d][i], lon_t[d][i]),
                                "noise_db": value_t[d][i],
                            },
                        )
                        for i in range(records_per_upload)
                    ],
                )
            )
        ticks.append(UploadTick(time=base, uploads=uploads))
    return ReplayInputs(
        ticks=ticks,
        tick_seconds=tick_seconds,
        records_per_upload=records_per_upload,
        users=[user for _, _, user in devices],
        lat=lat,
        lon=lon,
    )
