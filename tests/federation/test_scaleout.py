"""Federation scale-out: per-hive ingest work shrinks as the ring grows.

The point of the federation tier is horizontal scale: a fixed crowd
sharded over more Hives means each Hive's pipeline and store absorb a
smaller slice of the upload workload.  The same fixed upload workload
goes through a 1/2/4/8-member federation (devices placed by the
consistent-hash ring, uploads routed by ``FederationRouter.route_upload``)
and the per-hive pipeline counts must shrink with the ring, while the
federated query still sees the whole crowd exactly once.  Placement
hashes with crc32, so the counts are the same on every host and run.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.federation import FederatedDataset, FederationRouter
from repro.geo.point import GeoPoint
from repro.simulation import Simulator
from tests.federation.conftest import gps_task

N_DEVICES = 200
UPLOADS = 4
PER_UPLOAD = 12
N_RECORDS = N_DEVICES * UPLOADS * PER_UPLOAD
RING_SIZES = (1, 2, 4, 8)
TASK = "scaleout"


@cache
def upload_batches() -> list[tuple[str, str, list[SensorRecord]]]:
    """Every device uploads ``PER_UPLOAD`` fixes every 30 minutes."""
    batches = []
    for tick in range(UPLOADS):
        for d in range(N_DEVICES):
            device_id, user = f"dev-{d:04d}", f"user-{d:04d}"
            records = [
                SensorRecord(
                    device_id=device_id,
                    user=user,
                    task=TASK,
                    time=tick * 1800.0 + 120.0 * i,
                    values={
                        "gps": GeoPoint(
                            44.8 + 0.0004 * ((d * 7 + i) % 200),
                            -0.6 + 0.0004 * ((d * 13 + i) % 200),
                        )
                    },
                )
                for i in range(PER_UPLOAD)
            ]
            batches.append((device_id, user, records))
    return batches


@cache
def run_federation(n_hives: int) -> FederationRouter:
    """The fixed workload through an ``n_hives`` ring; built once per size."""
    sim = Simulator()
    router = FederationRouter(sim)
    for index in range(n_hives):
        router.join(f"hive-{index}", Hive(sim, seed=index))
    owner = Honeycomb("scaleout-lab", router.hive("hive-0"))
    router.syndicate(gps_task(TASK), owner, home="hive-0")
    for device_id, user, records in upload_batches():
        sim.run_until(max(sim.now, records[0].time))
        router.route_upload(device_id, user, TASK, records)
    sim.run()
    for name in router.member_names:
        router.hive(name).pipeline.flush_all()
    return router


@pytest.mark.parametrize("n_hives", RING_SIZES)
def test_every_record_is_flushed_and_scanned_once(n_hives):
    router = run_federation(n_hives)
    flushed = [
        router.hive(name).pipeline.stats.flushed_records
        for name in router.member_names
    ]
    assert sum(flushed) == N_RECORDS
    federated = FederatedDataset.from_router(router)
    assert len(federated.scan(TASK)) == N_RECORDS
    assert federated.aggregate(TASK).records == N_RECORDS
    assert federated.aggregate(TASK).n_users == N_DEVICES


def test_per_hive_work_shrinks_as_the_ring_grows():
    work = {}
    for n_hives in RING_SIZES:
        router = run_federation(n_hives)
        stats = [router.hive(name).pipeline.stats for name in router.member_names]
        flushed = [s.flushed_records for s in stats]
        work[n_hives] = (
            max(flushed),
            sum(flushed) / n_hives,
            max(s.flushes for s in stats),
            len(FederatedDataset.from_router(router).scan(TASK)),
        )
    for smaller, larger in zip(RING_SIZES, RING_SIZES[1:]):
        max_small, mean_small, flushes_small, _ = work[smaller]
        max_large, mean_large, flushes_large, _ = work[larger]
        assert max_large < max_small, work
        assert mean_large < mean_small, work
        assert flushes_large <= flushes_small, work
    # No loss, no duplication: every ring size's federated scan sees the
    # single-hive baseline's record count.
    assert {scanned for *_, scanned in work.values()} == {N_RECORDS}
