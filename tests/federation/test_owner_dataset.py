"""A federated owner's mobility dataset reads every member that routed to it.

Members that adopted the task keep routing flushes to the owner; the
owner's dataset is read from their stores and must equal, per user and
bit for bit, the dataset assembled from the records its hooks saw —
through a member failure and rejoin, and after a member left.
"""

from __future__ import annotations

from repro.units import DAY, HOUR
from tests.apisense.conftest import (
    assert_same_trajectories,
    collect_records,
    trajectories_from_records,
)


def finish(router, sim) -> None:
    sim.run_until(DAY + HOUR)
    for name in router.member_names:
        router.hive(name).pipeline.flush_all()


def test_failure_and_rejoin(deployed, sim):
    router, _, owner, task = deployed
    seen = collect_records(owner)
    router.schedule_failure("hive-1", at=2 * HOUR, duration=2 * HOUR)
    finish(router, sim)
    expected = trajectories_from_records(seen)
    assert expected
    assert_same_trajectories(owner.mobility_dataset(task.name), expected, ordered=False)


def test_member_leaves_after_storing_data(deployed, sim):
    router, _, owner, task = deployed
    seen = collect_records(owner)
    sim.run_until(6 * HOUR)
    assert len(router.hive("hive-2").store.scan(task.name))
    router.leave("hive-2")
    finish(router, sim)
    expected = trajectories_from_records(seen)
    assert expected
    assert_same_trajectories(owner.mobility_dataset(task.name), expected, ordered=False)
