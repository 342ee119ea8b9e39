"""FederationRouter: membership, migration, failure, syndication."""

from __future__ import annotations

import pytest

from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.transport import Transport
from repro.errors import PlatformError
from repro.federation import FederatedDataset, FederationRouter
from repro.geo.point import GeoPoint
from repro.units import DAY, HOUR
from tests.federation.conftest import build_router, gps_task, populate


class TestMembership:
    def test_duplicate_join_rejected(self, sim):
        router = build_router(sim, 2)
        with pytest.raises(PlatformError):
            router.join("hive-0", Hive(sim, seed=9))

    def test_unknown_member_rejected(self, sim):
        router = build_router(sim, 2)
        with pytest.raises(PlatformError):
            router.hive("nope")
        with pytest.raises(PlatformError):
            router.fail("nope")

    def test_cannot_fail_last_member(self, sim):
        router = build_router(sim, 1)
        with pytest.raises(PlatformError):
            router.fail("hive-0")

    def test_cannot_remove_last_live_member(self, sim):
        router = build_router(sim, 2)
        router.fail("hive-1")
        with pytest.raises(PlatformError):
            router.leave("hive-0")
        router.leave("hive-1")  # removing the *down* member is fine
        assert router.member_names == ["hive-0"]

    def test_membership_log_and_views(self, sim):
        router = build_router(sim, 2)
        router.join("hive-2", Hive(sim, seed=2))
        kinds = [event.kind for event in router.membership_log]
        assert kinds == ["join", "join", "join"]
        # Ideal control plane: every member's gossiped view is current.
        for name in router.member_names:
            assert router.peer_view(name) == {"hive-0", "hive-1", "hive-2"}


class TestPlacement:
    def test_register_places_on_ring_owner(self, federation):
        router, devices = federation
        for device in devices:
            home = router.home_of(device.device_id)
            assert home == router.place(device.device_id)
            assert router.hive(home).device(device.device_id) is device

    def test_double_register_rejected(self, federation, fed_population, sensor_suite):
        router, devices = federation
        with pytest.raises(PlatformError):
            router.register_device(devices[0])

    def test_spread_covers_all_devices(self, federation):
        router, devices = federation
        spread = router.placement_spread()
        assert sum(spread.values()) == len(devices)
        assert router.total_devices() == len(devices)


class TestMigration:
    def test_join_migrates_only_ring_moved_devices(self, federation, sim):
        router, devices = federation
        before = {d.device_id: router.home_of(d.device_id) for d in devices}
        migrations = router.join("hive-3", Hive(sim, seed=3))
        for event in migrations:
            assert event.to_hive == "hive-3"
            assert event.reason == "join"
            assert before[event.device_id] != "hive-3"
        # Placement invariant holds after the change.
        for device in devices:
            assert router.home_of(device.device_id) == router.place(device.device_id)

    def test_migration_moves_user_state_and_binding(self, deployed, sim):
        router, devices, owner, task = deployed
        sim.run_until(2 * HOUR)
        migrations = router.join("hive-3", Hive(sim, seed=3))
        for event in migrations:
            target = router.hive("hive-3")
            assert event.user in target.community
            device = target.device(event.device_id)
            # Running tasks ride along: the dispatcher is still live.
            assert device.running_tasks in ([], [task.name])

    def test_failover_rehomes_and_rejoin_pulls_back(self, federation, sim):
        router, devices = federation
        victim = "hive-1"
        owned = [d for d in devices if router.home_of(d.device_id) == victim]
        assert owned, "seed places nobody on the victim; pick another seed"
        migrations = router.fail(victim)
        assert {e.device_id for e in migrations} == {d.device_id for d in owned}
        assert all(e.reason == "failover" for e in migrations)
        assert not router.hive(victim).devices
        assert router.down_members == [victim]

        back = router.rejoin(victim)
        assert {e.device_id for e in back} == {d.device_id for d in owned}
        assert all(e.to_hive == victim for e in back)
        assert router.down_members == []

    def test_scheduled_failure_fires_on_simulator(self, deployed, sim):
        router, devices, owner, task = deployed
        router.schedule_failure("hive-1", at=2 * HOUR, duration=2 * HOUR)
        sim.run_until(HOUR)
        assert router.is_up("hive-1")
        sim.run_until(3 * HOUR)
        assert not router.is_up("hive-1")
        sim.run_until(5 * HOUR)
        assert router.is_up("hive-1")
        kinds = [e.kind for e in router.membership_log if e.hive == "hive-1"]
        assert kinds == ["join", "fail", "rejoin"]
        assert [e.component for e in router.faults.log] == ["hive:hive-1"] * 2


class TestSyndication:
    def test_offers_cover_the_whole_crowd_once(self, deployed):
        router, devices, owner, task = deployed
        stats = router.task_stats(task.name)
        assert sum(s.offers for s in stats.values()) == len(devices)

    def test_campaign_data_routes_to_single_owner(self, deployed, sim):
        router, devices, owner, task = deployed
        sim.run_until(DAY + HOUR)
        for name in router.member_names:
            router.hive(name).pipeline.flush_all()
        stats = router.task_stats(task.name)
        total = sum(s.records for s in stats.values())
        assert total > 0
        assert owner.n_records(task.name) == total
        # Whichever community produced a record, its user resolves.
        assert set(owner.mobility_dataset(task.name).users) <= {
            device.user for device in devices
        }
        # No loss, no duplication: the federated store view agrees.
        federated = FederatedDataset.from_router(router)
        assert len(federated.scan(task.name)) == total

    def test_home_must_be_member_and_not_partner(self, federation):
        router, _ = federation
        owner = Honeycomb("lab", router.hive("hive-0"))
        with pytest.raises(PlatformError):
            router.syndicate(gps_task(), owner, home="nope")
        with pytest.raises(PlatformError):
            router.syndicate(gps_task(), owner, home="hive-0", partners=["hive-0"])

    def test_duplicate_syndication_rejected(self, deployed):
        router, devices, owner, task = deployed
        other = Honeycomb("lab2", router.hive("hive-1"))
        with pytest.raises(PlatformError):
            router.syndicate(gps_task(), other, home="hive-1")

    def test_non_partner_members_adopt_without_offering(self, federation):
        router, devices = federation
        owner = Honeycomb("lab", router.hive("hive-0"))
        receipt = router.syndicate(
            gps_task(), owner, home="hive-0", partners=["hive-1"]
        )
        assert receipt.partner_hives == ("hive-1",)
        stats = router.task_stats("fed-task")
        # hive-2 adopted the task (an entry exists) but sent no offers.
        assert "hive-2" in stats
        assert stats["hive-2"].offers == 0

    def test_lossy_control_plane_retries_until_delivered(
        self, sim, fed_population, sensor_suite
    ):
        transport = Transport(latency_mean=0.05, latency_jitter=0.01, loss=0.5, seed=7)
        router = FederationRouter(
            sim, control_transport=transport, control_retry_delay=1.0
        )
        for index in range(3):
            router.join(f"hive-{index}", Hive(sim, seed=index))
        populate(router, fed_population, sensor_suite)
        owner = Honeycomb("lab", router.hive("hive-0"))
        receipt = router.syndicate(gps_task(), owner, home="hive-0")
        assert receipt.partner_hives == ("hive-1", "hive-2")  # default: all others
        assert receipt.announcements == 2
        # Announcements are in flight; partners have not offered yet
        # unless the first attempt got through instantly.
        sim.run_until(60.0)
        stats = router.task_stats("fed-task")
        assert sum(s.offers for s in stats.values()) == router.total_devices()
        assert router.stats.messages_lost > 0
        assert router.stats.retries >= router.stats.messages_lost

    def test_rejoin_offers_reach_migrated_devices(self, federation, sim):
        """The rejoin handshake must offer *after* the rebalance pulls
        devices back, or the re-offer targets an empty community."""
        router, devices = federation
        victim = "hive-1"
        owned = [d for d in devices if router.home_of(d.device_id) == victim]
        assert owned
        router.fail(victim)
        owner = Honeycomb("lab", router.hive("hive-0"))
        router.syndicate(gps_task(), owner, home="hive-0")
        # Down during syndication: the announcement never reached it.
        assert victim not in router.task_stats("fed-task")
        router.rejoin(victim)
        assert router.task_stats("fed-task")[victim].offers == len(owned)

    def test_migrated_user_state_is_a_copy(self, federation, sim):
        """Two hives must never alias one mutable UserState — a user's
        other device may stay behind on the old member."""
        router, devices = federation
        victim = "hive-1"
        owned = [d for d in devices if router.home_of(d.device_id) == victim]
        assert owned
        router.fail(victim)
        user = owned[0].user
        old_state = router.hive(victim).community[user]
        new_home = router.home_of(owned[0].device_id)
        new_state = router.hive(new_home).community[user]
        assert new_state is not old_state
        assert new_state.motivation == old_state.motivation

    def test_rejoin_catalog_sync_covers_outage_syndications(self, federation, sim):
        router, devices = federation
        router.fail("hive-2")
        owner = Honeycomb("lab", router.hive("hive-0"))
        task = gps_task()
        router.syndicate(task, owner, home="hive-0")
        assert "hive-2" not in router.task_stats(task.name)
        router.rejoin("hive-2")
        # The rejoin handshake adopted (and offered) the missed task.
        assert "hive-2" in router.task_stats(task.name)


class TestDataPlane:
    def test_route_upload_lands_on_ring_owner(self, deployed, sim):
        router, devices, owner, task = deployed
        records = [
            SensorRecord(
                device_id="gateway-dev-1",
                user="gateway-user",
                task=task.name,
                time=sim.now,
                values={"gps": GeoPoint(44.8, -0.6)},
            )
        ]
        home, accepted = router.route_upload(
            "gateway-dev-1", "gateway-user", task.name, records
        )
        assert accepted == 1
        assert home == router.place("gateway-dev-1")
        router.hive(home).pipeline.flush_all()
        assert router.hive(home).store.n_records >= 1

    def test_placement_recruitment_filters_foreign_devices(self, federation, sim):
        router, devices = federation
        policy = router.placement_recruitment("hive-0")
        selected = policy.select(devices, gps_task(), sim.now, None)
        assert selected == [
            d for d in devices if router.place(d.device_id) == "hive-0"
        ]
