"""The federation control plane: membership, placement, syndication.

A :class:`FederationRouter` composes many Hives into one platform:

- **placement** — every router-managed device is homed onto exactly one
  member Hive by the consistent-hash ring, so each Hive runs the ingest
  pipeline and store for its shard of the crowd only;
- **membership** — Hives :meth:`join` and :meth:`leave` at runtime; the
  ring keeps placement stable, and the devices whose owner changed are
  migrated (their user state travels with them, their running tasks and
  store-and-forward buffers ride along unharmed);
- **failure injection** — :meth:`fail` / :meth:`rejoin` (or the
  scripted :meth:`schedule_failure`) model a member crashing: its
  devices are automatically re-homed onto the survivors, and on rejoin
  the ring pulls its keyspace back.  A failed member's *store* stays
  durable and remains part of the federated query plane;
- **syndication + gossip** — tasks published into the federation are
  offered at the home Hive synchronously and announced to the other
  members over a lossy inter-hive :class:`~repro.apisense.transport.
  Transport` (with bounded retries), the same latency/loss model every
  other hop in the platform uses.  Membership changes gossip the same
  way, so each member keeps its own view of the federation.

There is no single data point: placement is a pure ring function any
member can evaluate, and collected data never leaves the owning Hive's
store until a federated query merges at read time.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.apisense.hive import Hive, TaskStats
from repro.obs.instruments import FederationInstruments
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.federation.ring import ConsistentHashRing
from repro.simulation import FaultInjector, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.device import MobileDevice, SensorRecord
    from repro.apisense.honeycomb import Honeycomb
    from repro.apisense.transport import Transport


@dataclass(frozen=True)
class MembershipEvent:
    """One logged change of the federation's member set."""

    time: float
    hive: str
    kind: str  # "join" | "leave" | "fail" | "rejoin"


@dataclass(frozen=True)
class MigrationEvent:
    """One device re-homed from one member to another."""

    time: float
    device_id: str
    user: str
    from_hive: str
    to_hive: str
    reason: str  # "join" | "leave" | "failover" | "rejoin"


@dataclass
class ControlPlaneStats:
    """Counters of the inter-hive control plane."""

    task_announcements: int = 0
    membership_updates: int = 0
    messages_sent: int = 0
    messages_lost: int = 0
    retries: int = 0
    gave_up: int = 0

    @property
    def loss_rate(self) -> float:
        if self.messages_sent == 0:
            return 0.0
        return self.messages_lost / self.messages_sent


@dataclass(frozen=True)
class FederatedSyndicationReceipt:
    """What one federated task publication did at creation time.

    With a lossy control transport, partner offers land only after the
    announcement is delivered — read live numbers from
    :meth:`FederationRouter.task_stats`.
    """

    task: str
    home_hive: str
    partner_hives: tuple[str, ...]
    home_offers: int
    announcements: int


@dataclass
class _SyndicatedTask:
    """Router-side record of one syndicated task (for catalog sync)."""

    task: SensingTask
    owner: "Honeycomb"
    recruitment: object | None
    #: Members the task is *offered* at (every member adopts it).
    offered_at: set[str]


class FederationRouter:
    """Places devices onto member Hives and runs the control plane."""

    def __init__(
        self,
        sim: Simulator,
        control_transport: "Transport | None" = None,
        replicas: int = 128,
        control_retry_delay: float = 5.0,
        control_max_retries: int = 8,
    ):
        self._sim = sim
        #: Inter-hive hop for task announcements and membership gossip;
        #: ``None`` means an ideal synchronous control plane (tests,
        #: single-process deployments).
        self.transport = control_transport
        self.control_retry_delay = control_retry_delay
        self.control_max_retries = control_max_retries
        self.ring = ConsistentHashRing(replicas)
        self._hives: dict[str, Hive] = {}
        self._down: set[str] = set()
        self._devices: dict[str, "MobileDevice"] = {}
        self._placements: dict[str, str] = {}
        self._tasks: dict[str, _SyndicatedTask] = {}
        #: Each member's gossiped view of the federation (hive -> names).
        self._peer_views: dict[str, set[str]] = {}
        self.faults = FaultInjector(sim)
        self.membership_log: list[MembershipEvent] = []
        self.migration_log: list[MigrationEvent] = []
        self.stats = ControlPlaneStats()
        self.obs = FederationInstruments(
            obs.metrics_registry(), obs.next_instance("federation"), self.stats
        )
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        """The simulator clock the federation runs on."""
        return self._sim

    @property
    def member_names(self) -> list[str]:
        """All members, up or down (sorted for determinism)."""
        return sorted(self._hives)

    @property
    def up_members(self) -> list[str]:
        return sorted(name for name in self._hives if name not in self._down)

    @property
    def down_members(self) -> list[str]:
        return sorted(self._down)

    def hive(self, name: str) -> Hive:
        if name not in self._hives:
            raise PlatformError(f"unknown federated hive {name!r}")
        return self._hives[name]

    def is_up(self, name: str) -> bool:
        return name in self._hives and name not in self._down

    def home_of(self, device_id: str) -> str:
        """The member currently homing a router-managed device."""
        if device_id not in self._placements:
            raise PlatformError(f"device {device_id!r} not placed by this federation")
        return self._placements[device_id]

    def place(self, key: str) -> str:
        """Ring placement of an arbitrary key (pure function)."""
        return self.ring.place(key)

    def total_devices(self) -> int:
        """Community size across the whole federation."""
        return sum(len(hive.devices) for hive in self._hives.values())

    def placement_spread(self) -> dict[str, int]:
        """Router-managed devices per member (load-balance view)."""
        counts = {name: 0 for name in self._hives}
        for home in self._placements.values():
            counts[home] += 1
        return counts

    def peer_view(self, name: str) -> set[str]:
        """The member set as gossiped to one member (its local view)."""
        if name not in self._hives:
            raise PlatformError(f"unknown federated hive {name!r}")
        return set(self._peer_views.get(name, set()))

    def task_stats(self, task_name: str) -> dict[str, TaskStats]:
        """Per-member :class:`TaskStats` of one syndicated task."""
        stats: dict[str, TaskStats] = {}
        for name, hive in self._hives.items():
            per_task = hive.stats.per_task.get(task_name)
            if per_task is not None:
                stats[name] = per_task
        return stats

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, name: str, hive: Hive) -> list[MigrationEvent]:
        """Add a member; re-home the ~1/N of devices the ring hands it.

        The join handshake synchronously syncs the syndicated-task
        catalog onto the joining Hive (an admin operation, not gossip),
        so a migrated device can upload immediately; the *announcement*
        of the join to the other members rides the lossy control plane.
        """
        if name in self._hives:
            raise PlatformError(f"hive {name!r} already federated")
        self._hives[name] = hive
        self.ring.add(name)
        # Adopt before devices migrate in (their uploads need routing);
        # offer after, so the offers reach the migrated devices.
        self._adopt_catalog(name)
        self._peer_views[name] = set(self._hives)
        self.membership_log.append(MembershipEvent(self._sim.now, name, "join"))
        self._gossip_membership()
        migrations = self._rebalance(reason="join")
        self._offer_catalog(name)
        return migrations

    def leave(self, name: str) -> list[MigrationEvent]:
        """Remove a member permanently; its devices re-home elsewhere.

        The departing Hive's store leaves the federated query plane with
        it — drain or hand off its data first if it must be kept.
        """
        self._require_member(name)
        if len(self.up_members) <= 1 and name not in self._down:
            raise PlatformError("cannot remove the last live federation member")
        if name not in self._down:
            self.ring.remove(name)
        migrations = self._rebalance(reason="leave")
        del self._hives[name]
        self._down.discard(name)
        self._peer_views.pop(name, None)
        self.membership_log.append(MembershipEvent(self._sim.now, name, "leave"))
        self._gossip_membership()
        return migrations

    def fail(self, name: str) -> list[MigrationEvent]:
        """Crash a member: drop it from the ring, re-home its devices.

        The failure is a control-plane event — the member stops homing
        devices and receiving announcements — but its columnar store
        stays durable and queryable (disks outlive processes).
        """
        self._require_member(name)
        if name in self._down:
            raise PlatformError(f"hive {name!r} is already down")
        if len(self.up_members) <= 1:
            raise PlatformError("cannot fail the last live federation member")
        self._down.add(name)
        self.ring.remove(name)
        self.membership_log.append(MembershipEvent(self._sim.now, name, "fail"))
        self._gossip_membership()
        return self._rebalance(reason="failover")

    def rejoin(self, name: str) -> list[MigrationEvent]:
        """Recover a failed member: it pulls its keyspace back.

        Like :meth:`join`, the handshake syncs the task catalog (tasks
        syndicated during the outage were never delivered to it).
        """
        self._require_member(name)
        if name not in self._down:
            raise PlatformError(f"hive {name!r} is not down")
        self._down.discard(name)
        self.ring.add(name)
        self._adopt_catalog(name)
        self._peer_views[name] = set(self._hives)
        self.membership_log.append(MembershipEvent(self._sim.now, name, "rejoin"))
        self._gossip_membership()
        migrations = self._rebalance(reason="rejoin")
        self._offer_catalog(name)
        return migrations

    def schedule_failure(
        self, name: str, at: float, duration: float | None = None
    ) -> None:
        """Script a member outage (and recovery) as simulator events."""
        self._require_member(name)
        self.faults.schedule_outage(
            f"hive:{name}",
            at,
            duration,
            on_down=lambda: self.fail(name),
            on_up=lambda: self.rejoin(name),
        )

    def _require_member(self, name: str) -> None:
        if name not in self._hives:
            raise PlatformError(f"unknown federated hive {name!r}")

    # ------------------------------------------------------------------
    # Device placement
    # ------------------------------------------------------------------

    def register_device(self, device: "MobileDevice") -> str:
        """Home a device onto its ring-assigned member; returns its name."""
        if not self._hives:
            raise PlatformError("federation has no members; join() a hive first")
        if device.device_id in self._placements:
            raise PlatformError(f"device {device.device_id!r} already placed")
        home = self.ring.place(device.device_id)
        self._hives[home].register_device(device)
        self._devices[device.device_id] = device
        self._placements[device.device_id] = home
        return home

    def _rebalance(self, reason: str) -> list[MigrationEvent]:
        """Migrate every device whose ring owner changed."""
        migrations: list[MigrationEvent] = []
        for device_id, current in list(self._placements.items()):
            target = self.ring.place(device_id)
            if target != current:
                migrations.append(self._migrate(device_id, target, reason))
        return migrations

    def _migrate(self, device_id: str, to_name: str, reason: str) -> MigrationEvent:
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        from_name = self._placements[device_id]
        with self._tracer.span(
            "federation.migration",
            device=device_id,
            from_hive=from_name,
            to_hive=to_name,
            reason=reason,
        ):
            from_hive = self._hives[from_name]
            to_hive = self._hives[to_name]
            device = from_hive.unregister_device(device_id)
            # A *copy* of the user's community state (motivation history)
            # travels with the first of their devices to arrive; local
            # history wins, and the two hives must never share the mutable
            # state (a user's other device may stay behind).
            state = from_hive.community.get(device.user)
            if state is not None:
                to_hive.adopt_user_state(dataclasses.replace(state))
            to_hive.register_device(device)
            self._placements[device_id] = to_name
            event = MigrationEvent(
                time=self._sim.now,
                device_id=device_id,
                user=device.user,
                from_hive=from_name,
                to_hive=to_name,
                reason=reason,
            )
            self.migration_log.append(event)
        self.obs.migrations.inc()
        if timed:
            self.obs.migration_seconds.observe(_time.perf_counter() - started)
        return event

    # ------------------------------------------------------------------
    # Task syndication
    # ------------------------------------------------------------------

    def syndicate(
        self,
        task: SensingTask,
        owner: "Honeycomb",
        home: str,
        partners: list[str] | None = None,
        recruitment=None,
    ) -> FederatedSyndicationReceipt:
        """Publish ``task`` federation-wide from its home member.

        The home Hive publishes synchronously (the Honeycomb lives
        there).  Every other live member receives an announcement over
        the control transport: partners adopt *and offer* the task to
        their shard of the crowd, non-partners adopt it for routing only
        (so migrated devices can keep uploading).  Down members catch up
        through the rejoin catalog sync.  All data routes back to the
        one owning Honeycomb regardless of which community produced it.
        """
        self._require_member(home)
        if home in self._down:
            raise PlatformError(f"home hive {home!r} is down")
        partner_names = (
            [name for name in self.member_names if name != home]
            if partners is None
            else list(partners)
        )
        for name in partner_names:
            self._require_member(name)
            if name == home:
                raise PlatformError("home hive listed among partners")
        if task.name in self._tasks:
            raise PlatformError(f"task {task.name!r} already syndicated")

        owner.register_task(task)
        entry = _SyndicatedTask(
            task=task,
            owner=owner,
            recruitment=recruitment,
            offered_at={home, *partner_names},
        )
        self._tasks[task.name] = entry

        home_hive = self._hives[home]
        home_hive.adopt_task(task, owner)
        home_offers = home_hive.offer_task(task.name, recruitment=recruitment)

        announcements = 0
        for name in self.member_names:
            if name == home or name in self._down:
                continue
            announcements += 1
            self.stats.task_announcements += 1
            self._control_send(
                lambda n=name: self._deliver_task(n, entry)
            )
        return FederatedSyndicationReceipt(
            task=task.name,
            home_hive=home,
            partner_hives=tuple(partner_names),
            home_offers=home_offers,
            announcements=announcements,
        )

    def _deliver_task(self, name: str, entry: _SyndicatedTask) -> None:
        """A task announcement arrives at one member."""
        hive = self._hives.get(name)
        if hive is None or name in self._down:
            return  # left or crashed while the message was in flight
        if entry.task.name not in hive.stats.per_task:
            hive.adopt_task(entry.task, entry.owner)
        if name in entry.offered_at:
            hive.offer_task(entry.task.name, recruitment=entry.recruitment)

    def _adopt_catalog(self, name: str) -> None:
        """Join/rejoin handshake, adopt half: admit every syndicated
        task locally.

        Synchronous on purpose — a migrated device may upload to the new
        member immediately, before any gossip round.  Runs *before* the
        rebalance so those uploads route.
        """
        hive = self._hives[name]
        for entry in self._tasks.values():
            if entry.task.name not in hive.stats.per_task:
                hive.adopt_task(entry.task, entry.owner)

    def _offer_catalog(self, name: str) -> None:
        """Join/rejoin handshake, offer half: re-offer the tasks this
        member publishes.

        Runs *after* the rebalance so offers reach the devices just
        homed onto the member, not an empty community.  Live tasks are
        re-offered only; devices already running one decline the
        duplicate.
        """
        hive = self._hives[name]
        for entry in self._tasks.values():
            if name in entry.offered_at and entry.task.end > self._sim.now:
                hive.offer_task(entry.task.name, recruitment=entry.recruitment)

    def placement_recruitment(self, hive_name: str):
        """A recruitment policy restricting offers to ring-owned devices.

        Compose it (``&``) with any other policy when publishing through
        a member Hive directly: devices the ring homes elsewhere (stale
        registrations, handover races) are filtered out so no device is
        offered the same task by two members.
        """
        from repro.apisense.recruitment import PredicateRecruitment

        self._require_member(hive_name)
        return PredicateRecruitment(
            lambda device, _time: self.ring.place(device.device_id) == hive_name,
            name=f"placement[{hive_name}]",
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def route_upload(
        self,
        device_id: str,
        user: str,
        task_name: str,
        records: list["SensorRecord"],
    ) -> tuple[str, int]:
        """Ingest an upload batch at the member owning ``device_id``.

        The scale-out entry point for deployments that terminate device
        connections at a fleet gateway instead of binding
        :class:`MobileDevice` objects: the ring decides which member's
        pipeline absorbs the batch.  Returns ``(member, accepted)``.
        """
        home = self.ring.place(device_id)
        accepted = self._hives[home].receive_upload(device_id, user, task_name, records)
        return home, accepted

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def _gossip_membership(self) -> None:
        """Announce the current member set to every live member."""
        members = set(self._hives)
        self.obs.gossip_rounds.inc()
        for name in self.up_members:
            self.stats.membership_updates += 1
            self._control_send(
                lambda n=name, m=frozenset(members): self._deliver_membership(n, m)
            )

    def _deliver_membership(self, name: str, members: frozenset[str]) -> None:
        if name in self._hives and name not in self._down:
            self._peer_views[name] = set(members)

    def _control_send(self, deliver: Callable[[], None]) -> None:
        """One control message with bounded loss retries.

        With no transport configured the control plane is ideal and
        synchronous; with one, the message pays the same latency/loss as
        any other hop and is retried ``control_max_retries`` times with
        ``control_retry_delay`` spacing before giving up.
        """
        if self.transport is None:
            self.stats.messages_sent += 1
            deliver()
            return
        attempts = 0

        def attempt() -> None:
            nonlocal attempts
            attempts += 1
            self.stats.messages_sent += 1
            if self.transport.send(self._sim, deliver):
                return
            self.stats.messages_lost += 1
            if attempts <= self.control_max_retries:
                self.stats.retries += 1
                self._sim.schedule(self.control_retry_delay, attempt)
            else:
                self.stats.gave_up += 1

        attempt()
