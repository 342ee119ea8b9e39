"""The Hive: community management, task publication, dataset routing.

Sits at the centre of the architecture (paper Figure 1): Honeycombs push
tasks to it, it offers them to eligible devices, devices stream uploads
back, and it routes each task's data to the owning Honeycomb.  It also
runs the incentive engine over the user community.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro import obs

from repro.apisense.device import MobileDevice, SensorRecord
from repro.apisense.incentives import (
    IncentiveStrategy,
    NoIncentive,
    UserState,
    draw_initial_motivation,
)
from repro.apisense.metrics import acceptance_rate
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.store.columns import RecordBatch, group_rows
from repro.streams import StreamEngine

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apisense.honeycomb import Honeycomb
    from repro.apisense.transport import Transport


@dataclass
class TaskStats:
    """Per-task platform statistics."""

    offers: int = 0
    acceptances: int = 0
    records: int = 0
    uploads: int = 0
    first_record_time: float | None = None

    @property
    def acceptance_rate(self) -> float:
        return acceptance_rate(self.acceptances, self.offers)


@dataclass
class HiveStats:
    """Global platform statistics."""

    devices_registered: int = 0
    messages_sent: int = 0
    tasks_published: int = 0
    per_task: dict[str, TaskStats] = field(default_factory=dict)


class Hive:
    """The central crowd-sensing service."""

    def __init__(
        self,
        sim: Simulator,
        incentive: IncentiveStrategy | None = None,
        delivery_latency: float = 0.2,
        transport: "Transport | None" = None,
        store: DatasetStore | None = None,
        pipeline: IngestPipeline | None = None,
        streams: StreamEngine | None = None,
        seed: int = 0,
    ):
        from repro.apisense.transport import Transport

        self._sim = sim
        self.incentive = incentive or NoIncentive()
        self.delivery_latency = delivery_latency
        #: Wireless hop used for offers (downlink) and uploads (uplink).
        self.transport = transport or Transport(
            latency_mean=delivery_latency,
            latency_jitter=delivery_latency * 0.2,
            loss=0.0,
            seed=seed,
        )
        #: Server-side storage: uploads batch through the ingest pipeline
        #: into the columnar store, and Honeycomb routing happens at
        #: pipeline flush time (see :meth:`_route_flush`).
        if pipeline is not None:
            if store is not None and pipeline.store is not store:
                raise PlatformError("pipeline is bound to a different store")
            self.store = pipeline.store
            self.pipeline = pipeline
        else:
            self.store = store or DatasetStore()
            self.pipeline = IngestPipeline(
                sim, self.store, flush_delay=delivery_latency
            )
        # Exclusive: a pipeline routes to exactly one Hive (sharing one
        # would double-deliver every flush to the owning Honeycombs).
        self.pipeline.set_router(self._route_flush)
        #: Live streaming analytics: every Hive carries a stream engine
        #: tapping its pipeline's flushes.  With no windowed view
        #: registered it costs one no-op listener call per flush; once
        #: views/queries are registered (``hive.streams.register_view``)
        #: the operator dashboard (``monitoring.snapshot``) turns live.
        self.streams = (streams or StreamEngine(sim=sim)).attach(self.pipeline)
        self._rng = np.random.default_rng(seed)
        self._devices: dict[str, MobileDevice] = {}
        self.community: dict[str, UserState] = {}
        self._tasks: dict[str, SensingTask] = {}
        self._task_owner: dict[str, "Honeycomb"] = {}
        self.stats = HiveStats()

    @property
    def sim(self) -> Simulator:
        """The simulator this Hive schedules on (federation wiring)."""
        return self._sim

    def obs_instances(self) -> frozenset:
        """The ``instance`` labels this hive's tiers emit metrics under.

        Federation scrapers use these to partition the shared registry:
        one per-hive scraper selects exactly this set, and the router's
        residual scraper takes everything no member claims.
        """
        return frozenset(
            {
                self.pipeline.obs.instance,
                self.store.obs.instance,
                self.streams.obs.instance,
            }
        )

    # ------------------------------------------------------------------
    # Community management
    # ------------------------------------------------------------------

    def register_device(self, device: MobileDevice) -> None:
        """Enrol a device (and its user) into the community."""
        if device.device_id in self._devices:
            raise PlatformError(f"device {device.device_id!r} already registered")
        device.bind(self._sim, self, transport=self.transport)
        self._devices[device.device_id] = device
        self._ensure_user(device.user)
        self.stats.devices_registered += 1

    def unregister_device(self, device_id: str) -> MobileDevice:
        """Remove a device from the community and return it.

        Used by the federation tier when re-homing a device onto another
        Hive (membership change, hive failure).  The user's community
        state stays behind — another of the user's devices may remain —
        and the device keeps its running tasks and buffered data; only
        the binding moves.
        """
        if device_id not in self._devices:
            raise PlatformError(f"unknown device {device_id!r}")
        return self._devices.pop(device_id)

    def adopt_user_state(self, state: UserState) -> None:
        """Install a migrated user's state (federation re-homing).

        A no-op when the user is already part of this community: the
        local history wins over the carried copy.
        """
        if state.user not in self.community:
            self.community[state.user] = state

    def _ensure_user(self, user: str) -> UserState:
        state = self.community.get(user)
        if state is None:
            state = self.community[user] = UserState(
                user=user, motivation=draw_initial_motivation(self._rng)
            )
        return state

    @property
    def devices(self) -> list[MobileDevice]:
        return list(self._devices.values())

    def device(self, device_id: str) -> MobileDevice:
        if device_id not in self._devices:
            raise PlatformError(f"unknown device {device_id!r}")
        return self._devices[device_id]

    # ------------------------------------------------------------------
    # Task publication
    # ------------------------------------------------------------------

    def publish_task(
        self,
        task: SensingTask,
        owner: "Honeycomb",
        recruitment=None,
    ) -> None:
        """Publish a task: offer it to the recruited devices.

        ``recruitment`` (a :class:`repro.apisense.recruitment.
        RecruitmentPolicy`, default: everyone) selects who receives an
        offer.  Offers are delivered over the wireless transport;
        acceptance is decided device-side against the incentive-driven
        probability.
        """
        self.adopt_task(task, owner)
        self.offer_task(task.name, recruitment=recruitment)

    def adopt_task(self, task: SensingTask, owner: "Honeycomb") -> None:
        """Admit a task for routing without offering it to anyone.

        The federation tier adopts every syndicated task at every member
        Hive so a device re-homed mid-campaign can keep uploading; only
        the Hives the task was actually *published* at send offers.
        """
        if task.name in self._tasks:
            raise PlatformError(f"task {task.name!r} already published")
        self._tasks[task.name] = task
        self._task_owner[task.name] = owner
        owner.add_source(task.name, self.store)
        self.stats.tasks_published += 1
        self.stats.per_task.setdefault(task.name, TaskStats())

    def offer_task(self, task_name: str, recruitment=None) -> int:
        """Offer an admitted task to the recruited devices.

        Returns the number of offers sent.  Callable more than once (a
        rejoined federation member re-offers to devices homed back onto
        it); devices already running the task decline duplicate offers.
        """
        task = self._tasks.get(task_name)
        if task is None:
            raise PlatformError(f"cannot offer unknown task {task_name!r}")
        stats = self.stats.per_task[task_name]
        recruited = list(self._devices.values())
        if recruitment is not None:
            recruited = recruitment.select(recruited, task, self._sim.now, self._rng)
        offers = 0
        for device in recruited:
            if task.name in device.running_tasks:
                continue
            state = self.community[device.user]
            probability = self.incentive.acceptance_probability(state)
            stats.offers += 1
            offers += 1
            self.stats.messages_sent += 1
            # Lost offers are simply never delivered; the daily
            # participation pass re-offers tasks to lapsed users.
            self.transport.send(
                self._sim,
                lambda d=device, p=probability: self._deliver_offer(task, d, p),
            )
        return offers

    def _deliver_offer(
        self, task: SensingTask, device: MobileDevice, probability: float
    ) -> None:
        if task.name in device.running_tasks:
            # A duplicate offer can race a federation re-offer with a
            # device that migrated in already running the task.
            return
        accepted = device.offer_task(task, probability)
        if accepted:
            self.stats.per_task[task.name].acceptances += 1

    # ------------------------------------------------------------------
    # Upload path
    # ------------------------------------------------------------------

    def receive_upload(
        self, device_id: str, user: str, task_name: str, records: list[SensorRecord]
    ) -> int:
        """Accept an upload batch into the ingest pipeline.

        The batch lands in the pipeline's shard buffer for this (task,
        user) pair; the pipeline's next flush appends it to the columnar
        store and routes it onward to the owning Honeycomb (uploads that
        coalesce into the same flush window arrive as one batch).

        Records the ingest gateway sheds (``reject`` backpressure) are
        neither counted nor rewarded — only admitted records enter the
        platform statistics and the incentive engine.  Returns the
        number of records accepted.
        """
        if task_name not in self._tasks:
            raise PlatformError(f"upload for unknown task {task_name!r}")
        stats = self.stats.per_task[task_name]
        stats.uploads += 1
        self.stats.messages_sent += 1

        # Observability: a sampled upload becomes the root of a trace —
        # its records carry the trace id downstream (flush, store write,
        # window close all happen in *later* simulator events, so the
        # lineage travels with the data, not the call stack).
        tracer = obs.tracer()
        trace_id = tracer.new_trace() if records else None
        if trace_id is not None:
            records = [
                dataclasses.replace(r, trace_id=trace_id) for r in records
            ]

        dropped_before = self.pipeline.stats.dropped
        if trace_id is not None:
            with tracer.span(
                "ingest.admit",
                trace_id=trace_id,
                device=device_id,
                task=task_name,
                batch=len(records),
            ) as span:
                span.add_records({trace_id: [r.time for r in records]})
                accepted = self.pipeline.submit(records)
        else:
            accepted = self.pipeline.submit(records) if records else 0
        stats.records += accepted
        if (
            stats.first_record_time is None
            and records
            and accepted == len(records)
            and self.pipeline.stats.dropped == dropped_before
        ):
            # Only a fully-*retained* batch pins the time: when the gate
            # sheds records (reject) or drop-oldest evicts any — possibly
            # this batch's own head — the shed records' times must not be
            # recorded as collected.
            stats.first_record_time = min(r.time for r in records)

        # A migrated device's first upload can land before (or without)
        # its user state: enrol the user on first contact.
        state = self._ensure_user(user)
        self.incentive.on_contribution(state, accepted)
        return accepted

    #: Alias matching the paper-facing name for the upload path.
    route_upload = receive_upload

    def _route_flush(self, batch: RecordBatch) -> None:
        """Hand one pipeline flush, split per task, to each task's owner.

        Fires after the store append: owners count the records and fire
        their hooks, and read the data back from the store.
        """
        for rows in group_rows(batch.task_index):
            task_name = batch.tasks[batch.task_index[rows[0]]]
            owner = self._task_owner.get(task_name)
            if owner is not None:
                owner.receive_dataset(
                    task_name, [batch.records[row] for row in rows.tolist()]
                )

    # ------------------------------------------------------------------
    # Privacy tier (secure aggregation)
    # ------------------------------------------------------------------

    def secure_participants(self, task_name: str | None = None):
        """Protocol-selection profiles of the enrolled devices.

        Maps each contributing user to a :class:`~repro.privacy.
        secure_aggregation.ParticipantProfile` carrying the device's
        *current* battery level, so the secure-aggregation policy can
        route weak devices onto the cheap masking protocol.  With a
        ``task_name``, only devices running that task are profiled; a
        user with several devices is represented by its strongest one.
        """
        from repro.privacy.secure_aggregation import ParticipantProfile

        now = self._sim.now
        profiles: dict[str, ParticipantProfile] = {}
        for device in self._devices.values():
            if task_name is not None and task_name not in device.running_tasks:
                continue
            level = device.battery.level(now)
            existing = profiles.get(device.user)
            if existing is None or (existing.battery or 0.0) < level:
                profiles[device.user] = ParticipantProfile(
                    participant_id=device.user, battery=level
                )
        return profiles

    def secure_aggregate(self, task_name: str, **kwargs):
        """Aggregate one task's collected data aggregator-obliviously.

        Single-deployment convenience over :meth:`repro.federation.
        query.FederatedDataset.secure_aggregate` (this Hive's store as
        the only member); keyword arguments pass through (``bin_edges``,
        ``policy``, ``faults``, ``down``...).
        """
        from repro.federation.query import FederatedDataset

        kwargs.setdefault("profiles", self.secure_participants(task_name))
        return FederatedDataset({"local": self.store}).secure_aggregate(
            task_name, **kwargs
        )

    # ------------------------------------------------------------------
    # Daily bookkeeping
    # ------------------------------------------------------------------

    def end_of_day(self) -> None:
        """Run the incentive engine's daily pass over the community."""
        self.incentive.on_day_end(self.community)

    def mean_motivation(self) -> float:
        """Average community motivation (participation health metric)."""
        if not self.community:
            return 0.0
        return sum(s.motivation for s in self.community.values()) / len(self.community)
