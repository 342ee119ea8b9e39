"""Campaign orchestration: population + platform + tasks, end to end.

A :class:`Campaign` builds the full deployment of paper Figure 1 from a
generated population: one device per user, a Hive with an incentive
strategy, one Honeycomb per experimenter, the tasks to deploy — then runs
the simulator day by day (with the incentive engine's daily pass) and
produces a :class:`CampaignReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.apisense.battery import Battery, BatteryModel
from repro.apisense.device import MobileDevice
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.incentives import IncentiveStrategy, NoIncentive
from repro.apisense.preferences import UserPreferences
from repro.apisense.sensors import default_sensor_suite
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.mobility.generator import PopulationData
from repro.privacy.secure_aggregation import SecureAggregationPolicy
from repro.simulation import Simulator
from repro.units import DAY


@dataclass(frozen=True)
class CampaignConfig:
    """Deployment-wide knobs."""

    n_days: float = 7.0
    delivery_latency: float = 0.2
    #: Devices start with batteries uniformly in this range.
    initial_battery: tuple[float, float] = (0.5, 1.0)
    #: Battery parameters shared by the fleet's device class; heavier
    #: drain profiles exercise energy-adaptive scripts.
    battery_model: BatteryModel = field(default_factory=BatteryModel)
    #: Daily participation dynamics: a participant drops a task with
    #: probability ``(1 - motivation) * daily_churn``; a lapsed user
    #: re-joins with probability ``acceptance * rejoin_factor``.  This is
    #: the mechanism through which incentive strategies shape collected
    #: volume (experiment E7).
    daily_churn: float = 0.3
    rejoin_factor: float = 0.5
    #: Probability that a wireless message (offer or upload) is lost;
    #: devices retry lost uploads at the next upload tick.
    uplink_loss: float = 0.0
    #: Privacy tier: how secure aggregates over this campaign's data are
    #: computed — per-device protocol selection (battery floor, key
    #: size, dropout resilience); see :meth:`Campaign.secure_aggregate`.
    secure_aggregation: SecureAggregationPolicy = field(
        default_factory=SecureAggregationPolicy
    )
    seed: int = 0


@dataclass
class CampaignReport:
    """What a finished campaign measured."""

    n_devices: int
    duration_days: float
    records_per_task: dict[str, int]
    acceptance_rate_per_task: dict[str, float]
    uploads_per_task: dict[str, int]
    messages_sent: int
    events_processed: int
    mean_motivation: float
    mean_battery: float
    daily_records: list[int] = field(default_factory=list)
    daily_participants: list[int] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        return sum(self.records_per_task.values())


def build_fleet(
    population: PopulationData,
    config: CampaignConfig,
    rng: np.random.Generator,
    preferences: dict[str, UserPreferences] | None = None,
) -> Iterator[MobileDevice]:
    """One device per user of ``population``, in dataset order.

    Draws the shared sensor suite, then each battery's starting level,
    from ``rng``.  A :class:`Campaign` registers the devices with its
    Hive; a federation registers them with its router.
    """
    suite = default_sensor_suite(population.city, rng)
    lo, hi = config.initial_battery
    preferences = preferences or {}
    for index, trajectory in enumerate(population.dataset):
        yield MobileDevice(
            device_id=f"device-{index:04d}",
            user=trajectory.user,
            trajectory=trajectory,
            sensors=suite,
            battery=Battery(config.battery_model, level=float(rng.uniform(lo, hi))),
            preferences=preferences.get(trajectory.user, UserPreferences()),
            seed=config.seed * 100_003 + index,
        )


class Campaign:
    """Builds and runs one simulated crowd-sensing deployment."""

    def __init__(
        self,
        population: PopulationData,
        incentive: IncentiveStrategy | None = None,
        config: CampaignConfig | None = None,
        preferences: dict[str, UserPreferences] | None = None,
    ):
        self.population = population
        self.config = config or CampaignConfig()
        self.sim = Simulator()
        from repro.apisense.transport import Transport

        self.hive = Hive(
            self.sim,
            incentive=incentive or NoIncentive(),
            delivery_latency=self.config.delivery_latency,
            transport=Transport(
                latency_mean=self.config.delivery_latency,
                latency_jitter=self.config.delivery_latency * 0.2,
                loss=self.config.uplink_loss,
                seed=self.config.seed,
            ),
            seed=self.config.seed,
        )
        self._honeycombs: dict[str, Honeycomb] = {}
        self._rng = np.random.default_rng(self.config.seed)
        self.devices: list[MobileDevice] = []
        for device in build_fleet(population, self.config, self._rng, preferences):
            self.hive.register_device(device)
            self.devices.append(device)
        self._daily_records: list[int] = []
        self._daily_participants: list[int] = []
        self._records_counted = 0
        self._run_days: float | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def honeycomb(self, name: str) -> Honeycomb:
        """Get or create the Honeycomb endpoint named ``name``."""
        if name not in self._honeycombs:
            self._honeycombs[name] = Honeycomb(name, self.hive)
        return self._honeycombs[name]

    def deploy(
        self,
        task: SensingTask,
        honeycomb: str = "default",
        recruitment=None,
    ) -> Honeycomb:
        """Deploy a task from the given Honeycomb; returns the endpoint.

        ``recruitment`` (a :class:`repro.apisense.recruitment.
        RecruitmentPolicy`) restricts who receives the offer.
        """
        endpoint = self.honeycomb(name=honeycomb)
        endpoint.deploy(task, recruitment=recruitment)
        return endpoint

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        """Run the whole campaign and return its report."""
        if not any(h.tasks for h in self._honeycombs.values()):
            raise PlatformError("campaign has no deployed task; deploy() first")
        n_days = self.config.n_days
        day = 1.0
        while day <= n_days + 1e-9:
            self.sim.run_until(day * DAY)
            self.end_day()
            day += 1.0
        # Drain in-flight routing: the last uploads' Honeycomb deliveries
        # are scheduled one latency hop after the final day boundary, and
        # a deep spill backlog may need more flush rounds than the time
        # window allows — flush_all() guarantees nothing stays stranded
        # in the ingest pipeline.
        self._run_days = n_days
        self.sim.run_until(self.drain_horizon)
        self.hive.pipeline.flush_all()
        final_total = sum(
            stats.records for stats in self.hive.stats.per_task.values()
        )
        if self._daily_records and final_total > self._records_counted:
            self._daily_records[-1] += final_total - self._records_counted
        return self.report()

    @property
    def drain_horizon(self) -> float:
        """When the campaign's last uploads have reached the store: the
        final day boundary plus two delivery hops (upload, then the
        Honeycomb routing) and a second of slack."""
        return self.config.n_days * DAY + 2.0 * self.config.delivery_latency + 1.0

    def end_day(self) -> None:
        """Close the simulated day at the current clock: the Hive's
        end-of-day pass, churn and re-join, the day's counts.  :meth:`run`
        calls it at each day boundary; a caller driving the clock itself
        (a server's ``drive``) calls it there."""
        self.hive.end_of_day()
        self._daily_participation()
        total = sum(stats.records for stats in self.hive.stats.per_task.values())
        self._daily_records.append(total - self._records_counted)
        self._records_counted = total
        self._daily_participants.append(
            sum(1 for device in self.devices if device.running_tasks)
        )

    def _daily_participation(self) -> None:
        """Churn and re-join pass, driven by community motivation.

        Users whose motivation lapsed abandon running tasks; lapsed users
        may pick tasks back up when the incentive strategy has restored
        their motivation.  This closes the loop that makes incentive
        strategies (paper Section 2) measurable in collected volume.
        """
        incentive = self.hive.incentive
        for honeycomb in self._honeycombs.values():
            for task in honeycomb.tasks:
                if task.end <= self.sim.now:
                    continue
                for device in self.devices:
                    state = self.hive.community[device.user]
                    if task.name in device.running_tasks:
                        churn = (1.0 - state.motivation) * self.config.daily_churn
                        if self._rng.uniform() < churn:
                            device.stop_task(task.name)
                    else:
                        rejoin = (
                            incentive.acceptance_probability(state)
                            * self.config.rejoin_factor
                        )
                        device.offer_task(task, rejoin)

    def secure_aggregate(self, task_name: str, **kwargs):
        """Aggregator-oblivious aggregates of one task's collected data.

        Runs the config's :class:`~repro.privacy.secure_aggregation.
        SecureAggregationPolicy` over the Hive's store and enrolled
        devices; see :meth:`repro.apisense.hive.Hive.secure_aggregate`.
        """
        kwargs.setdefault("policy", self.config.secure_aggregation)
        return self.hive.secure_aggregate(task_name, **kwargs)

    def report(self) -> CampaignReport:
        """Snapshot the campaign's statistics."""
        now = self.sim.now
        levels = [device.battery.level(now) for device in self.devices]
        per_task = self.hive.stats.per_task
        return CampaignReport(
            n_devices=len(self.devices),
            duration_days=self._run_days if self._run_days is not None else now / DAY,
            records_per_task={name: s.records for name, s in per_task.items()},
            acceptance_rate_per_task={
                name: s.acceptance_rate for name, s in per_task.items()
            },
            uploads_per_task={name: s.uploads for name, s in per_task.items()},
            messages_sent=self.hive.stats.messages_sent,
            events_processed=self.sim.events_processed,
            mean_motivation=self.hive.mean_motivation(),
            mean_battery=float(np.mean(levels)) if levels else 0.0,
            daily_records=list(self._daily_records),
            daily_participants=list(self._daily_participants),
        )
