"""APISENSE: the distributed crowd-sensing middleware (paper Section 2).

The platform's architecture maps one-to-one onto the paper's Figure 1:

- the :class:`~repro.apisense.hive.Hive` manages the community of mobile
  users and publishes crowd-sensing tasks;
- :class:`~repro.apisense.honeycomb.Honeycomb` endpoints upload tasks
  (described as scripts) and receive the collected datasets;
- :mod:`repro.apisense.scripting` is the paper's scripting facade — the
  v2 Sensing Script API: a :class:`~repro.apisense.scripting.TaskScript`
  registers periodic timers (re-schedulable at runtime for adaptive
  sampling), sensor-change triggers, and geofence handlers against a
  :class:`~repro.apisense.scripting.TaskContext` with lazy sensor
  facades; the fluent :class:`~repro.apisense.scripting.TaskBuilder`
  (``SensingTask.builder(...)``) is the declarative front door, and
  legacy one-hook tasks run unchanged through an adapter;
- :class:`~repro.apisense.device.MobileDevice` instances execute
  offloaded scripts through an event-driven
  :class:`~repro.apisense.scripting.TaskDispatcher` over their sensors,
  behind an on-device privacy layer (:mod:`repro.apisense.filters`)
  controlled by user preferences;
- :class:`~repro.apisense.virtual_sensor.VirtualSensor` groups devices
  behind retrieval strategies (:mod:`repro.apisense.scheduling`);
- :mod:`repro.apisense.incentives` implements the four incentive
  strategies the paper lists;
- multi-Hive deployments scale out through :mod:`repro.federation`
  (consistent-hash placement, syndication, federated queries).

Everything runs on the deterministic simulator from
:mod:`repro.simulation`; see DESIGN.md for the substitution argument.
"""

from repro.apisense.tasks import SensingTask
from repro.apisense.battery import Battery, BatteryModel
from repro.apisense.scripting import (
    HandlerStats,
    LegacyHookScript,
    ScriptRuntime,
    SensorReadRefused,
    TaskBuilder,
    TaskContext,
    TaskDispatcher,
    TaskScript,
    TimerHandle,
    TriggerEvent,
)
from repro.apisense.sensors import (
    AccelerometerSensor,
    BatterySensor,
    GpsSensor,
    NetworkQualitySensor,
    Sensor,
    SensorRegistry,
    SensorSuite,
    default_sensor_suite,
    sensor_registry,
)
from repro.apisense.preferences import UserPreferences
from repro.apisense.filters import (
    AreaFenceFilter,
    FieldDropFilter,
    LocationBlurFilter,
    PrivacyFilterChain,
    QuietHoursFilter,
)
from repro.apisense.device import MobileDevice, SensorRecord
from repro.apisense.hive import Hive, HiveStats
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.scheduling import (
    CoverageGreedyStrategy,
    EnergyAwareStrategy,
    FairBudgetStrategy,
    RoundRobinStrategy,
    SchedulingStrategy,
)
from repro.apisense.virtual_sensor import VirtualSensor
from repro.apisense.incentives import (
    FeedbackIncentive,
    IncentiveStrategy,
    NoIncentive,
    RankingIncentive,
    RewardIncentive,
    UserState,
    WinWinIncentive,
)
from repro.apisense.campaign import Campaign, CampaignConfig, CampaignReport
from repro.apisense.transport import Transport, TransportStats
from repro.apisense.monitoring import PlatformHealthReport, snapshot
from repro.apisense.vetting import DryRunReport, HandlerReport, describe_task, dry_run_task
from repro.apisense.recruitment import (
    AllDevices,
    BatteryFloorRecruitment,
    PredicateRecruitment,
    QuotaRecruitment,
    RecruitmentPolicy,
    RegionRecruitment,
    SensorCapabilityRecruitment,
)

__all__ = [
    "SensingTask",
    "TaskBuilder",
    "TaskScript",
    "TaskContext",
    "TaskDispatcher",
    "TimerHandle",
    "TriggerEvent",
    "HandlerStats",
    "LegacyHookScript",
    "ScriptRuntime",
    "SensorReadRefused",
    "Battery",
    "BatteryModel",
    "Sensor",
    "SensorSuite",
    "SensorRegistry",
    "sensor_registry",
    "GpsSensor",
    "BatterySensor",
    "NetworkQualitySensor",
    "AccelerometerSensor",
    "default_sensor_suite",
    "UserPreferences",
    "PrivacyFilterChain",
    "LocationBlurFilter",
    "AreaFenceFilter",
    "QuietHoursFilter",
    "FieldDropFilter",
    "MobileDevice",
    "SensorRecord",
    "Hive",
    "HiveStats",
    "Honeycomb",
    "SchedulingStrategy",
    "RoundRobinStrategy",
    "EnergyAwareStrategy",
    "CoverageGreedyStrategy",
    "FairBudgetStrategy",
    "VirtualSensor",
    "IncentiveStrategy",
    "NoIncentive",
    "FeedbackIncentive",
    "RankingIncentive",
    "RewardIncentive",
    "WinWinIncentive",
    "UserState",
    "Campaign",
    "CampaignConfig",
    "CampaignReport",
    "Transport",
    "TransportStats",
    "RecruitmentPolicy",
    "AllDevices",
    "RegionRecruitment",
    "BatteryFloorRecruitment",
    "PredicateRecruitment",
    "QuotaRecruitment",
    "SensorCapabilityRecruitment",
    "DryRunReport",
    "HandlerReport",
    "describe_task",
    "dry_run_task",
    "PlatformHealthReport",
    "snapshot",
]
