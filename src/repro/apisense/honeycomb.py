"""Honeycomb: the scientist-facing endpoint.

A Honeycomb describes crowd-sensing tasks, uploads them to the Hive, and
receives the datasets produced by the crowd.  Processing hooks let other
middleware — PRIVAPI above all — intercept a task's dataset before the
scientist consumes it.
"""

from __future__ import annotations

from typing import Callable

from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.tasks import SensingTask
from repro.errors import PlatformError
from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset

#: Hook signature: receives (task_name, batch) after each routed upload.
DatasetHook = Callable[[str, list[SensorRecord]], None]


class Honeycomb:
    """One data-collection endpoint owned by an experimenter."""

    def __init__(self, name: str, hive: Hive):
        self.name = name
        self._hive = hive
        self._tasks: dict[str, SensingTask] = {}
        self._records: dict[str, list[SensorRecord]] = {}
        self._hooks: list[DatasetHook] = []

    # ------------------------------------------------------------------
    # Task side
    # ------------------------------------------------------------------

    def register_task(self, task: SensingTask) -> None:
        """Register a task without publishing it.

        Used by :meth:`repro.federation.FederationRouter.syndicate`,
        which handles publication across several Hives itself.
        """
        task.validate()
        if task.name in self._tasks:
            raise PlatformError(f"honeycomb {self.name!r} already deployed {task.name!r}")
        self._tasks[task.name] = task
        self._records[task.name] = []

    def deploy(self, task: SensingTask, recruitment=None, vet: bool = False) -> None:
        """Validate and publish a task through the Hive.

        ``recruitment`` optionally restricts which devices are offered
        the task (see :mod:`repro.apisense.recruitment`).  With
        ``vet=True`` the task's script is dry-run against synthetic
        samples first and deployment is refused when it crashes or drops
        (nearly) everything — the platform's script-vetting gate.
        """
        if vet:
            from repro.apisense.vetting import dry_run_task
            from repro.errors import TaskValidationError

            report = dry_run_task(task)
            if not report.acceptable():
                raise TaskValidationError(
                    f"task {task.name!r} failed vetting: error rate "
                    f"{report.error_rate:.0%}, drop rate {report.drop_rate:.0%}; "
                    f"first errors: {report.error_messages[:3]}"
                )
        self.register_task(task)
        self._hive.publish_task(task, owner=self, recruitment=recruitment)

    @property
    def tasks(self) -> list[SensingTask]:
        return list(self._tasks.values())

    # ------------------------------------------------------------------
    # Data side
    # ------------------------------------------------------------------

    def add_hook(self, hook: DatasetHook) -> None:
        """Register a processing hook (e.g. PRIVAPI ingestion)."""
        self._hooks.append(hook)

    def receive_dataset(self, task_name: str, records: list[SensorRecord]) -> None:
        """Store a routed upload batch and fire hooks."""
        if task_name not in self._tasks:
            raise PlatformError(
                f"honeycomb {self.name!r} received data for foreign task {task_name!r}"
            )
        self._records[task_name].extend(records)
        for hook in self._hooks:
            hook(task_name, records)

    def records(self, task_name: str) -> list[SensorRecord]:
        """All records collected so far for a task."""
        if task_name not in self._records:
            raise PlatformError(f"unknown task {task_name!r}")
        return list(self._records[task_name])

    def dataset_view(
        self,
        task_name: str,
        t0: float | None = None,
        t1: float | None = None,
        bbox=None,
        user: str | None = None,
    ):
        """Columnar scan of a task's data from the Hive's dataset store.

        This is the scalable read path: numpy ``time/lat/lon/value/user``
        arrays straight from the store's segments, with optional
        time-range / bbox / per-user filters (see
        :meth:`repro.store.DatasetStore.scan`).  In a federation it
        covers the home Hive's store only; :meth:`records` remains the
        cross-community record list.
        """
        if task_name not in self._tasks:
            raise PlatformError(f"unknown task {task_name!r}")
        return self._hive.store.scan(task_name, t0=t0, t1=t1, bbox=bbox, user=user)

    def aggregate(self, task_name: str):
        """The store's streaming aggregate view of a task.

        Returns ``None`` until the first flush lands (the view is
        created with the task's first stored batch).
        """
        if task_name not in self._tasks:
            raise PlatformError(f"unknown task {task_name!r}")
        return self._hive.store.aggregates.get(task_name)

    def n_records(self, task_name: str) -> int:
        return len(self._records.get(task_name, []))

    def mobility_dataset(self, task_name: str) -> MobilityDataset:
        """Assemble the GPS stream of a task into a mobility dataset.

        This is the dataset PRIVAPI protects before publication.  Records
        without a GPS value (dropped field, non-location task) are
        skipped; devices contribute under their *user* id, matching the
        mobility ground truth.
        """
        per_user: dict[str, list[Record]] = {}
        for record in self.records(task_name):
            position = record.values.get("gps")
            if not isinstance(position, GeoPoint):
                continue
            per_user.setdefault(record.user, []).append(
                Record(point=position, time=record.time)
            )
        trajectories = [
            Trajectory.from_records(user, records)
            for user, records in per_user.items()
            if records
        ]
        return MobilityDataset(trajectories)
