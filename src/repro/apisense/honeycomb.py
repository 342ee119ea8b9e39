"""Honeycomb: the scientist-facing endpoint.

A Honeycomb describes crowd-sensing tasks, uploads them to the Hive, and
reads the crowd's data back from the Hives' stores.  Processing hooks let other
middleware — PRIVAPI above all — intercept a task's dataset before the
scientist consumes it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable

import numpy as np

from repro.apisense.device import SensorRecord
from repro.apisense.hive import Hive
from repro.apisense.tasks import SensingTask
from repro.apisense.vetting import dry_run_task
from repro.errors import PlatformError, TaskValidationError
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.store import DatasetStore

#: Hook signature: receives (task_name, batch) for each flush routed here.
DatasetHook = Callable[[str, list[SensorRecord]], None]


class Honeycomb:
    """One data-collection endpoint owned by an experimenter."""

    def __init__(self, name: str, hive: Hive):
        self.name = name
        self._hive = hive
        self._tasks: dict[str, SensingTask] = {}
        self._routed: Counter[str] = Counter()
        #: Per task, the stores of the Hives routing it here: the data.
        self._sources: defaultdict[str, dict[DatasetStore, None]] = defaultdict(dict)
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

    def deploy(self, task: SensingTask, recruitment=None, vet: bool = False) -> None:
        """Validate and publish a task through the Hive.

        ``recruitment`` optionally restricts which devices are offered
        the task (see :mod:`repro.apisense.recruitment`).  With
        ``vet=True`` the task's script is dry-run against synthetic
        samples first and deployment is refused when it crashes or drops
        (nearly) everything — the platform's script-vetting gate.
        """
        if vet:
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

    def add_source(self, task_name: str, store: DatasetStore) -> None:
        """Read a task's data from ``store`` too (a Hive adopting it)."""
        self._sources[self._known(task_name)][store] = None

    def receive_dataset(self, task_name: str, records: list[SensorRecord]) -> None:
        """Count one routed flush and fire hooks; the store keeps the data."""
        self._routed[self._known(task_name)] += len(records)
        for hook in self._hooks:
            hook(task_name, records)

    def _known(self, task_name: str) -> str:
        if task_name not in self._tasks:
            raise PlatformError(f"honeycomb {self.name!r} has no task {task_name!r}")
        return task_name

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
        covers the home Hive's store only; :meth:`mobility_dataset`
        reads every store routing the task here.
        """
        return self._hive.store.scan(
            self._known(task_name), t0=t0, t1=t1, bbox=bbox, user=user
        )

    def aggregate(self, task_name: str):
        """The store's streaming aggregate view of a task.

        Returns ``None`` until the first flush lands (the view is
        created with the task's first stored batch).
        """
        return self._hive.store.aggregates.get(self._known(task_name))

    def n_records(self, task_name: str) -> int:
        return self._routed[task_name]

    def mobility_dataset(self, task_name: str) -> MobilityDataset:
        """Assemble the GPS stream of a task into a mobility dataset.

        The dataset PRIVAPI protects, read from every store routing the
        task here (in adoption order, users in interning order).  Rows
        without a GPS fix are skipped; each user's fixes are stably
        time-sorted, repeated times dropped (:meth:`Trajectory.from_unsorted_columns`).
        """
        per_user: dict[str, list[np.ndarray]] = {}
        for store in self._sources[self._known(task_name)]:
            scan = store.scan(task_name)
            fixes = np.stack([scan.time, scan.lat, scan.lon])
            rows = np.flatnonzero(~np.isnan(scan.lat))
            rows = rows[np.argsort(scan.user_id[rows], kind="stable")]
            ids, starts = np.unique(scan.user_id[rows], return_index=True)
            for uid, run in zip(ids.tolist(), np.split(rows, starts[1:])):
                per_user.setdefault(scan.user_table[uid], []).append(fixes[:, run])
        return MobilityDataset(
            Trajectory.from_unsorted_columns(user, *np.concatenate(pieces, axis=1))
            for user, pieces in per_user.items()
        )
