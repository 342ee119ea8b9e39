"""Streaming aggregate views over the dataset store.

Monitoring used to re-walk every raw record list on each dashboard
snapshot; these views are instead maintained *incrementally at flush
time* — the store feeds every appended column batch through
:meth:`StoreAggregates.update`, so reading an aggregate is O(1)
regardless of how much data has been ingested.

Per task the view tracks record counts, the set of contributing users,
spatial coverage (distinct quantized lat/lon cells), and ingest-lag
("freshness") statistics: how stale records are by the time they reach
the store, as mean/max plus one mergeable quantile sketch that answers
every percentile (:mod:`repro.store.quantiles`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StoreError
from repro.store.columns import cells_of
from repro.store.quantiles import QuantileSketch, reading


class TaskAggregate:
    """Incrementally-maintained statistics of one task's dataset."""

    def __init__(self, task: str, cell_deg: float):
        self.task = task
        self.cell_deg = cell_deg
        self.records = 0
        self.gps_records = 0
        self.first_time: float | None = None
        self.last_time: float | None = None
        self._user_ids: set[int] = set()
        self._cells: set[tuple[int, int]] = set()
        self.lag_count = 0
        self.lag_sum = 0.0
        self.lag_max = 0.0
        #: Every finite ingest lag; the federation merges members' sketches.
        self.lag_sketch = QuantileSketch()

    # -- derived readings ------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self._user_ids)

    @property
    def user_ids(self) -> frozenset[int]:
        """Contributing users as store-local interned ids.

        Local ids are only meaningful against the owning store's user
        table; cross-store consumers (the federated query plane) resolve
        them through :attr:`DatasetStore.users` before merging.
        """
        return frozenset(self._user_ids)

    @property
    def coverage_cells(self) -> int:
        """Distinct spatial cells (``cell_deg`` degrees) with a GPS fix."""
        return len(self._cells)

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._cells)

    @property
    def lag_mean(self) -> float:
        return self.lag_sum / self.lag_count if self.lag_count else 0.0

    @property
    def lag_p50(self) -> float:
        return reading(self.lag_sketch, 0.50)

    @property
    def lag_p95(self) -> float:
        return reading(self.lag_sketch, 0.95)

    @property
    def lag_p99(self) -> float:
        return reading(self.lag_sketch, 0.99)

    def freshness(self, now: float) -> float:
        """Seconds since the newest stored record (``inf`` when empty)."""
        if self.last_time is None:
            return float("inf")
        return max(0.0, now - self.last_time)

    # -- update path -----------------------------------------------------

    def update(
        self,
        time: np.ndarray,
        lat: np.ndarray,
        lon: np.ndarray,
        user_id: np.ndarray,
        ingest_time: float | None,
    ) -> None:
        """Absorb one flushed column batch."""
        n = len(time)
        if n == 0:
            return
        self.records += n
        batch_min = float(np.min(time))
        batch_max = float(np.max(time))
        self.first_time = batch_min if self.first_time is None else min(self.first_time, batch_min)
        self.last_time = batch_max if self.last_time is None else max(self.last_time, batch_max)
        self._user_ids.update(np.unique(user_id).tolist())

        fix = ~np.isnan(lat)
        n_fix = int(np.count_nonzero(fix))
        if n_fix:
            self.gps_records += n_fix
            self._cells.update(cells_of(lat[fix], lon[fix], self.cell_deg))

        if ingest_time is not None:
            lags = np.maximum(0.0, ingest_time - time)
            self.lag_count += n
            self.lag_sum += float(np.sum(lags))
            self.lag_max = max(self.lag_max, float(np.max(lags)))
            self.lag_sketch.extend(lags[np.isfinite(lags)])

    def to_text(self) -> str:
        return (
            f"task {self.task}: {self.records} records from {self.n_users} users, "
            f"{self.coverage_cells} coverage cells, "
            f"lag mean/p50/p95 {self.lag_mean:.1f}/{self.lag_p50:.1f}/{self.lag_p95:.1f}s"
        )


class StoreAggregates:
    """The per-task aggregate views of one :class:`DatasetStore`."""

    def __init__(self, cell_deg: float = 0.005):
        if cell_deg <= 0:
            raise StoreError(f"coverage cell size must be positive: {cell_deg}")
        self.cell_deg = cell_deg
        self._per_task: dict[str, TaskAggregate] = {}

    @property
    def tasks(self) -> list[str]:
        return list(self._per_task)

    def task(self, name: str) -> TaskAggregate:
        if name not in self._per_task:
            raise StoreError(f"no aggregates for unknown task {name!r}")
        return self._per_task[name]

    def get(self, name: str) -> TaskAggregate | None:
        return self._per_task.get(name)

    def update(
        self,
        task: str,
        time: np.ndarray,
        lat: np.ndarray,
        lon: np.ndarray,
        user_id: np.ndarray,
        ingest_time: float | None,
    ) -> None:
        aggregate = self._per_task.get(task)
        if aggregate is None:
            aggregate = self._per_task[task] = TaskAggregate(task, self.cell_deg)
        aggregate.update(time, lat, lon, user_id, ingest_time)
