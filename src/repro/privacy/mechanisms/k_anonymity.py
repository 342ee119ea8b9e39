"""Spatial k-anonymity cloaking (Gruteser & Grunwald style).

Each published position is generalized to the centre of the smallest
grid region that at least ``k`` distinct users of the dataset visit.
Unlike fixed-pitch cloaking, the region size *adapts to density*: dense
downtown cells stay fine-grained, sparse suburbs coarsen until k users
share them.

This mechanism is the registry's cleanest showcase of PRIVAPI's "global
knowledge of the whole system": the anonymity sets are computed from the
entire dataset, which an on-device mechanism could never do.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MechanismError
from repro.geo.grid import SpatialGrid
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.privacy.mechanisms.base import LocationPrivacyMechanism


class KAnonymityCloakingMechanism(LocationPrivacyMechanism):
    """Density-adaptive cloaking with per-region anonymity >= ``k``.

    Parameters
    ----------
    k:
        Minimum number of distinct users per published region.
    base_cell_m:
        Finest region size; regions double (base, 2x, 4x, ...) until the
        anonymity constraint is met, up to ``max_levels`` doublings.
        Positions whose region never reaches ``k`` users are suppressed.
    """

    name = "k-anonymity-cloaking"

    def __init__(self, k: int = 5, base_cell_m: float = 250.0, max_levels: int = 6):
        if k < 2:
            raise MechanismError(f"k must be >= 2: {k}")
        if not (base_cell_m > 0):
            raise MechanismError(f"base cell must be positive: {base_cell_m}")
        if max_levels < 1:
            raise MechanismError(f"max_levels must be >= 1: {max_levels}")
        self.k = k
        self.base_cell_m = base_cell_m
        self.max_levels = max_levels
        self._grids: list[SpatialGrid] | None = None
        #: Per level, the number of distinct visitors of every cell.
        self._user_counts: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Dataset-level pass: build the anonymity-set index
    # ------------------------------------------------------------------

    def protect(self, dataset: MobilityDataset, seed: int = 0) -> MobilityDataset:
        bbox = dataset.bounding_box.expanded(0.01)
        self._grids = [
            SpatialGrid(bbox, self.base_cell_m * (2**level))
            for level in range(self.max_levels)
        ]
        self._user_counts = []
        for grid in self._grids:
            visitors = np.zeros((grid.rows, grid.cols), dtype=np.int64)
            for trajectory in dataset:
                visited = np.zeros(visitors.shape, dtype=bool)
                visited[grid.cells_of(trajectory.lat, trajectory.lon)] = True
                visitors += visited
            self._user_counts.append(visitors)
        try:
            return super().protect(dataset, seed)
        finally:
            self._grids = None
            self._user_counts = None

    # ------------------------------------------------------------------
    # Per-trajectory generalization
    # ------------------------------------------------------------------

    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory | None:
        if self._grids is None or self._user_counts is None:
            raise MechanismError(
                "k-anonymity cloaking needs the whole dataset; call protect() "
                "rather than protect_trajectory()"
            )
        # Coarsest level first, so each fix ends on the finest grid whose
        # cell holds at least k users; fixes no level covers stay NaN.
        lat = np.full(len(trajectory), np.nan)
        lon = np.full(len(trajectory), np.nan)
        for grid, visitors in zip(reversed(self._grids), reversed(self._user_counts)):
            rows, cols = grid.cells_of(trajectory.lat, trajectory.lon)
            anonymous = visitors[rows, cols] >= self.k
            lat[anonymous], lon[anonymous] = grid.centers_of(
                rows[anonymous], cols[anonymous]
            )
        kept = ~np.isnan(lat)
        if kept.sum() < 2:
            return None
        return Trajectory.from_columns(
            trajectory.user, trajectory.time[kept], lat[kept], lon[kept]
        )
