"""Spatial cloaking: snap every fix to the centre of a grid cell."""

from __future__ import annotations

import numpy as np

from repro.errors import MechanismError
from repro.geo.grid import SpatialGrid
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.privacy.mechanisms.base import LocationPrivacyMechanism


class SpatialCloakingMechanism(LocationPrivacyMechanism):
    """Grid generalization baseline.

    Every fix is replaced by the centre of its grid cell, so the adversary
    learns positions only at ``cell_size_m`` granularity.  When protecting
    a whole dataset the grid is anchored on the *dataset* bounding box —
    an example of the global knowledge PRIVAPI has — so all users share
    cell boundaries; a standalone trajectory falls back to its own box.
    """

    name = "spatial-cloaking"

    def __init__(self, cell_size_m: float):
        if not (cell_size_m > 0):
            raise MechanismError(f"cell size must be positive: {cell_size_m}")
        self.cell_size_m = cell_size_m
        self._grid: SpatialGrid | None = None

    def protect(self, dataset: MobilityDataset, seed: int = 0) -> MobilityDataset:
        self._grid = SpatialGrid(
            bbox=dataset.bounding_box.expanded(0.01), cell_size_m=self.cell_size_m
        )
        try:
            return super().protect(dataset, seed)
        finally:
            self._grid = None

    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory:
        grid = self._grid or SpatialGrid(
            bbox=trajectory.bounding_box.expanded(0.01), cell_size_m=self.cell_size_m
        )
        cells = grid.cells_of(trajectory.lat, trajectory.lon)
        return trajectory.with_positions(*grid.centers_of(*cells))
