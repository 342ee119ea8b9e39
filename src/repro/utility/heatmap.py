"""Crowded-places utility: presence density grids and hotspot agreement.

The analyst's task: find where people concentrate.  We score a protected
dataset by building the same presence-density heatmap from raw and
protected data and comparing their top-k hotspot cells — the F1 score of
"the analyst would have pointed at the same places".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.grid import CellIndex, SpatialGrid
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset


@dataclass(frozen=True)
class DensityGrid:
    """A presence-density heatmap over a spatial grid."""

    grid: SpatialGrid
    counts: np.ndarray  # shape (rows, cols), float

    def top_cells(self, k: int) -> set[CellIndex]:
        """The ``k`` densest cells (ties broken by row-major order)."""
        if k <= 0:
            return set()
        flat = self.counts.ravel()
        k = min(k, flat.size)
        order = np.argsort(-flat, kind="stable")[:k]
        cols = self.counts.shape[1]
        return {(int(i) // cols, int(i) % cols) for i in order if flat[i] > 0}

    def normalized(self) -> np.ndarray:
        """Counts as a probability distribution (sums to 1)."""
        total = self.counts.sum()
        if total == 0:
            return self.counts.copy()
        return self.counts / total


def sampled_cells(
    trajectory: Trajectory, grid: SpatialGrid, time_step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Where a trajectory is every ``time_step`` seconds of its span.

    Returns the sampling instants and the flat (row-major) index of the
    cell occupied at each — the time-uniform view every density and flow
    measure below is built on.  A single-instant trace has no span and
    yields no sample.
    """
    times = np.arange(trajectory.start_time, trajectory.end_time, time_step)
    rows, cols = grid.cells_of(*trajectory.sample(times))
    return times, rows * grid.cols + cols


def presence_density(
    dataset: MobilityDataset,
    grid: SpatialGrid,
    time_step: float = 300.0,
) -> DensityGrid:
    """Time-uniform presence density of a dataset over ``grid``.

    Each trajectory is sampled every ``time_step`` seconds via linear
    interpolation, so mechanisms that change the record *rate* (speed
    smoothing publishes far fewer records) are compared fairly: what is
    measured is where users *spend time*, not how often their device
    reported.
    """
    counts = np.zeros(grid.n_cells, dtype=float)
    for trajectory in dataset:
        _, cells = sampled_cells(trajectory, grid, time_step)
        counts += np.bincount(cells, minlength=grid.n_cells)
    return DensityGrid(grid=grid, counts=counts.reshape(grid.rows, grid.cols))


def footfall_density(
    dataset: MobilityDataset,
    grid: SpatialGrid,
    time_step: float = 60.0,
) -> DensityGrid:
    """Distinct-user footfall per cell: how many users visited each cell.

    This is the "finding out crowded places" task as an analyst actually
    poses it — *how many people were here* — and it depends only on the
    spatial shape of trajectories, not on dwell times.  Speed smoothing
    preserves shape, so footfall survives it (experiment E4); per-fix
    noise scatters shape, so footfall degrades under strong Laplace noise.
    """
    counts = np.zeros(grid.n_cells, dtype=float)
    for trajectory in dataset:
        if trajectory.duration <= 0:
            rows, cols = grid.cells_of(trajectory.lat[:1], trajectory.lon[:1])
            cells = rows * grid.cols + cols
        else:
            _, cells = sampled_cells(trajectory, grid, time_step)
        counts[np.unique(cells)] += 1.0
    return DensityGrid(grid=grid, counts=counts.reshape(grid.rows, grid.cols))


def hotspot_overlap(
    raw: DensityGrid, protected: DensityGrid, k: int = 10
) -> tuple[set[CellIndex], set[CellIndex]]:
    """The top-k hotspot cell sets of the raw and protected heatmaps."""
    return raw.top_cells(k), protected.top_cells(k)


def hotspot_f1(raw: DensityGrid, protected: DensityGrid, k: int = 10) -> float:
    """F1 agreement between raw and protected top-k hotspots.

    1.0 means the analyst finds exactly the same crowded places from the
    protected data; 0.0 means none of them.
    """
    truth, found = hotspot_overlap(raw, protected, k)
    if not truth and not found:
        return 1.0
    if not truth or not found:
        return 0.0
    intersection = len(truth & found)
    precision = intersection / len(found)
    recall = intersection / len(truth)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def density_similarity(raw: DensityGrid, protected: DensityGrid) -> float:
    """Cosine similarity between the two normalized density maps.

    A softer companion to hotspot F1 that rewards approximately-right
    mass placement instead of exact top-k membership.
    """
    a = raw.normalized().ravel()
    b = protected.normalized().ravel()
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0:
        return 0.0
    return float(np.dot(a, b) / denom)
