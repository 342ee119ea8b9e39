"""Traffic-prediction utility.

The analyst's task: estimate how busy each area is over the day and
predict the near future.  We build a (cell x time-window) traffic matrix
from a dataset and score a protected dataset two ways:

- :func:`flow_correlation` — rank correlation between raw and protected
  traffic matrices (does the protected data rank busy cells/hours the
  same way?);
- :func:`seasonal_naive_error` — error of a seasonal-naive predictor
  *trained on protected data* but *evaluated against raw reality*, i.e.
  the operational cost of working from the anonymized release.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.grid import SpatialGrid
from repro.mobility.dataset import MobilityDataset
from repro.units import DAY
from repro.utility.heatmap import sampled_cells


def traffic_matrix(
    dataset: MobilityDataset,
    grid: SpatialGrid,
    window: float = 1800.0,
    time_step: float = 300.0,
) -> np.ndarray:
    """Presence counts per (cell, absolute time window).

    Shape is ``(rows * cols, n_windows)`` where ``n_windows`` covers the
    dataset's time span.  Sampling is time-uniform (see
    :func:`repro.utility.heatmap.presence_density` for why).
    """
    start = min(t.start_time for t in dataset)
    end = max(t.end_time for t in dataset)
    n_windows = max(1, int(np.ceil((end - start) / window)))
    matrix = np.zeros((grid.n_cells, n_windows), dtype=float)
    for trajectory in dataset:
        times, cells = sampled_cells(trajectory, grid, time_step)
        windows = np.minimum(((times - start) // window).astype(np.int64), n_windows - 1)
        np.add.at(matrix, (cells, windows), 1.0)
    return matrix


def transit_counts(
    dataset: MobilityDataset,
    grid: SpatialGrid,
    time_step: float = 60.0,
) -> np.ndarray:
    """Cell-entry counts: how many times users *entered* each cell.

    This is spatial traffic volume ("which areas are busy thoroughfares"),
    the quantity road-traffic analyses start from.  It depends on the
    spatial shape of trajectories only, so it survives time-distorting
    mechanisms like speed smoothing; the time-windowed
    :func:`traffic_matrix` exposes the temporal resolution those
    mechanisms give up.

    Returns a flat array of length ``grid.n_cells``.
    """
    counts = np.zeros(grid.n_cells, dtype=float)
    for trajectory in dataset:
        _, cells = sampled_cells(trajectory, grid, time_step)
        entered = np.ones(cells.size, dtype=bool)
        entered[1:] = cells[1:] != cells[:-1]
        counts += np.bincount(cells[entered], minlength=grid.n_cells)
    return counts


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation of two flat arrays (numpy-only)."""
    if a.size != b.size or a.size < 2:
        raise ValueError("arrays must have equal size >= 2")

    def ranks(values: np.ndarray) -> np.ndarray:
        order = np.argsort(values, kind="stable")
        rank = np.empty_like(order, dtype=float)
        rank[order] = np.arange(values.size, dtype=float)
        # average ties
        sorted_values = values[order]
        i = 0
        while i < values.size:
            j = i
            while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
                j += 1
            if j > i:
                rank[order[i : j + 1]] = (i + j) / 2.0
            i = j + 1
        return rank

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra**2).sum() * (rb**2).sum()))
    if denom == 0:
        return 0.0
    return float((ra * rb).sum() / denom)


def flow_correlation(raw_matrix: np.ndarray, protected_matrix: np.ndarray) -> float:
    """Spearman correlation between raw and protected traffic matrices.

    Only entries where at least one matrix saw traffic participate, so
    the score is not inflated by the (huge, trivially-agreeing) set of
    always-empty cells.
    """
    if raw_matrix.shape != protected_matrix.shape:
        raise ValueError(
            f"matrix shapes differ: {raw_matrix.shape} vs {protected_matrix.shape}"
        )
    a = raw_matrix.ravel()
    b = protected_matrix.ravel()
    active = (a > 0) | (b > 0)
    if active.sum() < 2:
        return 0.0
    return _spearman(a[active], b[active])


@dataclass
class TrafficModel:
    """Seasonal-naive per-cell traffic predictor.

    Predicts the traffic of (cell, window-of-day) as the mean of that
    same window-of-day over the training days — the standard baseline for
    daily-periodic series.
    """

    windows_per_day: int
    profile: np.ndarray  # shape (n_cells, windows_per_day)

    @classmethod
    def fit(cls, matrix: np.ndarray, window: float) -> "TrafficModel":
        """Fit from an absolute-time traffic matrix (cells x windows)."""
        windows_per_day = max(1, int(round(DAY / window)))
        n_cells, n_windows = matrix.shape
        profile = np.zeros((n_cells, windows_per_day), dtype=float)
        counts = np.zeros(windows_per_day, dtype=float)
        for w in range(n_windows):
            slot = w % windows_per_day
            profile[:, slot] += matrix[:, w]
            counts[slot] += 1.0
        counts[counts == 0] = 1.0
        return cls(windows_per_day=windows_per_day, profile=profile / counts)

    def predict_day(self) -> np.ndarray:
        """Predicted traffic for one full day (cells x windows_per_day)."""
        return self.profile.copy()


def seasonal_naive_error(
    train_protected: np.ndarray,
    eval_raw: np.ndarray,
    window: float,
) -> float:
    """Normalized RMSE of a predictor trained on protected data.

    Fits :class:`TrafficModel` on the protected matrix, fits another on
    the raw matrix, and returns
    ``rmse(protected_model, raw_model) / mean(raw_model)`` — the relative
    error an analyst inherits by training on the anonymized release.
    Lower is better; 0 means the protected release trains an identical
    predictor.
    """
    protected_model = TrafficModel.fit(train_protected, window)
    raw_model = TrafficModel.fit(eval_raw, window)
    truth = raw_model.predict_day()
    estimate = protected_model.predict_day()
    rmse = float(np.sqrt(np.mean((truth - estimate) ** 2)))
    scale = float(truth.mean())
    if scale == 0:
        return float("inf")
    return rmse / scale
