"""Per-fix references the audit's array kernels are tested against.

Everything here is the code ``geo/filtering.py``, ``privacy/pois.py``,
``utility/heatmap.py``, ``utility/traffic.py``, ``privacy/metrics.py``
and four mechanisms ran before the audit moved onto trajectory columns:
one Python iteration per fix or per sample, built on the scalar helpers
that are still public (``point_at_time``, ``haversine_m``, ``cell_of``,
``snap``, ``translate``, ``centroid``).  The equivalence tests require
the array paths to reproduce these loops — bit for bit wherever the
arithmetic per element is unchanged, within a stated tolerance where
only the summation order moved.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.distance import centroid, haversine_m
from repro.geo.grid import CellIndex, SpatialGrid
from repro.geo.point import GeoPoint
from repro.geo.projection import LocalProjection
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.privacy.pois import Poi, PoiExtractorConfig, StayPoint
from repro.units import DAY


# ----------------------------------------------------------------------
# geo/filtering.py
# ----------------------------------------------------------------------


def _rolling(trajectory: Trajectory, window: int, reduce) -> Trajectory:
    if window == 1 or len(trajectory) <= 2:
        return trajectory
    half = window // 2
    lats = np.array([r.lat for r in trajectory.records])
    lons = np.array([r.lon for r in trajectory.records])
    n = len(lats)
    filtered = []
    for index, record in enumerate(trajectory.records):
        lo = max(0, index - half)
        hi = min(n, index + half + 1)
        filtered.append(
            record.moved(
                GeoPoint(float(reduce(lats[lo:hi])), float(reduce(lons[lo:hi])))
            )
        )
    return Trajectory(user=trajectory.user, records=tuple(filtered))


def rolling_median(trajectory: Trajectory, window: int) -> Trajectory:
    return _rolling(trajectory, window, np.median)


def rolling_mean(trajectory: Trajectory, window: int) -> Trajectory:
    return _rolling(trajectory, window, np.mean)


# ----------------------------------------------------------------------
# privacy/pois.py and the attack built on it
# ----------------------------------------------------------------------


def stay_points(trajectory: Trajectory, config: PoiExtractorConfig) -> list[StayPoint]:
    records = trajectory.records
    found: list[StayPoint] = []
    i = 0
    n = len(records)
    while i < n:
        anchor = records[i].point
        j = i + 1
        while j < n and haversine_m(anchor, records[j].point) <= config.roam_distance_m:
            j += 1
        span = records[j - 1].time - records[i].time
        if span >= config.min_dwell:
            found.append(
                StayPoint(
                    center=centroid([r.point for r in records[i:j]]),
                    start=records[i].time,
                    end=records[j - 1].time,
                    n_records=j - i,
                )
            )
            i = j
        else:
            i += 1
    return found


def cluster(stays: list[StayPoint], config: PoiExtractorConfig) -> list[Poi]:
    clusters: list[list[StayPoint]] = []
    for stay in stays:
        best: list[StayPoint] | None = None
        best_distance = config.merge_radius_m
        for members in clusters:
            distance = haversine_m(centroid([s.center for s in members]), stay.center)
            if distance <= best_distance:
                best = members
                best_distance = distance
        if best is None:
            clusters.append([stay])
        else:
            best.append(stay)
    pois = [
        Poi(
            center=centroid([s.center for s in members]),
            total_dwell=sum(s.dwell for s in members),
            n_visits=len(members),
        )
        for members in clusters
    ]
    pois = [p for p in pois if p.total_dwell >= config.min_total_dwell]
    return sorted(pois, key=lambda p: -p.total_dwell)


def poi_attack(
    dataset: MobilityDataset,
    denoise_window: int,
    config: PoiExtractorConfig | None = None,
    max_pois: int | None = 10,
) -> dict[str, list[Poi]]:
    """``PoiAttack.run``: split days, denoise, pool stay points, cluster."""
    config = config or PoiExtractorConfig()
    found = {}
    for trajectory in dataset:
        pooled: list[StayPoint] = []
        for day in trajectory.split_by_day(DAY):
            pooled.extend(stay_points(rolling_median(day, denoise_window), config))
        found[trajectory.user] = cluster(pooled, config)[:max_pois]
    return found


# ----------------------------------------------------------------------
# utility/heatmap.py, utility/traffic.py
# ----------------------------------------------------------------------


def presence_density(dataset: MobilityDataset, grid: SpatialGrid, time_step: float) -> np.ndarray:
    counts = np.zeros((grid.rows, grid.cols), dtype=float)
    for trajectory in dataset:
        if trajectory.duration <= 0:
            continue
        times = np.arange(trajectory.start_time, trajectory.end_time, time_step)
        for time in times:
            row, col = grid.cell_of(trajectory.point_at_time(float(time)))
            counts[row, col] += 1.0
    return counts


def footfall_density(dataset: MobilityDataset, grid: SpatialGrid, time_step: float) -> np.ndarray:
    counts = np.zeros((grid.rows, grid.cols), dtype=float)
    for trajectory in dataset:
        visited: set[CellIndex] = set()
        if trajectory.duration <= 0:
            visited.add(grid.cell_of(trajectory.records[0].point))
        else:
            times = np.arange(trajectory.start_time, trajectory.end_time, time_step)
            for time in times:
                visited.add(grid.cell_of(trajectory.point_at_time(float(time))))
        for row, col in visited:
            counts[row, col] += 1.0
    return counts


def traffic_matrix(
    dataset: MobilityDataset, grid: SpatialGrid, window: float, time_step: float
) -> np.ndarray:
    start = min(t.start_time for t in dataset)
    end = max(t.end_time for t in dataset)
    n_windows = max(1, int(np.ceil((end - start) / window)))
    matrix = np.zeros((grid.rows * grid.cols, n_windows), dtype=float)
    for trajectory in dataset:
        if trajectory.duration <= 0:
            continue
        times = np.arange(trajectory.start_time, trajectory.end_time, time_step)
        for time in times:
            row, col = grid.cell_of(trajectory.point_at_time(float(time)))
            window_index = min(int((time - start) // window), n_windows - 1)
            matrix[row * grid.cols + col, window_index] += 1.0
    return matrix


def transit_counts(dataset: MobilityDataset, grid: SpatialGrid, time_step: float) -> np.ndarray:
    counts = np.zeros(grid.rows * grid.cols, dtype=float)
    for trajectory in dataset:
        if trajectory.duration <= 0:
            continue
        times = np.arange(trajectory.start_time, trajectory.end_time, time_step)
        previous: tuple[int, int] | None = None
        for time in times:
            cell = grid.cell_of(trajectory.point_at_time(float(time)))
            if cell != previous:
                row, col = cell
                counts[row * grid.cols + col] += 1.0
                previous = cell
    return counts


# ----------------------------------------------------------------------
# privacy/metrics.py
# ----------------------------------------------------------------------


def mean_spatial_distortion_m(raw: Trajectory, protected: Trajectory) -> float:
    distances = []
    for record in raw.records:
        if not (protected.start_time <= record.time <= protected.end_time):
            continue
        distances.append(haversine_m(record.point, protected.point_at_time(record.time)))
    if not distances:
        return float("inf")
    return sum(distances) / len(distances)


def dataset_distortion_m(raw: MobilityDataset, protected: MobilityDataset) -> float:
    total = 0.0
    count = 0
    for trajectory in raw:
        if trajectory.user not in protected:
            continue
        shielded = protected.get(trajectory.user)
        for record in trajectory.records:
            if not (shielded.start_time <= record.time <= shielded.end_time):
                continue
            total += haversine_m(record.point, shielded.point_at_time(record.time))
            count += 1
    if count == 0:
        return float("inf")
    return total / count


# ----------------------------------------------------------------------
# Temporal downsampling and the deterministic halves of three mechanisms
# ----------------------------------------------------------------------


def temporal_downsampling(dataset: MobilityDataset, window: float) -> MobilityDataset:
    def protect(trajectory: Trajectory) -> Trajectory:
        kept = []
        current_window = None
        for record in trajectory.records:
            window_index = int(record.time // window)
            if window_index != current_window:
                kept.append(record)
                current_window = window_index
        return Trajectory(user=trajectory.user, records=tuple(kept))

    return dataset.map_trajectories(protect)


def spatial_cloaking(dataset: MobilityDataset, cell_size_m: float) -> MobilityDataset:
    grid = SpatialGrid(bbox=dataset.bounding_box.expanded(0.01), cell_size_m=cell_size_m)
    return dataset.map_trajectories(
        lambda trajectory: trajectory.map_points(lambda record: grid.snap(record.point))
    )


def k_anonymity_cloaking(
    dataset: MobilityDataset, k: int, base_cell_m: float, max_levels: int = 6
) -> MobilityDataset:
    bbox = dataset.bounding_box.expanded(0.01)
    grids = [SpatialGrid(bbox, base_cell_m * (2**level)) for level in range(max_levels)]
    user_counts = []
    for grid in grids:
        visitors: dict[tuple[int, int], set[str]] = {}
        for user, record in dataset.all_records():
            visitors.setdefault(grid.cell_of(record.point), set()).add(user)
        user_counts.append({cell: len(users) for cell, users in visitors.items()})

    def generalize(point: GeoPoint) -> GeoPoint | None:
        for grid, counts in zip(grids, user_counts):
            cell = grid.cell_of(point)
            if counts.get(cell, 0) >= k:
                return grid.center_of(cell)
        return None

    def protect(trajectory: Trajectory) -> Trajectory | None:
        kept = []
        for record in trajectory.records:
            generalized = generalize(record.point)
            if generalized is not None:
                kept.append(record.moved(generalized))
        if len(kept) < 2:
            return None
        return Trajectory(user=trajectory.user, records=tuple(kept))

    return dataset.map_trajectories(protect)


def geo_indistinguishability(
    dataset: MobilityDataset, epsilon: float, seed: int
) -> MobilityDataset:
    rng = np.random.default_rng(seed)

    def protect(trajectory: Trajectory) -> Trajectory:
        projection = LocalProjection(trajectory.bounding_box.center)
        n = len(trajectory)
        radii = rng.gamma(shape=2.0, scale=1.0 / epsilon, size=n)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        dxs = radii * np.cos(angles)
        dys = radii * np.sin(angles)
        records = tuple(
            record.moved(projection.translate(record.point, float(dx), float(dy)))
            for record, dx, dy in zip(trajectory.records, dxs, dys)
        )
        return Trajectory(user=trajectory.user, records=records)

    return dataset.map_trajectories(protect)
