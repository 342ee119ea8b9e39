"""Privacy metrics: what an adversary recovers, and at what distortion."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.geo.distance import haversine_m, haversine_m_columns
from repro.geo.point import GeoPoint
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.privacy.pois import Poi


def _as_points(found: Sequence[Poi] | Sequence[GeoPoint]) -> list[GeoPoint]:
    return [p.center if isinstance(p, Poi) else p for p in found]


def poi_recall(
    true_pois: Sequence[GeoPoint],
    found: Sequence[Poi] | Sequence[GeoPoint],
    radius_m: float = 200.0,
) -> float:
    """Fraction of true POIs recovered within ``radius_m`` by ``found``.

    This is the paper's headline privacy measure ("re-identify at least
    60 % of the points of interest").  Returns 0 for an empty truth set.
    """
    if not true_pois:
        return 0.0
    candidates = _as_points(found)
    recovered = sum(
        1
        for truth in true_pois
        if any(haversine_m(truth, candidate) <= radius_m for candidate in candidates)
    )
    return recovered / len(true_pois)


def poi_precision(
    true_pois: Sequence[GeoPoint],
    found: Sequence[Poi] | Sequence[GeoPoint],
    radius_m: float = 200.0,
) -> float:
    """Fraction of found POIs that match some true POI within ``radius_m``."""
    candidates = _as_points(found)
    if not candidates:
        return 0.0
    matched = sum(
        1
        for candidate in candidates
        if any(haversine_m(truth, candidate) <= radius_m for truth in true_pois)
    )
    return matched / len(candidates)


def poi_f1(
    true_pois: Sequence[GeoPoint],
    found: Sequence[Poi] | Sequence[GeoPoint],
    radius_m: float = 200.0,
) -> float:
    """Harmonic mean of POI recall and precision."""
    recall = poi_recall(true_pois, found, radius_m)
    precision = poi_precision(true_pois, found, radius_m)
    if recall + precision == 0:
        return 0.0
    return 2 * recall * precision / (recall + precision)


def reidentification_rate(
    secret_mapping: Mapping[str, str],
    guesses: Mapping[str, str | None],
) -> float:
    """Fraction of pseudonyms correctly linked back to their user.

    ``secret_mapping`` is the platform's private ``pseudonym -> user``
    table; ``guesses`` maps pseudonyms to the attacker's answers (``None``
    = abstained, counted as a miss).
    """
    if not secret_mapping:
        return 0.0
    correct = sum(
        1
        for pseudonym, user in secret_mapping.items()
        if guesses.get(pseudonym) == user
    )
    return correct / len(secret_mapping)


def _distortions_m(raw: Trajectory, protected: Trajectory) -> np.ndarray:
    """Distance from each raw fix inside the protected trace's time span
    to the protected path's (interpolated) position at that instant."""
    time, lat, lon = raw.columns
    covered = (protected.start_time <= time) & (time <= protected.end_time)
    return haversine_m_columns(
        lat[covered], lon[covered], *protected.sample(time[covered])
    )


def mean_spatial_distortion_m(raw: Trajectory, protected: Trajectory) -> float:
    """Mean distance between the raw fix and the protected path at the
    same instant.

    Utility cost of a mechanism at the trajectory level: for every raw
    record inside the protected trace's time span, measure the distance to
    the protected trajectory's (interpolated) position at that time.
    """
    distances = _distortions_m(raw, protected)
    if not distances.size:
        return float("inf")
    return float(distances.sum()) / distances.size


def dataset_distortion_m(raw: MobilityDataset, protected: MobilityDataset) -> float:
    """Record-weighted mean spatial distortion across common users.

    Users suppressed by the mechanism do not contribute (their privacy is
    perfect and their utility zero; suppression is reported separately).
    """
    total = 0.0
    count = 0
    for trajectory in raw:
        if trajectory.user not in protected:
            continue
        distances = _distortions_m(trajectory, protected.get(trajectory.user))
        total += float(distances.sum())
        count += distances.size
    if count == 0:
        return float("inf")
    return total / count


def suppression_rate(raw: MobilityDataset, protected: MobilityDataset) -> float:
    """Fraction of users whose whole trace the mechanism suppressed."""
    if len(raw) == 0:
        return 0.0
    kept = sum(1 for trajectory in raw if trajectory.user in protected)
    return 1.0 - kept / len(raw)
