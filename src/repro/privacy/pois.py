"""Point-of-interest extraction from mobility traces.

Implements the classic two-stage pipeline:

1. **Stay-point detection** (Hariharan & Toyama style): scan a trajectory
   for maximal record runs that remain within ``roam_distance_m`` of their
   first record and span at least ``min_dwell`` seconds.
2. **Stay-point clustering**: greedily merge stay points whose centroids
   lie within ``merge_radius_m`` into POIs, accumulating dwell time.

The same extractor serves the defender (auditing what a dataset leaks) and
the attacker (recovering POIs from a *protected* dataset) — which is
exactly why the paper's speed-smoothing strategy targets the temporal
signature this pipeline depends on.

Both stages read trace *columns* (``time``/``lat``/``lon`` arrays), so a
:class:`Trajectory` and the bare day slices the attack filters are the
same input and no ``Record`` is rebuilt between the day split and the
stay point.  The roam-gate scan is inherently sequential (each anchor
depends on where the previous stay ended); it runs over the columns with
the latitude terms of the haversine precomputed, takes each centre as
the mean of a column slice, and clustering keeps running centre sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import MechanismError
from repro.geo.distance import haversine_m
from repro.geo.point import GeoPoint
from repro.geo.trajectory import TraceColumns, Trajectory
from repro.units import EARTH_RADIUS_M, MINUTE


@dataclass(frozen=True)
class StayPoint:
    """A maximal dwell episode found in one trajectory."""

    center: GeoPoint
    start: float
    end: float
    n_records: int

    @property
    def dwell(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Poi:
    """A clustered point of interest: one or more stay points merged."""

    center: GeoPoint
    total_dwell: float
    n_visits: int


@dataclass(frozen=True)
class PoiExtractorConfig:
    """Thresholds of the extraction pipeline.

    The defaults (200 m roam gate, 15 min dwell gate, 100 m merge radius)
    match the values commonly used in the location-privacy literature and
    in the paper's companion work.
    """

    roam_distance_m: float = 200.0
    min_dwell: float = 15 * MINUTE
    merge_radius_m: float = 100.0
    #: POIs with less accumulated dwell than this are discarded.
    min_total_dwell: float = 0.0

    def __post_init__(self) -> None:
        if self.roam_distance_m <= 0:
            raise MechanismError(f"roam distance must be positive: {self.roam_distance_m}")
        if self.min_dwell <= 0:
            raise MechanismError(f"min dwell must be positive: {self.min_dwell}")
        if self.merge_radius_m < 0:
            raise MechanismError(f"merge radius must be >= 0: {self.merge_radius_m}")


@dataclass
class _Cluster:
    """Running sums of one POI under construction."""

    center: GeoPoint
    lat_sum: float = 0.0
    lon_sum: float = 0.0
    total_dwell: float = 0.0
    n_visits: int = 0

    def add(self, stay: StayPoint) -> None:
        self.lat_sum += stay.center.lat
        self.lon_sum += stay.center.lon
        self.total_dwell += stay.dwell
        self.n_visits += 1
        self.center = GeoPoint(self.lat_sum / self.n_visits, self.lon_sum / self.n_visits)


class PoiExtractor:
    """Extracts stay points and POIs from trajectories."""

    def __init__(self, config: PoiExtractorConfig | None = None):
        self.config = config or PoiExtractorConfig()

    # ------------------------------------------------------------------
    # Stage 1: stay points
    # ------------------------------------------------------------------

    def stay_points(self, trace: Trajectory | TraceColumns) -> list[StayPoint]:
        """Maximal dwell episodes of one trace, in time order."""
        roam = self.config.roam_distance_m
        min_dwell = self.config.min_dwell
        time = trace.time.tolist()
        lon = trace.lon.tolist()
        # haversine_m's terms that depend on one fix only, per fix.
        lat_rad = np.radians(trace.lat).tolist()
        cos_lat = list(map(math.cos, lat_rad))
        radians, sin, asin, sqrt = math.radians, math.sin, math.asin, math.sqrt
        stay_points: list[StayPoint] = []
        i = 0
        n = len(time)
        while i < n:
            anchor_lat, anchor_cos, anchor_lon = lat_rad[i], cos_lat[i], lon[i]
            j = i + 1
            while j < n:
                h = (
                    sin((lat_rad[j] - anchor_lat) / 2.0) ** 2
                    + anchor_cos * cos_lat[j] * sin(radians(lon[j] - anchor_lon) / 2.0) ** 2
                )
                if 2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(h))) > roam:
                    break
                j += 1
            # fixes [i, j) stay within the roam gate of fix i.
            if time[j - 1] - time[i] >= min_dwell:
                stay_points.append(
                    StayPoint(
                        center=GeoPoint(
                            float(trace.lat[i:j].mean()), float(trace.lon[i:j].mean())
                        ),
                        start=time[i],
                        end=time[j - 1],
                        n_records=j - i,
                    )
                )
                i = j
            else:
                i += 1
        return stay_points

    # ------------------------------------------------------------------
    # Stage 2: clustering
    # ------------------------------------------------------------------

    def cluster(self, stay_points: list[StayPoint]) -> list[Poi]:
        """Greedy centroid clustering of stay points into POIs.

        Returns POIs ordered by total dwell, descending, after applying the
        ``min_total_dwell`` filter.
        """
        clusters: list[_Cluster] = []
        for stay in stay_points:
            best: _Cluster | None = None
            best_distance = self.config.merge_radius_m
            for cluster in clusters:
                distance = haversine_m(cluster.center, stay.center)
                if distance <= best_distance:
                    best = cluster
                    best_distance = distance
            if best is None:
                best = _Cluster(stay.center)
                clusters.append(best)
            best.add(stay)

        pois = [
            Poi(center=c.center, total_dwell=c.total_dwell, n_visits=c.n_visits)
            for c in clusters
            if c.total_dwell >= self.config.min_total_dwell
        ]
        return sorted(pois, key=lambda p: -p.total_dwell)

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------

    def extract(self, trajectory: Trajectory) -> list[Poi]:
        """Stay-point detection + clustering for a single trajectory."""
        return self.cluster(self.stay_points(trajectory))

    def extract_many(self, traces: Sequence[Trajectory | TraceColumns]) -> list[Poi]:
        """Extraction across several traces of the *same* user.

        Stay points from all traces (e.g. the per-day pieces of a
        multi-day trace) are pooled before clustering, so recurring places
        accumulate dwell across days.
        """
        pooled: list[StayPoint] = []
        for trace in traces:
            pooled.extend(self.stay_points(trace))
        return self.cluster(pooled)
