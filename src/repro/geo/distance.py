"""Great-circle distances on the WGS-84 sphere approximation."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.geo.point import GeoPoint
from repro.units import EARTH_RADIUS_M


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in metres.

    Uses the haversine formula, which is numerically stable for the small
    (city-scale) distances this library mostly deals with.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_m_columns(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """:func:`haversine_m` over coordinate columns (broadcasting), in metres."""
    lat1 = np.radians(lat1)
    lat2 = np.radians(lat2)
    dlon = np.radians(lon2 - lon1)
    h = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def path_length_m(points: Sequence[GeoPoint] | Iterable[GeoPoint]) -> float:
    """Total polyline length of a sequence of points, in metres."""
    total = 0.0
    previous: GeoPoint | None = None
    for point in points:
        if previous is not None:
            total += haversine_m(previous, point)
        previous = point
    return total


def interpolate(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    """Linearly interpolate between two nearby points.

    Plain linear interpolation in degree space, which is accurate to well
    under a metre for the sub-100 km segments used here.  ``fraction`` = 0
    returns ``a``, 1 returns ``b``; values outside [0, 1] extrapolate.
    """
    return GeoPoint(
        lat=a.lat + (b.lat - a.lat) * fraction,
        lon=a.lon + (b.lon - a.lon) * fraction,
    )


def centroid(points: Sequence[GeoPoint]) -> GeoPoint:
    """Arithmetic centroid in degree space of a non-empty point sequence."""
    if not points:
        raise ValueError("centroid of empty point sequence")
    lat = sum(p.lat for p in points) / len(points)
    lon = sum(p.lon for p in points) / len(points)
    return GeoPoint(lat=lat, lon=lon)
