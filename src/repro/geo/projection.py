"""Local East-North-Up projection for metre-space geometry.

Privacy mechanisms (planar Laplace noise, speed smoothing) are defined in
Euclidean metre space.  At city scale an equirectangular projection around
a reference point is accurate to centimetres, which is far below GPS noise,
so we use it instead of a full geodesic library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.point import GeoPoint
from repro.units import EARTH_RADIUS_M


@dataclass(frozen=True)
class LocalProjection:
    """Projects WGS-84 coordinates to (x, y) metres around ``origin``.

    ``x`` grows eastward, ``y`` northward.  The inverse transform is exact
    with respect to the forward one, so round-trips are lossless up to
    floating-point error.
    """

    origin: GeoPoint

    @property
    def _cos_lat0(self) -> float:
        return math.cos(math.radians(self.origin.lat))

    def to_xy(self, point: GeoPoint) -> tuple[float, float]:
        """Project a geographic point to local metres."""
        x = math.radians(point.lon - self.origin.lon) * EARTH_RADIUS_M * self._cos_lat0
        y = math.radians(point.lat - self.origin.lat) * EARTH_RADIUS_M
        return (x, y)

    def to_xy_columns(self, lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`to_xy` over coordinate columns, value for value."""
        x = np.radians(lon - self.origin.lon) * EARTH_RADIUS_M * self._cos_lat0
        y = np.radians(lat - self.origin.lat) * EARTH_RADIUS_M
        return (x, y)

    def to_point(self, x: float, y: float) -> GeoPoint:
        """Inverse projection from local metres back to WGS-84."""
        lat = self.origin.lat + math.degrees(y / EARTH_RADIUS_M)
        lon = self.origin.lon + math.degrees(x / (EARTH_RADIUS_M * self._cos_lat0))
        return GeoPoint(lat=lat, lon=lon)

    def to_point_columns(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`to_point` over metre columns: ``(lat, lon)``, value for value."""
        lat = self.origin.lat + np.degrees(y / EARTH_RADIUS_M)
        lon = self.origin.lon + np.degrees(x / (EARTH_RADIUS_M * self._cos_lat0))
        return (lat, lon)

    def translate(self, point: GeoPoint, dx: float, dy: float) -> GeoPoint:
        """Shift ``point`` by (dx, dy) metres in the local frame."""
        x, y = self.to_xy(point)
        return self.to_point(x + dx, y + dy)
