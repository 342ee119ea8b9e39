"""On-device privacy filters (the paper's first privacy layer).

Filters process each sample *before* it enters the upload buffer, so
vetoed data never leaves the device.  A filter returns the (possibly
modified) value map, or ``None`` to drop the sample entirely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from repro.geo.distance import haversine_m
from repro.geo.grid import SpatialGrid
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.apisense.preferences import UserPreferences

Sample = Mapping[str, object]


class PrivacyFilter(ABC):
    """One on-device sample filter."""

    @abstractmethod
    def apply(self, values: Sample, time: float) -> Sample | None:
        """Return filtered values, or ``None`` to drop the sample."""


class QuietHoursFilter(PrivacyFilter):
    """Drops every sample inside the user's quiet windows."""

    def __init__(self, preferences: UserPreferences):
        self._preferences = preferences

    def apply(self, values: Sample, time: float) -> Sample | None:
        if self._preferences.in_quiet_hours(time):
            return None
        return values


class AreaFenceFilter(PrivacyFilter):
    """Drops samples taken inside any forbidden zone.

    Only applies when the sample carries a position; tasks without GPS
    cannot leak location, so they pass.
    """

    def __init__(self, zones: tuple[tuple[GeoPoint, float], ...]):
        self._zones = zones

    def apply(self, values: Sample, time: float) -> Sample | None:
        position = values.get("gps")
        if not isinstance(position, GeoPoint) or not self._zones:
            return values
        for center, radius in self._zones:
            if haversine_m(position, center) <= radius:
                return None
        return values


class LocationBlurFilter(PrivacyFilter):
    """Snaps GPS readings to a coarse grid before upload.

    The grid is anchored on a fixed reference so blurring is stable
    across samples (a wandering anchor would leak more, not less).
    """

    #: Grid anchor; any fixed point works since only cell pitch matters.
    _ANCHOR = BoundingBox(south=-85.0, west=-180.0, north=85.0, east=180.0)

    def __init__(self, cell_m: float):
        self._cell_m = cell_m
        self._grid: SpatialGrid | None = None

    def apply(self, values: Sample, time: float) -> Sample | None:
        position = values.get("gps")
        if not isinstance(position, GeoPoint) or self._cell_m <= 0:
            return values
        # Anchor a small local grid lazily around the first observed fix;
        # pitch is what matters for the blur guarantee.
        if self._grid is None:
            box = BoundingBox(
                south=position.lat - 0.5,
                west=position.lon - 0.5,
                north=position.lat + 0.5,
                east=position.lon + 0.5,
            )
            self._grid = SpatialGrid(bbox=box, cell_size_m=self._cell_m)
        blurred = dict(values)
        blurred["gps"] = self._grid.snap(position)
        return blurred


class FieldDropFilter(PrivacyFilter):
    """Removes named fields from every sample (e.g. sensitive sensors)."""

    def __init__(self, fields: frozenset[str]):
        self._fields = fields

    def apply(self, values: Sample, time: float) -> Sample | None:
        if not self._fields:
            return values
        kept = {k: v for k, v in values.items() if k not in self._fields}
        return kept if kept else None


class PrivacyFilterChain(PrivacyFilter):
    """Sequential composition; the first ``None`` wins (sample dropped)."""

    def __init__(self, filters: list[PrivacyFilter]):
        self._filters = filters

    @property
    def reads_samples(self) -> bool:
        """Whether a filter looks at a sample's values, not only its time."""
        return any(not isinstance(f, QuietHoursFilter) for f in self._filters)

    def apply(self, values: Sample, time: float) -> Sample | None:
        current: Sample | None = values
        for privacy_filter in self._filters:
            if current is None:
                return None
            current = privacy_filter.apply(current, time)
        return current

    @classmethod
    def from_preferences(cls, preferences: UserPreferences) -> "PrivacyFilterChain":
        """Compile a user's preferences into the device filter chain: a
        filter for each preference the user set, none for one left empty."""
        filters: list[PrivacyFilter] = []
        if preferences.quiet_hours:
            filters.append(QuietHoursFilter(preferences))
        if preferences.forbidden_zones:
            filters.append(AreaFenceFilter(preferences.forbidden_zones))
        if preferences.blur_cell_m > 0:
            filters.append(LocationBlurFilter(preferences.blur_cell_m))
        return cls(filters)
