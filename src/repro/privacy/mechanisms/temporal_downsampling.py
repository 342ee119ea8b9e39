"""Temporal downsampling: publish at most one fix per time window."""

from __future__ import annotations

import numpy as np

from repro.errors import MechanismError
from repro.geo.trajectory import Trajectory
from repro.privacy.mechanisms.base import LocationPrivacyMechanism


class TemporalDownsamplingMechanism(LocationPrivacyMechanism):
    """Keeps the first fix of every ``window`` seconds, dropping the rest.

    Coarsening the sampling rate weakens dwell evidence (fewer records per
    stop) at a proportional cost in temporal resolution.  It is the
    simplest member of the registry and a useful lower bound: it degrades
    everything uniformly instead of targeting POIs.
    """

    name = "temporal-downsampling"

    def __init__(self, window: float):
        if not (window > 0):
            raise MechanismError(f"window must be positive: {window}")
        self.window = window

    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory:
        time, lat, lon = trajectory.columns
        first = np.diff(time // self.window, prepend=np.nan) != 0  # first fix of each window
        return Trajectory.from_columns(trajectory.user, time[first], lat[first], lon[first])
