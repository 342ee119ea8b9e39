"""Geo-indistinguishability: the state-of-the-art baseline of the paper.

Implements the planar Laplace mechanism of Andrés et al. (CCS'13), the
mechanism the paper's reference [3] (Primault et al., MOST'14) evaluates
and finds wanting: applied at usable privacy budgets it perturbs each fix
independently, so dwell episodes survive as dense noisy clouds around the
true stop and POI extraction still succeeds — the "at least 60 % of POIs
re-identified" claim reproduced by experiment E2.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MechanismError
from repro.geo.projection import LocalProjection
from repro.geo.trajectory import Trajectory
from repro.privacy.mechanisms.base import LocationPrivacyMechanism


class GeoIndistinguishabilityMechanism(LocationPrivacyMechanism):
    """Planar Laplace noise, calibrated by ``epsilon`` (in 1/metres).

    Each fix is displaced by a polar-Laplace sample: angle uniform in
    [0, 2pi), radius Gamma(shape=2, scale=1/epsilon) — the exact radial
    law of the planar Laplace distribution.  Smaller epsilon = more noise.
    """

    name = "geo-indistinguishability"

    def __init__(self, epsilon: float):
        if not (epsilon > 0):
            raise MechanismError(f"epsilon must be positive: {epsilon}")
        self.epsilon = epsilon

    @classmethod
    def from_radius(cls, level: float, radius_m: float) -> "GeoIndistinguishabilityMechanism":
        """Calibrate from the (l, r) formulation of geo-indistinguishability.

        ``level`` is the privacy level to guarantee within ``radius_m``
        metres; the resulting budget is ``epsilon = level / radius_m``.
        E.g. ``from_radius(math.log(4), 200)`` protects each fix within a
        200 m disc at level ln(4).
        """
        if not (radius_m > 0):
            raise MechanismError(f"radius must be positive: {radius_m}")
        return cls(epsilon=level / radius_m)

    def expected_displacement_m(self) -> float:
        """Mean displacement of one fix: E[Gamma(2, 1/eps)] = 2/eps."""
        return 2.0 / self.epsilon

    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory:
        projection = LocalProjection(trajectory.bounding_box.center)
        n = len(trajectory)
        radii = rng.gamma(shape=2.0, scale=1.0 / self.epsilon, size=n)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        x, y = projection.to_xy_columns(trajectory.lat, trajectory.lon)
        return trajectory.with_positions(
            *projection.to_point_columns(
                x + radii * np.cos(angles), y + radii * np.sin(angles)
            )
        )
