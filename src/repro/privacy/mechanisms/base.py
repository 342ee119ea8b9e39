"""Common interface of location-privacy mechanisms."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.units import DAY


class LocationPrivacyMechanism(ABC):
    """Transforms trajectories to reduce what they leak.

    Subclasses implement :meth:`protect_trajectory`; the default
    :meth:`protect` maps it over a whole dataset.  Mechanisms that operate
    on bounded time windows (the paper smooths "typically one day of
    data") set :attr:`per_day` so the dataset driver splits trajectories
    into days, protects each day, and re-assembles the user's trace.

    Mechanisms are deterministic given the seed passed to :meth:`protect`,
    which keeps every experiment reproducible.
    """

    #: Human-readable mechanism name used in reports and registries.
    name: str = "abstract"
    #: Whether :meth:`protect` should feed the mechanism one day at a time.
    per_day: bool = False

    @abstractmethod
    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory | None:
        """Protect one trajectory; ``None`` suppresses it entirely."""

    def protect(self, dataset: MobilityDataset, seed: int = 0) -> MobilityDataset:
        """Protect every trajectory of a dataset.

        Users whose whole trace is suppressed simply disappear from the
        output dataset (suppression is a legitimate mechanism outcome).
        """
        rng = np.random.default_rng(seed)
        if not self.per_day:
            return dataset.map_trajectories(
                lambda trajectory: self.protect_trajectory(trajectory, rng)
            )
        return dataset.map_trajectories(
            lambda trajectory: self._protect_per_day(trajectory, rng)
        )

    def _protect_per_day(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory | None:
        protected = (self.protect_trajectory(day, rng) for day in trajectory.split_by_day(DAY))
        days = [day.columns for day in protected if day is not None]
        if not days:
            return None
        return Trajectory.from_unsorted_columns(trajectory.user, *np.concatenate(days, axis=1))

    def describe(self) -> dict[str, object]:
        """Mechanism name and parameters, for publication reports."""
        params = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_")
        }
        return {"mechanism": self.name, **params}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"
