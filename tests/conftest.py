"""Shared fixtures: small deterministic populations and geometry helpers.

Expensive fixtures are session-scoped; tests treat them as read-only.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.mobility.city import City, CityConfig
from repro.mobility.generator import GeneratorConfig, MobilityGenerator, PopulationData

# Tier-1 must give the same verdict on the same commit: property tests
# draw the same examples every run (a fresh random search had a ~4 %
# chance per run of finding test_merge_error_bounded_uniform's rare
# small-sample miss, on any commit).
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

#: City-centre reference used across unit tests (Bordeaux).
CENTER = GeoPoint(44.8378, -0.5792)


@pytest.fixture(scope="session")
def small_population() -> PopulationData:
    """5 users x 3 days, 2-minute sampling: fast but structurally real."""
    config = GeneratorConfig(n_users=5, n_days=3, sampling_period=120.0)
    return MobilityGenerator(config).generate(seed=1234)


@pytest.fixture(scope="session")
def medium_population() -> PopulationData:
    """12 users x 6 days: enough structure for attack/utility tests."""
    config = GeneratorConfig(n_users=12, n_days=6, sampling_period=120.0)
    return MobilityGenerator(config).generate(seed=99)


@pytest.fixture(scope="session")
def test_city() -> City:
    return City.generate(CityConfig(), np.random.default_rng(7))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


class Calls(Counter):
    """How often each shimmed function ran since the last ``clear()``.

    A count reads the same on every host and every run, where a
    wall-clock budget could not tell a 3x regression from a busy
    machine: cost and scaling claims are pinned as counts of calls.
    """

    def shim(self, monkeypatch, owner, name: str) -> None:
        """Count calls of ``owner.name``, then run the real thing."""
        real = getattr(owner, name)
        key = name.lstrip("_")

        def counted(*args, **kwargs):
            self[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.fixture()
def calls() -> Calls:
    return Calls()


def make_trajectory(
    user: str = "u",
    points: list[tuple[float, float]] | None = None,
    times: list[float] | None = None,
) -> Trajectory:
    """Helper building a trajectory from (lat, lon) pairs and times."""
    if points is None:
        points = [(44.83, -0.58), (44.84, -0.57), (44.85, -0.56)]
    if times is None:
        times = [float(60 * i) for i in range(len(points))]
    records = [
        Record(point=GeoPoint(lat, lon), time=t)
        for (lat, lon), t in zip(points, times)
    ]
    return Trajectory(user=user, records=tuple(records))


@pytest.fixture()
def straight_line_trajectory() -> Trajectory:
    """A 10-point straight south-north line, one fix per minute."""
    points = [(44.80 + 0.001 * i, -0.58) for i in range(10)]
    return make_trajectory(points=points, times=[60.0 * i for i in range(10)])
