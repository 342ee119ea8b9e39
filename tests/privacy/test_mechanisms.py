"""Unit tests common to all location-privacy mechanisms."""

import numpy as np
import pytest

from repro.errors import MechanismError
from repro.geo.distance import haversine_m
from repro.mobility.dataset import MobilityDataset
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    IdentityMechanism,
    KAnonymityCloakingMechanism,
    PoiSuppressionMechanism,
    SpatialCloakingMechanism,
    SpeedSmoothingMechanism,
    TemporalDownsamplingMechanism,
)

ALL_MECHANISMS = [
    IdentityMechanism(),
    GeoIndistinguishabilityMechanism(epsilon=0.01),
    SpatialCloakingMechanism(cell_size_m=300.0),
    TemporalDownsamplingMechanism(window=600.0),
    SpeedSmoothingMechanism(epsilon_m=100.0),
]


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS, ids=lambda m: m.name)
class TestMechanismContract:
    def test_protect_returns_dataset(self, mechanism, small_population):
        protected = mechanism.protect(small_population.dataset, seed=1)
        assert isinstance(protected, MobilityDataset)
        assert len(protected) <= len(small_population.dataset)

    def test_protect_deterministic_per_seed(self, mechanism, small_population):
        a = mechanism.protect(small_population.dataset, seed=5)
        b = mechanism.protect(small_population.dataset, seed=5)
        assert a.users == b.users
        for user in a.users:
            assert a.get(user).records == b.get(user).records

    def test_protected_users_subset(self, mechanism, small_population):
        protected = mechanism.protect(small_population.dataset, seed=1)
        assert set(protected.users) <= set(small_population.dataset.users)

    def test_describe_has_name(self, mechanism):
        description = mechanism.describe()
        assert description["mechanism"] == mechanism.name

    def test_times_stay_within_original_span(self, mechanism, small_population):
        protected = mechanism.protect(small_population.dataset, seed=1)
        for trajectory in protected:
            original = small_population.dataset.get(trajectory.user)
            assert trajectory.start_time >= original.start_time - 1e-6
            assert trajectory.end_time <= original.end_time + 1e-6


class TestIdentity:
    def test_exact_passthrough(self, small_population):
        protected = IdentityMechanism().protect(small_population.dataset)
        for trajectory in protected:
            original = small_population.dataset.get(trajectory.user)
            assert trajectory.records == original.records


class TestGeoIndistinguishability:
    def test_invalid_epsilon(self):
        with pytest.raises(MechanismError):
            GeoIndistinguishabilityMechanism(epsilon=0.0)

    def test_from_radius(self):
        import math

        mechanism = GeoIndistinguishabilityMechanism.from_radius(math.log(4), 200.0)
        assert mechanism.epsilon == pytest.approx(math.log(4) / 200.0)
        with pytest.raises(MechanismError):
            GeoIndistinguishabilityMechanism.from_radius(1.0, 0.0)

    def test_mean_displacement_matches_theory(self, small_population):
        epsilon = 0.01
        mechanism = GeoIndistinguishabilityMechanism(epsilon)
        trajectory = small_population.dataset.get(small_population.dataset.users[0])
        protected = mechanism.protect_trajectory(trajectory, np.random.default_rng(3))
        displacements = [
            haversine_m(a.point, b.point)
            for a, b in zip(trajectory.records, protected.records)
        ]
        assert np.mean(displacements) == pytest.approx(
            mechanism.expected_displacement_m(), rel=0.1
        )

    def test_record_count_preserved(self, small_population):
        protected = GeoIndistinguishabilityMechanism(0.01).protect(
            small_population.dataset, seed=2
        )
        assert protected.n_records == small_population.dataset.n_records

    def test_smaller_epsilon_more_noise(self, small_population):
        trajectory = small_population.dataset.get(small_population.dataset.users[0])

        def mean_displacement(epsilon: float) -> float:
            mechanism = GeoIndistinguishabilityMechanism(epsilon)
            protected = mechanism.protect_trajectory(
                trajectory, np.random.default_rng(4)
            )
            return float(
                np.mean(
                    [
                        haversine_m(a.point, b.point)
                        for a, b in zip(trajectory.records, protected.records)
                    ]
                )
            )

        assert mean_displacement(0.001) > mean_displacement(0.01) * 5


class TestSpatialCloaking:
    def test_invalid_cell(self):
        with pytest.raises(MechanismError):
            SpatialCloakingMechanism(cell_size_m=-1.0)

    def test_positions_quantized(self, small_population):
        mechanism = SpatialCloakingMechanism(cell_size_m=400.0)
        protected = mechanism.protect(small_population.dataset, seed=1)
        distinct = {
            (round(r.lat, 7), round(r.lon, 7))
            for _, r in protected.all_records()
        }
        raw_distinct = {
            (round(r.lat, 7), round(r.lon, 7))
            for _, r in small_population.dataset.all_records()
        }
        assert len(distinct) < len(raw_distinct) and len(distinct) < 2000

    def test_displacement_bounded_by_cell_diagonal(self, small_population):
        cell = 400.0
        mechanism = SpatialCloakingMechanism(cell_size_m=cell)
        protected = mechanism.protect(small_population.dataset, seed=1)
        for user in protected.users:
            raw = small_population.dataset.get(user)
            cloaked = protected.get(user)
            for a, b in zip(raw.records, cloaked.records):
                assert haversine_m(a.point, b.point) <= cell * 0.71 + 1.0

    def test_shared_grid_across_users(self, small_population):
        # Dataset-level protection must anchor one grid for all users:
        # identical raw positions from different users cloak identically.
        mechanism = SpatialCloakingMechanism(cell_size_m=400.0)
        protected = mechanism.protect(small_population.dataset, seed=1)
        assert len(protected) == len(small_population.dataset)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: GeoIndistinguishabilityMechanism(epsilon=NAN),
        lambda: GeoIndistinguishabilityMechanism.from_radius(1.0, radius_m=NAN),
        lambda: KAnonymityCloakingMechanism(base_cell_m=NAN),
        lambda: PoiSuppressionMechanism(erase_radius_m=NAN),
        lambda: SpatialCloakingMechanism(cell_size_m=NAN),
        lambda: SpeedSmoothingMechanism(epsilon_m=NAN),
        lambda: TemporalDownsamplingMechanism(window=NAN),
    ],
    ids=[
        "geo-indistinguishability", "geo-indistinguishability-radius",
        "k-anonymity", "poi-suppression", "spatial-cloaking",
        "speed-smoothing", "temporal-downsampling",
    ],
)
def test_nan_parameter_refused_at_construction(build):
    with pytest.raises(MechanismError, match="must be positive: nan"):
        build()


class TestTemporalDownsampling:
    def test_invalid_window(self):
        with pytest.raises(MechanismError):
            TemporalDownsamplingMechanism(window=0.0)

    def test_at_most_one_record_per_window(self, small_population):
        window = 600.0
        mechanism = TemporalDownsamplingMechanism(window=window)
        protected = mechanism.protect(small_population.dataset, seed=1)
        for trajectory in protected:
            windows = [int(r.time // window) for r in trajectory]
            assert len(windows) == len(set(windows))

    def test_thins_records(self, small_population):
        mechanism = TemporalDownsamplingMechanism(window=600.0)
        protected = mechanism.protect(small_population.dataset, seed=1)
        assert protected.n_records < small_population.dataset.n_records / 3

    def test_positions_untouched(self, small_population):
        mechanism = TemporalDownsamplingMechanism(window=600.0)
        protected = mechanism.protect(small_population.dataset, seed=1)
        raw_positions = {
            (r.time, r.lat, r.lon) for _, r in small_population.dataset.all_records()
        }
        for _, record in protected.all_records():
            assert (record.time, record.lat, record.lon) in raw_positions
