"""The audit's array kernels against the per-fix loops they replaced.

``tests/privacy/reference.py`` holds the loops; every test here runs a
kernel and its reference on the same input and demands the same answer —
bit for bit where the arithmetic per element is unchanged (rolling
filters, sampling, cell counts, mechanism coordinates), and within a
tolerance fixed by the dtype where only the summation order moved (stay
point centres, mean distortion).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import default_registry
from repro.geo.filtering import rolling_mean, rolling_median
from repro.geo.grid import SpatialGrid
from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.privacy.attacks import PoiAttack
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    KAnonymityCloakingMechanism,
    SpatialCloakingMechanism,
    TemporalDownsamplingMechanism,
)
from repro.privacy.metrics import dataset_distortion_m, mean_spatial_distortion_m
from repro.privacy.pois import PoiExtractor, PoiExtractorConfig
from repro.units import DAY
from repro.utility.heatmap import footfall_density, presence_density
from repro.utility.traffic import traffic_matrix, transit_counts
from tests.privacy import reference

SEEDS = (2014, 7919)
DENOISE_WINDOW = 9  # the audit's default attacker


def coordinates(dataset: MobilityDataset) -> list[tuple[str, float, float, float]]:
    """Every fix as exact floats (``==`` on these is bit-for-bit)."""
    return [(user, r.time, r.lat, r.lon) for user, r in dataset.all_records()]


def trajectory_of(lats: list[float], lons: list[float]) -> Trajectory:
    records = [
        Record(GeoPoint(lat, lon), 60.0 * i)
        for i, (lat, lon) in enumerate(zip(lats, lons))
    ]
    return Trajectory(user="u", records=tuple(records))


@pytest.fixture(scope="module", params=SEEDS)
def raw(request) -> MobilityDataset:
    """The e2e benchmark's population: 6 users x 3 days, 120 s fixes."""
    config = GeneratorConfig(n_users=6, n_days=3, sampling_period=120.0)
    return MobilityGenerator(config).generate(seed=request.param).dataset


@pytest.fixture(scope="module")
def releases(raw) -> dict[str, MobilityDataset]:
    """The raw dataset and what each stock mechanism makes of it."""
    datasets = {"raw": raw}
    for index, mechanism in enumerate(default_registry()):
        datasets[f"{index}-{mechanism.name}"] = mechanism.protect(raw, seed=11)
    return datasets


@pytest.fixture(scope="module")
def grid(raw) -> SpatialGrid:
    return SpatialGrid(raw.bounding_box.expanded(0.005), 500.0)


# ----------------------------------------------------------------------
# Rolling filters
# ----------------------------------------------------------------------


class TestRollingFilters:
    @settings(max_examples=150, deadline=None)
    @given(
        window=st.integers(0, 10).map(lambda k: 2 * k + 1),
        values=st.lists(
            st.tuples(
                st.floats(-89.0, 89.0, allow_nan=False),
                st.floats(-179.0, 179.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_bit_identical_to_per_fix_reduction(self, window, values):
        """Every odd window 1-21 on every length 1-40, which includes
        ``n < window`` (all windows truncated) and the ``n <= 2``
        pass-through."""
        trajectory = trajectory_of(*zip(*values))
        for kernel, oracle in (
            (rolling_median, reference.rolling_median),
            (rolling_mean, reference.rolling_mean),
        ):
            assert kernel(trajectory, window).records == oracle(trajectory, window).records

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_length_and_window(self, n):
        rng = np.random.default_rng(n)
        trajectory = trajectory_of(
            (44.8 + rng.normal(0, 0.01, n)).tolist(),
            (-0.58 + rng.normal(0, 0.01, n)).tolist(),
        )
        for window in range(1, 22, 2):
            assert (
                rolling_median(trajectory, window).records
                == reference.rolling_median(trajectory, window).records
            )
            assert (
                rolling_mean(trajectory, window).records
                == reference.rolling_mean(trajectory, window).records
            )

    def test_seeded_raw_and_noisy_days(self, releases):
        for name in ("raw", "2-geo-indistinguishability"):
            trajectory = next(iter(releases[name]))
            for day in trajectory.split_by_day(DAY):
                assert (
                    rolling_median(day, DENOISE_WINDOW).records
                    == reference.rolling_median(day, DENOISE_WINDOW).records
                )
                assert rolling_mean(day, 5).records == reference.rolling_mean(day, 5).records

    def test_column_slices_filter_like_trajectories(self, raw):
        """The attack filters bare day slices; same numbers either way."""
        trajectory = next(iter(raw))
        for day, columns in zip(trajectory.split_by_day(DAY), trajectory.day_columns(DAY)):
            filtered = rolling_median(columns, DENOISE_WINDOW)
            expected = rolling_median(day, DENOISE_WINDOW)
            assert np.array_equal(filtered.time, expected.time)
            assert np.array_equal(filtered.lat, expected.lat)
            assert np.array_equal(filtered.lon, expected.lon)


# ----------------------------------------------------------------------
# Column view and the sample-at-times kernel
# ----------------------------------------------------------------------


class TestColumnView:
    def test_columns_mirror_records_and_refuse_writes(self, raw):
        trajectory = next(iter(raw))
        time, lat, lon = trajectory.columns
        assert time.tolist() == [r.time for r in trajectory]
        assert lat.tolist() == [r.lat for r in trajectory]
        assert lon.tolist() == [r.lon for r in trajectory]
        assert trajectory.columns is trajectory.columns  # built once
        for column in (time, lat, lon, trajectory.day_columns(DAY)[0].lat):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_from_columns_round_trips_and_copies(self, raw):
        source = next(iter(raw))
        lat = source.lat.copy()
        rebuilt = Trajectory.from_columns("v", source.time, lat, source.lon)
        assert rebuilt.records == source.renamed("v").records
        lat[0] = 0.0  # the caller's array is not the trajectory's
        assert rebuilt.lat[0] == source.lat[0]

    def test_day_columns_match_split_by_day(self, raw):
        for trajectory in raw:
            days = trajectory.split_by_day(DAY)
            slices = trajectory.day_columns(DAY)
            assert len(days) == len(slices)
            for day, columns in zip(days, slices):
                assert columns.time.tolist() == [r.time for r in day]
                assert columns.lat.tolist() == [r.lat for r in day]

    def test_bounding_box_matches_the_point_walk(self, raw):
        from repro.geo.bbox import BoundingBox

        for trajectory in raw:
            assert trajectory.bounding_box == BoundingBox.around(trajectory.points)


class TestSampleAtTimes:
    def check(self, trajectory: Trajectory, times: np.ndarray) -> None:
        lat, lon = trajectory.sample(times)
        expected = [trajectory.point_at_time(float(t)) for t in times]
        assert lat.tolist() == [p.lat for p in expected]
        assert lon.tolist() == [p.lon for p in expected]

    def test_before_on_between_and_after_the_fixes(self, raw):
        trajectory = next(iter(raw))
        fixes = trajectory.time
        rng = np.random.default_rng(5)
        times = np.concatenate(
            [
                [fixes[0] - 1e6, fixes[0] - 1.0, fixes[0]],  # before / on the first
                fixes[1:200],  # exactly on fixes
                rng.uniform(fixes[0], fixes[-1], 500),  # between fixes
                np.nextafter(fixes[5:10], np.inf),
                np.nextafter(fixes[5:10], -np.inf),
                [fixes[-1], fixes[-1] + 1.0, fixes[-1] + 1e6],  # on / after the last
            ]
        )
        self.check(trajectory, times)

    def test_uniform_steps_on_every_release(self, releases):
        for dataset in releases.values():
            for trajectory in dataset:
                times = np.arange(trajectory.start_time, trajectory.end_time, 120.0)
                self.check(trajectory, times)

    def test_single_fix_and_no_instants(self):
        single = trajectory_of([44.8], [-0.58])
        self.check(single, np.array([-5.0, 0.0, 5.0]))
        lat, lon = single.sample(np.array([]))
        assert lat.size == 0 and lon.size == 0


# ----------------------------------------------------------------------
# Stay points, clustering, the attack
# ----------------------------------------------------------------------


class TestPoiExtraction:
    def test_stay_points_on_every_release(self, releases):
        extractor = PoiExtractor()
        n_stays = 0
        for dataset in releases.values():
            for trajectory in dataset:
                for day in trajectory.split_by_day(DAY):
                    found = extractor.stay_points(day)
                    expected = reference.stay_points(day, extractor.config)
                    assert [(s.start, s.end, s.n_records) for s in found] == [
                        (s.start, s.end, s.n_records) for s in expected
                    ]
                    for stay, oracle in zip(found, expected):
                        assert stay.center.lat == pytest.approx(oracle.center.lat, abs=1e-9)
                        assert stay.center.lon == pytest.approx(oracle.center.lon, abs=1e-9)
                    n_stays += len(found)
        assert n_stays > 100

    def test_cluster_running_sums_are_the_centroid(self, raw):
        """Fed the same stay points, clustering is exact: the running
        sums add in the order ``centroid`` did."""
        config = PoiExtractorConfig(merge_radius_m=150.0, min_total_dwell=1800.0)
        extractor = PoiExtractor(config)
        for trajectory in raw:
            stays = []
            for day in trajectory.split_by_day(DAY):
                stays.extend(reference.stay_points(day, config))
            assert extractor.cluster(stays) == reference.cluster(stays, config)

    def test_attack_finds_the_same_pois_on_every_release(self, releases):
        attack = PoiAttack(denoise_window=DENOISE_WINDOW)
        for name, dataset in releases.items():
            found = attack.run(dataset)
            expected = reference.poi_attack(dataset, DENOISE_WINDOW)
            assert list(found) == list(expected), name
            for user, pois in found.items():
                assert [(p.n_visits, p.total_dwell) for p in pois] == [
                    (p.n_visits, p.total_dwell) for p in expected[user]
                ], (name, user)
                for poi, oracle in zip(pois, expected[user]):
                    assert poi.center.lat == pytest.approx(oracle.center.lat, abs=1e-9)
                    assert poi.center.lon == pytest.approx(oracle.center.lon, abs=1e-9)


# ----------------------------------------------------------------------
# Density, flow and distortion measures
# ----------------------------------------------------------------------


class TestUtilityMeasures:
    def test_density_and_flow_counts_are_equal(self, releases, grid):
        for name, dataset in releases.items():
            if not len(dataset):
                continue
            assert np.array_equal(
                presence_density(dataset, grid, 300.0).counts,
                reference.presence_density(dataset, grid, 300.0),
            ), name
            assert np.array_equal(
                footfall_density(dataset, grid, 120.0).counts,
                reference.footfall_density(dataset, grid, 120.0),
            ), name
            assert np.array_equal(
                transit_counts(dataset, grid, 120.0),
                reference.transit_counts(dataset, grid, 120.0),
            ), name
            assert np.array_equal(
                traffic_matrix(dataset, grid, 1800.0, 300.0),
                reference.traffic_matrix(dataset, grid, 1800.0, 300.0),
            ), name

    def test_single_fix_traces_count_as_before(self, grid, raw):
        first = next(iter(raw))
        lone = MobilityDataset([Trajectory(user="lone", records=first.records[:1]), first])
        assert np.array_equal(
            footfall_density(lone, grid, 120.0).counts,
            reference.footfall_density(lone, grid, 120.0),
        )
        assert np.array_equal(
            presence_density(lone, grid, 300.0).counts,
            reference.presence_density(lone, grid, 300.0),
        )
        assert np.array_equal(
            transit_counts(lone, grid, 120.0), reference.transit_counts(lone, grid, 120.0)
        )

    def test_distortion_within_summation_order(self, releases):
        raw = releases["raw"]
        for name, dataset in releases.items():
            if not len(dataset):
                continue
            assert dataset_distortion_m(raw, dataset) == pytest.approx(
                reference.dataset_distortion_m(raw, dataset), rel=1e-9, abs=1e-6
            ), name
            user = dataset.users[0]
            assert mean_spatial_distortion_m(raw.get(user), dataset.get(user)) == pytest.approx(
                reference.mean_spatial_distortion_m(raw.get(user), dataset.get(user)),
                rel=1e-9,
                abs=1e-6,
            ), name


# ----------------------------------------------------------------------
# Mechanisms
# ----------------------------------------------------------------------


class TestMechanismCoordinates:
    def test_spatial_cloaking(self, raw):
        for cell_size_m in (400.0, 800.0):
            assert coordinates(
                SpatialCloakingMechanism(cell_size_m).protect(raw, seed=3)
            ) == coordinates(reference.spatial_cloaking(raw, cell_size_m))

    def test_k_anonymity_cloaking(self, raw):
        for k in (2, 4, 6):
            assert coordinates(
                KAnonymityCloakingMechanism(k=k, base_cell_m=250.0).protect(raw, seed=3)
            ) == coordinates(reference.k_anonymity_cloaking(raw, k, 250.0))

    def test_temporal_downsampling(self, raw):
        for window in (60.0, 120.0, 600.0, 1800.0, 3600.0):
            assert coordinates(
                TemporalDownsamplingMechanism(window).protect(raw, seed=3)
            ) == coordinates(reference.temporal_downsampling(raw, window))

    def test_temporal_downsampling_on_window_boundaries(self):
        # Fixes every 60 s from t=0: every window below starts on a fix.
        rng = np.random.default_rng(11)
        eager = trajectory_of(
            (44.8 + rng.uniform(0, 0.1, 400)).tolist(),
            (-0.6 + rng.uniform(0, 0.1, 400)).tolist(),
        )
        lazy = Trajectory.from_columns("u", eager.time, eager.lat, eager.lon)
        for window in (60.0, 90.0, 120.0, 300.0, 600.0, 1800.0, 3600.0):
            expected = coordinates(
                reference.temporal_downsampling(MobilityDataset([eager]), window)
            )
            for trajectory in (eager, lazy):
                protected = TemporalDownsamplingMechanism(window).protect(
                    MobilityDataset([trajectory])
                )
                assert coordinates(protected) == expected

    def test_geo_indistinguishability_same_draws_same_arithmetic(self, raw):
        for epsilon in (0.01, 0.001):
            assert coordinates(
                GeoIndistinguishabilityMechanism(epsilon).protect(raw, seed=3)
            ) == coordinates(reference.geo_indistinguishability(raw, epsilon, seed=3))
