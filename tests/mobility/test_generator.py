"""Unit tests for the mobility generator."""

import numpy as np
import pytest

from repro.errors import GeoError
from repro.geo.distance import haversine_m
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.units import DAY, HOUR


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"n_days": 0},
            {"sampling_period": 0.0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"sampling_period": float("nan")},
            {"gps_noise_m": -1.0},
            {"gps_noise_m": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(GeoError):
            GeneratorConfig(**kwargs)


class TestGeneration:
    def test_population_size(self, small_population):
        assert len(small_population.dataset) == 5
        assert len(small_population.profiles) == 5
        assert len(small_population.truth.users) == 5

    def test_deterministic_per_seed(self):
        config = GeneratorConfig(n_users=2, n_days=1)
        a = MobilityGenerator(config).generate(seed=7)
        b = MobilityGenerator(config).generate(seed=7)
        ta = a.dataset.get("user-0000")
        tb = b.dataset.get("user-0000")
        assert ta.records == tb.records

    def test_different_seeds_differ(self):
        config = GeneratorConfig(n_users=2, n_days=1)
        a = MobilityGenerator(config).generate(seed=7)
        b = MobilityGenerator(config).generate(seed=8)
        assert a.dataset.get("user-0000").records != b.dataset.get("user-0000").records

    def test_trace_spans_requested_days(self, small_population):
        for trajectory in small_population.dataset:
            assert trajectory.start_time >= 0.0
            assert trajectory.end_time <= 3 * DAY
            assert trajectory.duration > 2 * DAY  # covers most of the span

    def test_record_rate_respects_sampling_and_dropout(self, small_population):
        config = GeneratorConfig(n_users=5, n_days=3, sampling_period=120.0)
        expected = 3 * DAY / config.sampling_period
        for trajectory in small_population.dataset:
            assert len(trajectory) == pytest.approx(expected, rel=0.1)

    def test_dropout_thins_records(self):
        base = GeneratorConfig(n_users=2, n_days=1, dropout=0.0)
        thinned = GeneratorConfig(n_users=2, n_days=1, dropout=0.5)
        full = MobilityGenerator(base).generate(seed=3)
        half = MobilityGenerator(thinned).generate(seed=3)
        n_full = full.dataset.n_records
        n_half = half.dataset.n_records
        assert n_half == pytest.approx(n_full * 0.5, rel=0.1)

    def test_gps_noise_scale(self):
        # With all-day home stays, fixes should scatter ~noise around home.
        config = GeneratorConfig(n_users=3, n_days=2, gps_noise_m=10.0)
        population = MobilityGenerator(config).generate(seed=21)
        for user, profile in population.profiles.items():
            trajectory = population.dataset.get(user)
            night = trajectory.slice_time(0, 4 * HOUR)  # everyone is home then
            assert night is not None
            errors = [haversine_m(r.point, profile.home) for r in night]
            assert np.mean(errors) < 50.0


class TestGroundTruth:
    def test_every_user_has_home_and_work_visits(self, small_population):
        for user, truth in small_population.truth.users.items():
            labels = {visit.label for visit in truth.visits}
            assert "home" in labels
            profile = small_population.profiles[user]
            assert truth.home == profile.home
            assert truth.work == profile.work

    def test_visits_ordered_within_days(self, small_population):
        for truth in small_population.truth.users.values():
            for visit in truth.visits:
                assert visit.end > visit.start

    def test_pois_ranked_by_dwell(self, small_population):
        for user in small_population.dataset.users:
            truth = small_population.truth.users[user]
            pois = truth.pois()
            # Home dominates dwell (all nights), so it must rank first.
            assert pois[0] == truth.home

    def test_min_dwell_filter(self, small_population):
        for user in small_population.dataset.users:
            all_pois = small_population.truth.pois_of(user)
            long_pois = small_population.truth.pois_of(user, min_total_dwell=10 * HOUR)
            assert set(long_pois) <= set(all_pois)

    def test_match_rate_bounds(self, small_population):
        truth = small_population.truth
        user = small_population.dataset.users[0]
        pois = truth.pois_of(user)
        assert truth.match_rate(user, pois, radius_m=1.0) == 1.0
        assert truth.match_rate(user, [], radius_m=100.0) == 0.0


class TestProfiles:
    def test_distinct_home_work_pairs(self, medium_population):
        pairs = {
            (profile.home, profile.work)
            for profile in medium_population.profiles.values()
        }
        assert len(pairs) == len(medium_population.profiles)

    def test_leisure_venues_from_city(self, small_population):
        city_leisure = set(small_population.city.leisure)
        for profile in small_population.profiles.values():
            assert set(profile.leisure) <= city_leisure
