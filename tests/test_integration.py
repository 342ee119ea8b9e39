"""Cross-module integration tests: the paper's claims, end to end.

Each test here corresponds to a claim from the paper (see DESIGN.md's
experiment index); the full parameter sweeps live in ``benchmarks/``.
"""

import pytest

from repro.apisense.campaign import Campaign, CampaignConfig
from repro.apisense.incentives import WinWinIncentive
from repro.apisense.tasks import SensingTask
from repro.core import (
    CrowdedPlacesObjective,
    PrivacyRequirement,
    PrivApi,
    TrafficFlowObjective,
)
from repro.crypto import DeviceContributor, ObliviousAggregator, QueryCoordinator
from repro.privacy import (
    GeoIndistinguishabilityMechanism,
    PoiAttack,
    ReidentificationAttack,
    SpeedSmoothingMechanism,
    poi_recall,
    reidentification_rate,
)
from repro.units import DAY, HOUR


class TestE1PlatformPipeline:
    """Figure 1: Honeycomb -> Hive -> devices -> Honeycomb -> PRIVAPI."""

    def test_collected_data_flows_into_privapi(self, small_population):
        campaign = Campaign(
            small_population,
            incentive=WinWinIncentive(),
            config=CampaignConfig(n_days=2, seed=11),
        )
        honeycomb = campaign.deploy(
            SensingTask(
                name="study",
                sensors=("gps",),
                sampling_period=120.0,
                upload_period=1800.0,
                end=2 * DAY,
            )
        )
        campaign.run()
        collected = honeycomb.mobility_dataset("study")
        assert len(collected) >= 2

        # A 2-day, 5-user sample is tiny; the 250 m smoothing step keeps
        # the trimmed path ends far enough from homes to clear the bar.
        result = PrivApi(
            mechanisms=[SpeedSmoothingMechanism(250.0)], seed=1
        ).publish(collected, PrivacyRequirement(max_poi_recall=0.3))
        assert result.dataset is not None
        assert result.report.chosen is not None


class TestE2GeoIndLeaks:
    """Claim: state-of-the-art protection leaves >= 60 % of POIs findable."""

    def test_sixty_percent_recall(self, medium_population):
        protected = GeoIndistinguishabilityMechanism(0.01).protect(
            medium_population.dataset, seed=3
        )
        found = PoiAttack(denoise_window=9).run(protected)
        recalls = [
            poi_recall(
                medium_population.truth.pois_of(u, min_total_dwell=2 * HOUR),
                found[u],
                radius_m=250.0,
            )
            for u in medium_population.dataset.users
        ]
        assert sum(recalls) / len(recalls) >= 0.6


class TestE3SmoothingHides:
    """Claim: speed smoothing prevents finding where users stopped."""

    def test_low_recall_after_smoothing(self, medium_population):
        protected = SpeedSmoothingMechanism(100.0).protect(
            medium_population.dataset, seed=3
        )
        found = PoiAttack(denoise_window=9).run(protected)
        recalls = [
            poi_recall(
                medium_population.truth.pois_of(u, min_total_dwell=2 * HOUR),
                found.get(u, []),
                radius_m=250.0,
            )
            for u in medium_population.dataset.users
        ]
        assert sum(recalls) / len(recalls) <= 0.3


class TestE4E5UtilitySurvives:
    """Claim: smoothed data stays useful for crowded places & traffic."""

    def test_crowded_places_utility(self, medium_population):
        smoothed = SpeedSmoothingMechanism(100.0).protect(
            medium_population.dataset, seed=3
        )
        score = CrowdedPlacesObjective().score(medium_population.dataset, smoothed)
        assert score >= 0.5

    def test_traffic_utility(self, medium_population):
        smoothed = SpeedSmoothingMechanism(100.0).protect(
            medium_population.dataset, seed=3
        )
        score = TrafficFlowObjective().score(medium_population.dataset, smoothed)
        assert score >= 0.5

    def test_smoothing_dominates_noise_at_equal_privacy(self, medium_population):
        """The crossover the paper leans on: at noise levels strong enough
        to defeat the POI attack, Laplace utility collapses below
        smoothing's."""
        smoothing = SpeedSmoothingMechanism(100.0)
        strong_noise = GeoIndistinguishabilityMechanism(0.001)
        objective = CrowdedPlacesObjective()
        smoothed = smoothing.protect(medium_population.dataset, seed=3)
        noisy = strong_noise.protect(medium_population.dataset, seed=3)
        assert objective.score(medium_population.dataset, smoothed) > objective.score(
            medium_population.dataset, noisy
        )


class TestLinkageProtection:
    """Re-identification drops under smoothing, not under moderate noise."""

    def test_linkage_ordering(self, medium_population):
        background = medium_population.dataset.slice_time(0, 3 * DAY)
        target = medium_population.dataset.slice_time(3 * DAY, 6 * DAY)
        attack = ReidentificationAttack(denoise_window=9).fit(background)

        def rate(mechanism):
            protected = mechanism.protect(target, seed=5)
            pseudo, secret = protected.pseudonymized()
            guesses = {
                p: r.guessed_user for p, r in attack.link(pseudo).items()
            }
            return reidentification_rate(secret, guesses)

        noisy_rate = rate(GeoIndistinguishabilityMechanism(0.01))
        smoothed_rate = rate(SpeedSmoothingMechanism(100.0))
        assert noisy_rate >= 0.6  # noise does not stop linkage
        assert smoothed_rate < noisy_rate


class TestSecureAggregationPipeline:
    """Campaign sensor readings aggregated without exposing individuals."""

    def test_mean_battery_without_exposure(self, small_population):
        import random

        campaign = Campaign(
            small_population, config=CampaignConfig(n_days=1, seed=13)
        )
        honeycomb = campaign.deploy(
            SensingTask(
                name="battery-study",
                sensors=("battery",),
                sampling_period=1800.0,
                upload_period=3600.0,
                end=DAY,
            )
        )
        campaign.run()
        # Battery is the task's only scalar: the store's value column.
        values = honeycomb.dataset_view("battery-study").value
        assert len(values)

        coordinator = QueryCoordinator(key_bits=256, rng=random.Random(1))
        query = coordinator.open_query("mean-battery")
        aggregator = ObliviousAggregator(query)
        contributor = DeviceContributor(random.Random(2))
        readings = values[:40].tolist()
        for reading in readings:
            aggregator.accept(contributor.contribute_value(query, reading))
        mean = coordinator.decrypt_mean(query, aggregator.scalar_result(), aggregator.count)
        # The default codec keeps 3 decimals per reading.
        assert mean == pytest.approx(sum(readings) / len(readings), abs=1e-3)
