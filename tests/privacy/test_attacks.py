"""Unit tests for the POI and re-identification attacks."""

import pytest

from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.privacy.attacks import PoiAttack, ReidentificationAttack
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    IdentityMechanism,
    SpeedSmoothingMechanism,
)
from repro.privacy.metrics import poi_recall, reidentification_rate
from repro.units import DAY, HOUR


class TestPoiAttack:
    def test_finds_true_pois_in_raw_data(self, medium_population):
        attack = PoiAttack()
        found = attack.run(medium_population.dataset)
        for user in medium_population.dataset.users:
            truth = medium_population.truth.pois_of(user, min_total_dwell=2 * HOUR)
            assert poi_recall(truth, found[user], radius_m=250.0) >= 0.8

    def test_max_pois_cap(self, medium_population):
        attack = PoiAttack(max_pois=2)
        found = attack.run(medium_population.dataset)
        assert all(len(pois) <= 2 for pois in found.values())

    def test_uncapped(self, medium_population):
        attack = PoiAttack(max_pois=None)
        found = attack.run(medium_population.dataset)
        assert any(len(pois) >= 2 for pois in found.values())

    def test_denoising_recovers_perturbed_pois(self, medium_population):
        protected = GeoIndistinguishabilityMechanism(epsilon=0.01).protect(
            medium_population.dataset, seed=2
        )
        naive = PoiAttack(denoise_window=1).run(protected)
        smart = PoiAttack(denoise_window=9).run(protected)

        def mean_recall(found):
            recalls = [
                poi_recall(
                    medium_population.truth.pois_of(u, min_total_dwell=2 * HOUR),
                    found[u],
                    radius_m=250.0,
                )
                for u in medium_population.dataset.users
            ]
            return sum(recalls) / len(recalls)

        assert mean_recall(smart) > mean_recall(naive)
        assert mean_recall(smart) >= 0.6  # the paper's headline number

    def test_run_trajectory_single_user(self, medium_population):
        attack = PoiAttack()
        user = medium_population.dataset.users[0]
        pois = attack.run_trajectory(medium_population.dataset.get(user))
        assert pois  # home/work must be found


class TestReidentificationAttack:
    @pytest.fixture(scope="class")
    def split(self, medium_population):
        dataset = medium_population.dataset
        half = 3 * DAY
        return dataset.slice_time(0, half), dataset.slice_time(half, 6 * DAY)

    def test_requires_fit(self, split):
        _, target = split
        attack = ReidentificationAttack()
        with pytest.raises(RuntimeError):
            attack.link(target)

    def test_links_unprotected_pseudonyms(self, split):
        background, target = split
        attack = ReidentificationAttack(denoise_window=9).fit(background)
        pseudo, secret = target.pseudonymized()
        results = attack.link(pseudo)
        guesses = {p: r.guessed_user for p, r in results.items()}
        assert reidentification_rate(secret, guesses) >= 0.8

    def test_smoothing_reduces_linkage(self, split):
        background, target = split
        attack = ReidentificationAttack(denoise_window=9).fit(background)

        def rate(dataset: MobilityDataset) -> float:
            pseudo, secret = dataset.pseudonymized()
            guesses = {p: r.guessed_user for p, r in attack.link(pseudo).items()}
            return reidentification_rate(secret, guesses)

        raw_rate = rate(IdentityMechanism().protect(target))
        smoothed_rate = rate(SpeedSmoothingMechanism(100.0).protect(target, seed=3))
        assert smoothed_rate < raw_rate

    def test_abstains_on_unmatchable_profiles(self, split):
        background, target = split
        attack = ReidentificationAttack(
            denoise_window=9, max_match_distance_m=0.0
        ).fit(background)
        pseudo, _ = target.pseudonymized()
        results = attack.link(pseudo)
        # A zero gate can never be met (profile distances are positive).
        assert all(r.guessed_user is None for r in results.values())

    def test_known_users_after_fit(self, split):
        background, _ = split
        attack = ReidentificationAttack().fit(background)
        assert set(attack.known_users) <= set(background.users)
        assert len(attack.known_users) >= len(background.users) - 1

    def test_profile_level_fit_and_link_match_the_dataset_level(self, split):
        """``fit``/``link`` are ``fit_profiles``/``link_profiles`` over
        this attacker's own POI extraction, so an audit that already
        holds the POIs gets the same linkage without extracting again."""
        background, target = split
        pseudo, _ = target.pseudonymized()
        extraction = PoiAttack(denoise_window=9)
        from_datasets = ReidentificationAttack(denoise_window=9).fit(background)
        from_profiles = ReidentificationAttack(denoise_window=9).fit_profiles(
            extraction.run(background)
        )
        assert from_profiles.known_users == from_datasets.known_users
        assert from_profiles.link_profiles(extraction.run(pseudo)) == from_datasets.link(pseudo)


def walkers(n_fixes: int = 60) -> MobilityDataset:
    """Two users who never dwell: 60 fixes, 60 s and ~110 m apart."""
    return MobilityDataset(
        Trajectory(
            user=user,
            records=tuple(
                Record(GeoPoint(lat0 + 0.001 * i, -0.58), 60.0 * i) for i in range(n_fixes)
            ),
        )
        for user, lat0 in (("a", 44.80), ("b", 44.70))
    )


class TestBackgroundWithoutPois:
    def test_attacker_with_no_profile_abstains(self):
        """Empty background knowledge is not "never fitted": the attacker
        abstains on every pseudonym instead of raising."""
        dataset = walkers()
        attack = ReidentificationAttack().fit(dataset)
        assert attack.known_users == []
        pseudo, secret = dataset.pseudonymized()
        results = attack.link(pseudo)
        assert set(results) == set(secret)
        assert all(r.guessed_user is None for r in results.values())
        guesses = {p: r.guessed_user for p, r in results.items()}
        assert reidentification_rate(secret, guesses) == 0.0

    def test_abstains_on_observed_pois_too(self, medium_population):
        attack = ReidentificationAttack().fit(walkers())
        pseudo, _ = medium_population.dataset.slice_time(0, 2 * DAY).pseudonymized()
        results = attack.link(pseudo)
        assert results and all(r.guessed_user is None for r in results.values())

    def test_never_fitted_still_raises(self):
        with pytest.raises(RuntimeError):
            ReidentificationAttack().link_profiles({})
