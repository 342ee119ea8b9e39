"""Unit + integration tests for the PRIVAPI middleware."""

import pytest

from repro.core.privapi import PrivApi, default_registry
from repro.core.report import PublicationReport
from repro.core.requirements import (
    CrowdedPlacesObjective,
    DistortionObjective,
    PrivacyRequirement,
    TrafficFlowObjective,
)
from repro.errors import PrivacyRequirementError
from repro.geo.point import GeoPoint, Record
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.privacy.attacks import PoiAttack
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    IdentityMechanism,
    LocationPrivacyMechanism,
    SpeedSmoothingMechanism,
)
from repro.privacy.pois import PoiExtractor


class TestConstruction:
    def test_default_registry_nonempty(self):
        assert len(default_registry()) >= 5

    def test_empty_registry_rejected(self):
        with pytest.raises(PrivacyRequirementError):
            PrivApi(mechanisms=[])

    def test_empty_dataset_refused_at_the_door(self):
        with pytest.raises(PrivacyRequirementError, match="nothing to publish"):
            PrivApi(default_registry()).publish(MobilityDataset([]))


class TestAudit:
    @pytest.fixture(scope="class")
    def privapi(self):
        return PrivApi(
            mechanisms=[
                IdentityMechanism(),
                GeoIndistinguishabilityMechanism(0.01),
                SpeedSmoothingMechanism(100.0),
            ],
            seed=1,
        )

    def test_identity_fails_privacy(self, privapi, medium_population):
        requirement = PrivacyRequirement(max_poi_recall=0.25)
        evaluation = privapi.audit_mechanism(
            IdentityMechanism(),
            medium_population.dataset,
            requirement,
            CrowdedPlacesObjective(),
        )
        assert not evaluation.satisfies_privacy
        assert evaluation.poi_recall > 0.8
        assert evaluation.utility == pytest.approx(1.0)

    def test_smoothing_passes_privacy(self, privapi, medium_population):
        requirement = PrivacyRequirement(max_poi_recall=0.25)
        evaluation = privapi.audit_mechanism(
            SpeedSmoothingMechanism(100.0),
            medium_population.dataset,
            requirement,
            CrowdedPlacesObjective(),
        )
        assert evaluation.satisfies_privacy
        assert evaluation.utility > 0.4

    def test_reidentification_audit_optional(self, privapi, medium_population):
        requirement = PrivacyRequirement(
            max_poi_recall=1.0, max_reidentification=0.5
        )
        evaluation = privapi.audit_mechanism(
            IdentityMechanism(),
            medium_population.dataset,
            requirement,
            DistortionObjective(),
        )
        assert evaluation.reidentification is not None
        assert evaluation.reidentification > 0.5
        assert not evaluation.satisfies_privacy


class TestPublish:
    def test_strict_publication_chooses_smoothing(self, medium_population):
        privapi = PrivApi(seed=2)
        result = privapi.publish(
            medium_population.dataset,
            requirement=PrivacyRequirement(max_poi_recall=0.25),
            objective=CrowdedPlacesObjective(),
        )
        assert result.dataset is not None
        assert result.report.chosen is not None
        assert "speed-smoothing" in result.report.chosen

    def test_published_dataset_is_pseudonymized(self, medium_population):
        privapi = PrivApi(seed=2)
        result = privapi.publish(
            medium_population.dataset,
            requirement=PrivacyRequirement(max_poi_recall=0.25),
        )
        assert result.dataset is not None
        raw_users = set(medium_population.dataset.users)
        assert not (set(result.dataset.users) & raw_users)
        assert result.pseudonym_mapping is not None
        assert set(result.pseudonym_mapping.values()) <= raw_users

    def test_impossible_requirement_strict_returns_nothing(self, medium_population):
        privapi = PrivApi(
            mechanisms=[IdentityMechanism(), GeoIndistinguishabilityMechanism(0.05)],
            seed=2,
        )
        result = privapi.publish(
            medium_population.dataset,
            requirement=PrivacyRequirement(max_poi_recall=0.0),
            strict=True,
        )
        assert result.dataset is None
        assert result.report.chosen is None

    def test_impossible_requirement_lenient_falls_back(self, medium_population):
        privapi = PrivApi(
            mechanisms=[IdentityMechanism(), GeoIndistinguishabilityMechanism(0.005)],
            seed=2,
        )
        result = privapi.publish(
            medium_population.dataset,
            requirement=PrivacyRequirement(max_poi_recall=0.0),
            strict=False,
        )
        assert result.dataset is not None
        # The fallback is the most private candidate, not the best utility.
        assert "geo-indistinguishability" in result.report.chosen

    def test_objective_changes_choice_possible(self, medium_population):
        """With a permissive privacy bar, the distortion objective should
        prefer light noise while crowded-places can prefer smoothing."""
        mechanisms = [
            GeoIndistinguishabilityMechanism(0.05),  # ~40 m mean displacement
            SpeedSmoothingMechanism(250.0),
        ]
        privapi = PrivApi(mechanisms=mechanisms, seed=2)
        permissive = PrivacyRequirement(max_poi_recall=1.0)
        by_distortion = privapi.publish(
            medium_population.dataset, permissive, DistortionObjective()
        )
        assert "geo-indistinguishability" in by_distortion.report.chosen

    def test_report_rows_complete(self, medium_population):
        privapi = PrivApi(
            mechanisms=[IdentityMechanism(), SpeedSmoothingMechanism(100.0)], seed=2
        )
        result = privapi.publish(
            medium_population.dataset,
            requirement=PrivacyRequirement(max_poi_recall=0.25),
        )
        report = result.report
        assert isinstance(report, PublicationReport)
        assert len(report.evaluations) == 2
        text = report.to_text()
        assert "identity" in text and "speed-smoothing" in text
        assert "chosen:" in text

    def test_chosen_evaluation_lookup(self, medium_population):
        privapi = PrivApi(
            mechanisms=[SpeedSmoothingMechanism(100.0)], seed=2
        )
        result = privapi.publish(
            medium_population.dataset,
            requirement=PrivacyRequirement(max_poi_recall=0.3),
        )
        chosen = result.report.chosen_evaluation()
        assert chosen is not None
        assert chosen.satisfies_privacy


class TestDataWithoutPois:
    def test_reidentification_audit_on_users_who_never_dwell(self):
        """Both bars on a dataset with no sensitive place at all: nothing
        to recover, nobody to link, and the audit says so instead of
        crashing in the linker."""
        dataset = MobilityDataset(
            Trajectory(
                user=user,
                records=tuple(
                    Record(GeoPoint(lat0 + 0.001 * i, -0.58), 60.0 * i)
                    for i in range(60)
                ),
            )
            for user, lat0 in (("a", 44.80), ("b", 44.70))
        )
        privapi = PrivApi(seed=3)
        requirement = PrivacyRequirement(max_reidentification=0.5)
        assert privapi.sensitive_places(dataset, requirement) == {"a": [], "b": []}
        result = privapi.publish(dataset, requirement)
        assert result.dataset is not None
        assert len(result.report.evaluations) == len(privapi.mechanisms)
        for evaluation in result.report.evaluations:
            assert evaluation.poi_recall == 0.0
            assert evaluation.reidentification == 0.0
            assert evaluation.satisfies_privacy


class TestAuditCostModel:
    """One publication attacks each dataset once: the raw data once, each
    protected dataset once, and the linker reuses both results."""

    @pytest.fixture(scope="class")
    def dataset(self):
        config = GeneratorConfig(n_users=6, n_days=3, sampling_period=120.0)
        return MobilityGenerator(config).generate(seed=2014).dataset

    def test_one_extraction_per_dataset_and_user(self, dataset, monkeypatch):
        extractions, attack_runs, released = [], [], []
        extract_many, run = PoiExtractor.extract_many, PoiAttack.run
        protect = LocationPrivacyMechanism.protect

        def counted_extract_many(self, traces):
            extractions.append(len(traces))
            return extract_many(self, traces)

        def counted_run(self, data):
            attack_runs.append(len(data))
            return run(self, data)

        def counted_protect(self, data, seed=0):
            result = protect(self, data, seed)
            released.append(len(result))
            return result

        monkeypatch.setattr(PoiExtractor, "extract_many", counted_extract_many)
        monkeypatch.setattr(PoiAttack, "run", counted_run)
        monkeypatch.setattr(LocationPrivacyMechanism, "protect", counted_protect)

        privapi = PrivApi(default_registry(), seed=2014)
        requirement = PrivacyRequirement(max_poi_recall=0.25, max_reidentification=0.5)
        result = privapi.publish(dataset, requirement, CrowdedPlacesObjective())
        assert result.dataset is not None

        n_mechanisms = len(privapi.mechanisms)
        assert len(released) == n_mechanisms + 1  # every audit, then the release
        assert len(attack_runs) == n_mechanisms + 1  # raw once, each release once
        surviving = sum(released[:n_mechanisms])
        assert len(extractions) == len(dataset) + surviving

    def test_audit_without_sensitive_places_is_the_same_audit(self, dataset):
        privapi = PrivApi(seed=2014)
        requirement = PrivacyRequirement(max_poi_recall=0.25, max_reidentification=0.5)
        objective = CrowdedPlacesObjective()
        sensitive = privapi.sensitive_places(dataset, requirement)
        for mechanism in (SpeedSmoothingMechanism(250.0), GeoIndistinguishabilityMechanism(0.01)):
            assert privapi.audit_mechanism(
                mechanism, dataset, requirement, objective
            ) == privapi.audit_mechanism(
                mechanism, dataset, requirement, objective, sensitive
            )


class TestFailedMechanism:
    """A mechanism that cannot protect a dataset fails its own audit only."""

    @pytest.fixture(scope="class")
    def near_pole(self):
        """Four generated users plus one two-day trace at 89.9999 deg N."""
        users = list(
            MobilityGenerator(
                GeneratorConfig(n_users=4, n_days=2, sampling_period=300)
            ).generate(seed=3).dataset
        )
        polar = [
            Record(GeoPoint(89.9999, 0.0005 * (i % 20)), 300.0 * i)
            for i in range(2 * 288)
        ]
        return MobilityDataset([*users, Trajectory("polar", polar)])

    def test_near_pole_trace_publishes_without_geo_ind(self, near_pole):
        result = PrivApi(seed=1).publish(
            near_pole, PrivacyRequirement(max_poi_recall=0.5), strict=False
        )
        failed = [e for e in result.report.evaluations if e.error is not None]
        geo_ind = [
            e for e in result.report.evaluations
            if e.mechanism.startswith("geo-indistinguishability")
        ]
        assert len(geo_ind) == 3 and all(e in failed for e in geo_ind)
        assert all("latitude out of range" in e.error for e in failed)
        assert all(e.summary_row().endswith(f"FAILED: {e.error}") for e in failed)
        assert result.dataset is not None
        assert result.report.chosen not in {e.mechanism for e in failed}

    def test_every_mechanism_failing_names_the_errors(self, near_pole):
        privapi = PrivApi([GeoIndistinguishabilityMechanism(0.01)], seed=1)
        with pytest.raises(PrivacyRequirementError, match="latitude out of range"):
            privapi.publish(near_pole, strict=False)
