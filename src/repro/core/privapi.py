"""The PRIVAPI middleware: audit every mechanism, publish the best.

The selection algorithm implements the paper's "optimal anonymization
strategy" using the middleware's global view of the dataset:

1. Extract the dataset's *sensitive places* — the POIs an attacker could
   find in the raw data.  These are what must be hidden.
2. For every registered mechanism: protect the dataset, attack the
   protected version with the reference attacker, and measure (a) how
   many sensitive places survive (POI recall), (b) optionally the
   linkage rate, and (c) the requested utility objective's score.
3. Discard mechanisms that miss the privacy bar; among the survivors,
   publish with the highest-utility one.

The audit is honest *by construction*: the attacker used for auditing is
the same implementation benchmarked in experiments E2/E3, including its
denoising preprocessing.

Cost model of one ``publish`` over ``M`` mechanisms: ``M + 1`` calls to
``protect`` (one per audit, one for the release) and ``M + 1`` POI
extractions — the raw dataset once (``sensitive_places``) and each
protected dataset once.  The re-identification bar adds no extraction:
the linker's background profiles *are* the sensitive places and what it
observes under pseudonyms *is* what the POI attack just found, so it is
handed both.  Everything per fix underneath (denoising, sampling, grid
cells, cloaking) runs over each trajectory's column view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import MechanismEvaluation, PublicationReport
from repro.core.requirements import PrivacyRequirement, UtilityObjective
from repro.errors import PrivacyRequirementError, ReproError
from repro.mobility.dataset import MobilityDataset
from repro.privacy.attacks.poi_attack import PoiAttack
from repro.privacy.attacks.reident import ReidentificationAttack
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    KAnonymityCloakingMechanism,
    LocationPrivacyMechanism,
    SpatialCloakingMechanism,
    SpeedSmoothingMechanism,
    TemporalDownsamplingMechanism,
)
from repro.privacy.metrics import poi_recall, reidentification_rate, suppression_rate
from repro.units import MINUTE


def default_registry() -> list[LocationPrivacyMechanism]:
    """The mechanisms a stock PRIVAPI deployment considers.

    A spread of strategies and parameters: the paper's novel speed
    smoothing at two resolutions, geo-indistinguishability at three
    budgets, grid cloaking at two pitches, and temporal downsampling.
    """
    return [
        SpeedSmoothingMechanism(epsilon_m=100.0),
        SpeedSmoothingMechanism(epsilon_m=250.0),
        GeoIndistinguishabilityMechanism(epsilon=0.01),
        GeoIndistinguishabilityMechanism(epsilon=0.005),
        GeoIndistinguishabilityMechanism(epsilon=0.001),
        SpatialCloakingMechanism(cell_size_m=400.0),
        SpatialCloakingMechanism(cell_size_m=800.0),
        KAnonymityCloakingMechanism(k=4, base_cell_m=250.0),
        TemporalDownsamplingMechanism(window=15 * MINUTE),
    ]


@dataclass(frozen=True)
class PublicationResult:
    """What PRIVAPI hands back: the publishable dataset plus audit trail.

    ``dataset`` is pseudonymized and protected (or ``None`` when no
    mechanism met the bar and ``strict`` publishing was requested);
    ``pseudonym_mapping`` stays with the platform and MUST NOT be
    released — it exists so operators can audit and notify users.
    """

    dataset: MobilityDataset | None
    pseudonym_mapping: dict[str, str] | None
    report: PublicationReport


class PrivApi:
    """The publication middleware."""

    def __init__(
        self,
        mechanisms: list[LocationPrivacyMechanism] | None = None,
        seed: int = 0,
    ):
        self.mechanisms = mechanisms if mechanisms is not None else default_registry()
        if not self.mechanisms:
            raise PrivacyRequirementError("PRIVAPI needs at least one mechanism")
        self.seed = seed

    # ------------------------------------------------------------------
    # Audit primitives
    # ------------------------------------------------------------------

    def sensitive_places(
        self, dataset: MobilityDataset, requirement: PrivacyRequirement
    ) -> dict[str, list]:
        """Per-user POIs found in the *raw* data (what must be hidden)."""
        attack = PoiAttack(denoise_window=requirement.attacker_denoise_window)
        return attack.run(dataset)

    def audit_mechanism(
        self,
        mechanism: LocationPrivacyMechanism,
        dataset: MobilityDataset,
        requirement: PrivacyRequirement,
        objective: UtilityObjective,
        sensitive: dict[str, list] | None = None,
    ) -> MechanismEvaluation:
        """Protect, attack and score one mechanism."""
        if sensitive is None:
            sensitive = self.sensitive_places(dataset, requirement)
        name = f"{mechanism.name}{self._param_tag(mechanism)}"
        parameters = {
            str(k): v for k, v in mechanism.describe().items() if k != "mechanism"
        }
        try:
            protected = mechanism.protect(dataset, seed=self.seed)
        except ReproError as error:
            nan, failure = float("nan"), f"{type(error).__name__}: {error}"
            return MechanismEvaluation(
                name, parameters, nan, None, nan, nan, False, failure
            )
        attack = PoiAttack(denoise_window=requirement.attacker_denoise_window)
        found = attack.run(protected)

        recalls = []
        for user, places in sensitive.items():
            if not places:
                continue
            centers = [p.center for p in places]
            recalls.append(
                poi_recall(centers, found.get(user, []), requirement.attack_radius_m)
            )
        mean_recall = sum(recalls) / len(recalls) if recalls else 0.0

        reident: float | None = None
        if requirement.max_reidentification is not None:
            # The linker's background profiles are the sensitive places and
            # its observations are ``found`` under pseudonyms: same attacker,
            # same data, so neither dataset is attacked a second time.
            linker = ReidentificationAttack(
                denoise_window=requirement.attacker_denoise_window
            ).fit_profiles(sensitive)
            _, secret = protected.pseudonymized()
            observed = {pseudonym: found[user] for pseudonym, user in secret.items()}
            guesses = {
                pseudonym: result.guessed_user
                for pseudonym, result in linker.link_profiles(observed).items()
            }
            reident = reidentification_rate(secret, guesses)

        utility = objective.score(dataset, protected) if len(protected) else 0.0
        suppression = suppression_rate(dataset, protected)

        satisfied = mean_recall <= requirement.max_poi_recall
        if requirement.max_reidentification is not None and reident is not None:
            satisfied = satisfied and reident <= requirement.max_reidentification

        return MechanismEvaluation(
            mechanism=name,
            parameters=parameters,
            poi_recall=mean_recall,
            reidentification=reident,
            utility=utility,
            suppression=suppression,
            satisfies_privacy=satisfied,
        )

    @staticmethod
    def _param_tag(mechanism: LocationPrivacyMechanism) -> str:
        params = {
            key: value
            for key, value in mechanism.describe().items()
            if key != "mechanism"
        }
        if not params:
            return ""
        inner = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
        return f"({inner})"

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def publish(
        self,
        dataset: MobilityDataset,
        requirement: PrivacyRequirement | None = None,
        objective: UtilityObjective | None = None,
        strict: bool = True,
    ) -> PublicationResult:
        """Choose the best mechanism and produce the publishable dataset.

        With ``strict=True`` (the default, and the paper's "minimum level
        of privacy must be enforced") no dataset is returned when every
        mechanism fails the bar; with ``strict=False`` the most private
        mechanism is used as a fallback and flagged in the report.
        """
        from repro.core.requirements import CrowdedPlacesObjective

        if not len(dataset):
            raise PrivacyRequirementError("the dataset is empty: nothing to publish")
        requirement = requirement or PrivacyRequirement()
        objective = objective or CrowdedPlacesObjective()
        sensitive = self.sensitive_places(dataset, requirement)

        evaluations = [
            self.audit_mechanism(mechanism, dataset, requirement, objective, sensitive)
            for mechanism in self.mechanisms
        ]
        failed = [f"{e.mechanism}: {e.error}" for e in evaluations if e.error]
        if len(failed) == len(evaluations):
            raise PrivacyRequirementError("every mechanism failed: " + "; ".join(failed))
        audited = [
            (evaluation, mechanism)
            for evaluation, mechanism in zip(evaluations, self.mechanisms)
            if evaluation.error is None
        ]
        candidates = [pair for pair in audited if pair[0].satisfies_privacy]
        if candidates:
            chosen_eval, chosen_mechanism = max(
                candidates, key=lambda pair: pair[0].utility
            )
        elif strict:
            report = PublicationReport(
                objective=objective.name,
                requirement_max_poi_recall=requirement.max_poi_recall,
                evaluations=tuple(evaluations),
                chosen=None,
            )
            return PublicationResult(dataset=None, pseudonym_mapping=None, report=report)
        else:
            chosen_eval, chosen_mechanism = min(
                audited, key=lambda pair: pair[0].poi_recall
            )

        protected = chosen_mechanism.protect(dataset, seed=self.seed)
        published, mapping = protected.pseudonymized()
        report = PublicationReport(
            objective=objective.name,
            requirement_max_poi_recall=requirement.max_poi_recall,
            evaluations=tuple(evaluations),
            chosen=chosen_eval.mechanism,
        )
        return PublicationResult(
            dataset=published, pseudonym_mapping=mapping, report=report
        )
