"""``privapi_publish``: one PRIVAPI publication with both privacy bars.

Why it exists: the paper's own contribution — audit every mechanism,
publish with the best — is a batch job that bypasses all six middleware
tiers.  It is the "no change predicted" row for every platform PR, and
the only row where ``privacy/``, ``geo/filtering`` and ``utility/`` work
shows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import (
    CrowdedPlacesObjective,
    PrivacyRequirement,
    PrivApi,
    UtilityObjective,
    default_registry,
)
from repro.mobility.dataset import MobilityDataset
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    LocationPrivacyMechanism,
    SpeedSmoothingMechanism,
)

from e2ebench.harness import RoundResult
from e2ebench.spans import SpanRecorder, span_of

NAME = "privapi_publish"
WARMUP = False  # nothing is cached between publications
PERCENTILES: dict = {}
MAX_POI_RECALL = 0.25
MAX_REIDENTIFICATION = 0.5


@dataclass(frozen=True)
class Shape:
    users: int
    days: int
    full_registry: bool


def shape(scale: str) -> Shape:
    return Shape(6, 3, True) if scale == "full" else Shape(2, 1, False)


LOOP = "closed loop: one publish call at a time; no platform, 0 connections"


@dataclass(frozen=True)
class Inputs:
    dataset: MobilityDataset
    seed: int


def make_inputs(shape: Shape, seed: int) -> Inputs:
    # 120 s fixes, as in benchmarks/conftest.py and device_campaign: one
    # publication then takes ~11 s, which leaves a traced run (two
    # publications) under the 30 s every run must stay below.
    config = GeneratorConfig(
        n_users=shape.users, n_days=shape.days, sampling_period=120.0
    )
    return Inputs(MobilityGenerator(config).generate(seed=seed).dataset, seed)


class TracedMechanism(LocationPrivacyMechanism):
    """A mechanism whose ``protect`` calls are recorded as spans.

    A proxy, not an instance attribute: ``describe()`` reports every
    public attribute as a parameter, so shadowing ``protect`` on the
    mechanism itself would change its name in the evaluation table.
    """

    def __init__(self, inner: LocationPrivacyMechanism, recorder: SpanRecorder):
        self._inner = inner
        self._recorder = recorder

    @property
    def name(self) -> str:
        return self._inner.name

    def protect(self, dataset, seed=0):
        with self._recorder.span("privapi.protect"):
            return self._inner.protect(dataset, seed=seed)

    def protect_trajectory(self, trajectory, rng):
        return self._inner.protect_trajectory(trajectory, rng)

    def describe(self):
        return self._inner.describe()


class TracedObjective(UtilityObjective):
    def __init__(self, inner: UtilityObjective, recorder: SpanRecorder):
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name

    def score(self, raw, protected):
        with self._recorder.span("privapi.score"):
            return self._inner.score(raw, protected)


def run_round(
    shape: Shape, inputs: Inputs, recorder: SpanRecorder | None
) -> RoundResult:
    started = time.perf_counter()
    mechanisms = (
        default_registry()
        if shape.full_registry
        else [
            SpeedSmoothingMechanism(epsilon_m=100.0),
            GeoIndistinguishabilityMechanism(epsilon=0.01),
        ]
    )
    objective: UtilityObjective = CrowdedPlacesObjective()
    if recorder is not None:
        mechanisms = [TracedMechanism(m, recorder) for m in mechanisms]
        objective = TracedObjective(objective, recorder)
    privapi = PrivApi(mechanisms, seed=inputs.seed)
    requirement = PrivacyRequirement(
        max_poi_recall=MAX_POI_RECALL, max_reidentification=MAX_REIDENTIFICATION
    )
    if recorder is not None:
        recorder.wrap(privapi, "sensitive_places", "privapi.sensitive_places")
        audit = privapi.audit_mechanism

        def traced_audit(mechanism, *args, **kwargs):
            group = f"mechanism-{mechanisms.index(mechanism)}"
            with recorder.span("privapi.audit", group=group):
                return audit(mechanism, *args, **kwargs)

        privapi.audit_mechanism = traced_audit
    build_s = time.perf_counter() - started
    span = span_of(recorder)

    started = time.perf_counter()
    with span("round"):
        with span("privapi.publish"):
            result = privapi.publish(inputs.dataset, requirement, objective)
    wall_s = time.perf_counter() - started

    # Correctness, outside the timed region.
    failures: list[str] = []
    evaluations = result.report.evaluations
    satisfying = [e for e in evaluations if e.satisfies_privacy]
    chosen = result.report.chosen_evaluation()
    if len(evaluations) != len(mechanisms):
        failures.append(f"{len(evaluations)} evaluations for {len(mechanisms)} mechanisms")
    if (result.dataset is None) != (not satisfying):
        failures.append("a dataset is published iff some mechanism meets the bar")
    if shape.full_registry and result.dataset is None:
        failures.append("publish returned no dataset")
    if chosen is not None and not (
        chosen.poi_recall <= MAX_POI_RECALL
        and chosen.reidentification <= MAX_REIDENTIFICATION
        and chosen.utility == max(e.utility for e in satisfying)
    ):
        failures.append(
            f"chosen {chosen.mechanism} does not meet both bars with the "
            "highest utility among the mechanisms that do"
        )

    points = inputs.dataset.n_records
    outcome = RoundResult(
        build_s=build_s,
        wall_s=wall_s,
        records=points,
        attempted=1,
        failed=int(shape.full_registry and result.dataset is None),
        failures=failures,
        fingerprint=(
            result.report.chosen,
            tuple(
                (e.mechanism, e.poi_recall, e.reidentification, e.utility,
                 e.suppression, e.satisfies_privacy)
                for e in evaluations
            ),
        ),
        values={"publish_s": wall_s},
        recorder=recorder,
    )
    if recorder is not None:
        self_times, driver_s, outcome.covered_s = recorder.ledger()
        outcome.layer = {
            "privapi.sensitive_places_s": self_times["privapi.sensitive_places"],
            "privapi.protect_s": sum(
                recorder.children_of("privapi.audit", "privapi.protect")
            ),
            "privapi.score_s": self_times.get("privapi.score", 0.0),
            "privapi.audit_self_s": self_times["privapi.audit"],
            "privapi.final_protect_s": sum(
                recorder.children_of("privapi.publish", "privapi.protect")
            ),
            "privapi.mechanisms_audited": len(evaluations),
            "privapi.mechanisms_satisfying": len(satisfying),
            "privapi.points": points,
            "ledger.driver_s": driver_s,
        }
    return outcome
