"""Pinned PRIVAPI outcomes: the audit's exact figures at fixed seeds.

The selection benches assert inequalities (``recall >= 0.6``); this file
pins what the audit *computes*, so a rewrite of the attack, the
mechanisms or the utility scorers cannot move a figure unnoticed.  Every
value in the crowded-places tables is a ratio of small integers (POIs
recovered / POIs, pseudonyms linked / pseudonyms, hotspot cells shared /
hotspot cells) averaged in a fixed order, so they are compared with
``==``.  A figure that moves is a finding to report, not a number to
update.  The one tolerance is the distortion objective's utility, a mean
of ~10^5 great-circle distances whose last bits follow the summation
order and the host's ``sin``/``cos``.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core import (
    CrowdedPlacesObjective,
    DistortionObjective,
    OdFlowObjective,
    PrivacyRequirement,
    PrivApi,
    default_registry,
)
from repro.mobility.dataset import MobilityDataset
from repro.mobility.generator import GeneratorConfig, MobilityGenerator
from repro.privacy.mechanisms import (
    GeoIndistinguishabilityMechanism,
    KAnonymityCloakingMechanism,
    SpeedSmoothingMechanism,
)

SMOOTH_100 = "speed-smoothing(epsilon_m=100.0,min_points=4,resampling=chord)"
SMOOTH_250 = "speed-smoothing(epsilon_m=250.0,min_points=4,resampling=chord)"
K_ANON_4 = "k-anonymity-cloaking(base_cell_m=250.0,k=4,max_levels=6)"
K_ANON_8 = "k-anonymity-cloaking(base_cell_m=250.0,k=8,max_levels=6)"

#: seed -> (chosen, sha256 of the published dataset, records published,
#: rows of (mechanism, poi_recall, reidentification, utility,
#: suppression, satisfies_privacy)) for the e2e benchmark's shape.
BENCHMARK_SHAPE = {
    2014: (
        SMOOTH_250,
        "032f6c9458e156e1c19d1e4e51b4415b1bb3fb1a8283bed8c7aeb661a5b4def4",
        487,
        (
            (SMOOTH_100, 0.27777777777777773, 0.6666666666666666, 0.4666666666666667, 0.0, False),
            (SMOOTH_250, 0.08333333333333333, 0.16666666666666666, 0.4666666666666667, 0.0, True),
            ("geo-indistinguishability(epsilon=0.01)", 1.0, 1.0, 0.26666666666666666, 0.0, False),
            ("geo-indistinguishability(epsilon=0.005)", 0.8194444444444443, 1.0, 0.13333333333333333, 0.0, False),
            ("geo-indistinguishability(epsilon=0.001)", 0.3194444444444444, 0.5, 0.06666666666666667, 0.0, False),
            ("spatial-cloaking(cell_size_m=400.0)", 1.0, 1.0, 0.5333333333333333, 0.0, False),
            ("spatial-cloaking(cell_size_m=800.0)", 0.18055555555555555, 1.0, 0.5333333333333333, 0.0, False),
            (K_ANON_4, 0.0, 0.0, 0.1379310344827586, 0.0, True),
            ("temporal-downsampling(window=900.0)", 1.0, 1.0, 0.6, 0.0, False),
        ),
    ),
    7919: (
        SMOOTH_100,
        "a4d6c81dade5088ddeb081bc061ade010fd1748a2b8485d94e7f44e949ade4a3",
        1187,
        (
            (SMOOTH_100, 0.08333333333333333, 0.5, 0.8000000000000002, 0.0, True),
            (SMOOTH_250, 0.0, 0.0, 0.8000000000000002, 0.0, True),
            ("geo-indistinguishability(epsilon=0.01)", 1.0, 1.0, 0.26666666666666666, 0.0, False),
            ("geo-indistinguishability(epsilon=0.005)", 0.9444444444444445, 1.0, 0.20000000000000004, 0.0, False),
            ("geo-indistinguishability(epsilon=0.001)", 0.38888888888888884, 0.6666666666666666, 0.0, 0.0, False),
            ("spatial-cloaking(cell_size_m=400.0)", 1.0, 1.0, 0.7333333333333333, 0.0, False),
            ("spatial-cloaking(cell_size_m=800.0)", 0.3333333333333333, 1.0, 0.4000000000000001, 0.0, False),
            (K_ANON_4, 0.0, 0.0, 0.0, 0.16666666666666663, True),
            ("temporal-downsampling(window=900.0)", 1.0, 1.0, 0.9333333333333333, 0.0, False),
        ),
    ),
}


def dataset_sha256(dataset: MobilityDataset) -> str:
    """Digest of every published ``(user, lat, lon, time)``, bit for bit."""
    digest = hashlib.sha256()
    for user, record in dataset.all_records():
        digest.update(user.encode())
        digest.update(struct.pack("<ddd", record.lat, record.lon, record.time))
    return digest.hexdigest()


def table(result) -> tuple:
    return tuple(
        (e.mechanism, e.poi_recall, e.reidentification, e.utility,
         e.suppression, e.satisfies_privacy)
        for e in result.report.evaluations
    )


@pytest.mark.parametrize("seed", sorted(BENCHMARK_SHAPE))
def test_benchmark_shape_publication_is_pinned(seed):
    chosen, sha, n_published, rows = BENCHMARK_SHAPE[seed]
    config = GeneratorConfig(n_users=6, n_days=3, sampling_period=120.0)
    dataset = MobilityGenerator(config).generate(seed=seed).dataset
    result = PrivApi(default_registry(), seed=seed).publish(
        dataset,
        PrivacyRequirement(max_poi_recall=0.25, max_reidentification=0.5),
        CrowdedPlacesObjective(),
    )
    assert table(result) == rows
    assert result.report.chosen == chosen
    assert result.dataset.n_records == n_published
    assert dataset_sha256(result.dataset) == sha


class TestSelectionBenchRows:
    """The od-flows and loose-bar selections of
    ``benchmarks/test_bench_privapi_selection.py``, as exact rows."""

    @pytest.fixture(scope="class")
    def population(self) -> MobilityDataset:
        config = GeneratorConfig(n_users=20, n_days=8, sampling_period=120.0)
        return MobilityGenerator(config).generate(seed=2014).dataset

    def test_od_flows_pick_k_anonymity(self, population):
        privapi = PrivApi(
            [
                SpeedSmoothingMechanism(250.0),
                KAnonymityCloakingMechanism(k=8, base_cell_m=250.0),
            ],
            seed=5,
        )
        result = privapi.publish(
            population, PrivacyRequirement(max_poi_recall=0.25), OdFlowObjective()
        )
        assert table(result) == (
            (SMOOTH_250, 0.034999999999999996, None, 0.0, 0.0, True),
            (K_ANON_8, 0.10999999999999999, None, 0.3641469361972605,
             0.050000000000000044, True),
        )
        assert result.report.chosen == K_ANON_8
        assert result.dataset.n_records == 92292
        assert dataset_sha256(result.dataset) == (
            "55dbc01b5fce21948b1707eb7156f54398ee5a95534799397d67ab788702e9ed"
        )

    def test_loose_bar_picks_light_noise(self, population):
        privapi = PrivApi(
            [
                GeoIndistinguishabilityMechanism(0.05),
                SpeedSmoothingMechanism(250.0),
            ],
            seed=5,
        )
        result = privapi.publish(
            population, PrivacyRequirement(max_poi_recall=1.0), DistortionObjective()
        )
        noise, smoothing = result.report.evaluations
        assert (noise.mechanism, noise.poi_recall, noise.suppression) == (
            "geo-indistinguishability(epsilon=0.05)", 1.0, 0.0,
        )
        assert (smoothing.mechanism, smoothing.poi_recall, smoothing.suppression) == (
            SMOOTH_250, 0.034999999999999996, 0.0,
        )
        assert noise.utility == pytest.approx(0.8333476545690869, rel=1e-12)
        assert smoothing.utility == pytest.approx(0.1398091777451297, rel=1e-12)
        assert noise.satisfies_privacy and smoothing.satisfies_privacy
        assert result.report.chosen == "geo-indistinguishability(epsilon=0.05)"
        assert result.dataset.n_records == 111803
        assert dataset_sha256(result.dataset) == (
            "198e57fb25b474991e544c0031adf3347d8d8918a2790ea810ee4e4d28fa3848"
        )
