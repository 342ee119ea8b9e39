"""Pinned generator output: what ``generate`` produces, bit for bit.

Every pinned figure of the repository (the PRIVAPI audit, the device
campaign, the e2e benchmark's inputs) starts from a generated
population, so the generator's output is pinned here on its own: a
sha256 over the users in dataset order and the IEEE-754 bytes of each
trace's time, lat and lon columns, for three shapes at seeds 2014 and
7919.  The generator is built as columns; this file also pins that it
builds no ``Record`` and no ``GeoPoint`` beyond its city's places.  A
digest or count that moves is a finding to report, not a constant to
update.

CI runs this file again under ``PYTHONHASHSEED=0`` and ``=1``: set and
dict iteration order may not leak into a generated population.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.geo.point import GeoPoint, Record
from repro.mobility.dataset import MobilityDataset
from repro.mobility.generator import GeneratorConfig, MobilityGenerator

CONFIGS = {
    "40x4@120": GeneratorConfig(n_users=40, n_days=4, sampling_period=120.0),
    "6x3@120": GeneratorConfig(n_users=6, n_days=3, sampling_period=120.0),
    "4x2@60-dropout": GeneratorConfig(
        n_users=4, n_days=2, sampling_period=60.0, dropout=0.3
    ),
}

DIGESTS = {
    ("40x4@120", 2014):
        "5d29f679f31698098760b102e0d938c58e046aee8a538c55e99908ea72901c67",
    ("40x4@120", 7919):
        "d1dec813428813dfa5c8c5816618e34819e5757efe96e56fe9be5d45f89021af",
    ("6x3@120", 2014):
        "76cbe37e331aca28a51f143dcd4f2c6fd1f7ebb42f76afd368247fec2934a2d6",
    ("6x3@120", 7919):
        "dbc1abbb2dd6405c2ba8a442d6a5c4b128c77bf008ee4dab833802bf99316ad4",
    ("4x2@60-dropout", 2014):
        "a8cb3e0612d92eb3da95a41a7dc5c724945f6b9425f504a023169f00aec10df5",
    ("4x2@60-dropout", 7919):
        "32d36890686194b47ff1a61a79e9d7fd2134b8e47c5552fa87794613f5241f51",
}


def digest(dataset: MobilityDataset) -> str:
    sha = hashlib.sha256()
    for trajectory in dataset:
        sha.update(trajectory.user.encode())
        for column in trajectory.columns:
            sha.update(column.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize(("name", "seed"), sorted(DIGESTS))
def test_generated_population_is_pinned(name, seed):
    dataset = MobilityGenerator(CONFIGS[name]).generate(seed=seed).dataset
    assert digest(dataset) == DIGESTS[name, seed]


def test_generate_builds_no_record_and_no_point_per_fix(monkeypatch):
    generator = MobilityGenerator(CONFIGS["6x3@120"])
    built: Counter[str] = Counter()
    for cls in (Record, GeoPoint):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    population = generator.generate(seed=2014)
    city = population.city
    places = len(city.residential) + len(city.workplaces) + len(city.leisure)
    assert population.dataset.n_records > 0
    assert (built["Record"], built["GeoPoint"]) == (0, places)
