"""What one PRIVAPI publication costs in scalar objects, as exact counts.

A protected trace travels from its column kernel through pseudonymising,
the attack and the utility score as arrays; only a mechanism that writes
``Record`` objects itself (speed smoothing re-timestamps its resampled
points) builds any.  The counts are those of one ``publish`` at the e2e
benchmark's shape, built as ``test_privapi_pinned.py`` builds it.  A
count that moves is a finding to report, not a number to update.
"""

from __future__ import annotations

from collections import Counter

from repro.core import CrowdedPlacesObjective, PrivacyRequirement, PrivApi, default_registry
from repro.geo.point import GeoPoint, Record
from repro.mobility.generator import GeneratorConfig, MobilityGenerator

#: (Record, GeoPoint) constructions of one publish at seed 2014.
RECORDS, POINTS = 2244, 5475


def test_publish_builds_records_only_where_a_mechanism_writes_them(monkeypatch):
    config = GeneratorConfig(n_users=6, n_days=3, sampling_period=120.0)
    dataset = MobilityGenerator(config).generate(seed=2014).dataset
    built: Counter[str] = Counter()
    for cls in (Record, GeoPoint):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    result = PrivApi(default_registry(), seed=2014).publish(
        dataset,
        PrivacyRequirement(max_poi_recall=0.25, max_reidentification=0.5),
        CrowdedPlacesObjective(),
    )
    assert result.dataset is not None
    assert (built["Record"], built["GeoPoint"]) == (RECORDS, POINTS)
