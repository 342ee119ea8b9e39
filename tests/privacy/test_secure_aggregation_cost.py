"""What a secure-aggregation round costs, as counts rather than seconds.

Each protocol's scaling in the fleet size is a property of its
mechanism, and a mechanism is countable:

- **Paillier is linear.**  A device encrypts each component once, so a
  round over ``n`` devices and ``c`` components runs exactly ``c * n``
  encryptions, whatever the key size or the host.
- **Pairwise masking is quadratic.**  Each of ``n`` devices blinds each
  component with one mask per other device, so a non-resilient round
  derives exactly ``c * n * (n - 1)`` pairwise masks.

Small fleets suffice: the counts are exact at any size.  The secure sums
are checked against the plaintext fold beside the counts, so a round
cannot get cheaper by getting wrong.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import masking
from repro.crypto.paillier import PaillierPublicKey
from repro.privacy.secure_aggregation import (
    ParticipantProfile,
    SecureAggregationPolicy,
    SecureAggregationSession,
)
from tests.conftest import Calls

FLEET_SIZES = (10, 20, 40)
COMPONENTS = ("records", "value_count", "value_sum")


def run_round(protocol: str, n: int) -> None:
    """One non-resilient round over ``n`` devices, checked against plaintext."""
    rng = random.Random(n)
    profiles = [ParticipantProfile(f"dev-{i:04d}", battery=0.9) for i in range(n)]
    contributions = {
        p.participant_id: [
            float(rng.randint(1, 40)),
            float(rng.randint(0, 30)),
            round(rng.uniform(-50.0, 50.0), 3),
        ]
        for p in profiles
    }
    session = SecureAggregationSession(
        "cost",
        profiles,
        components=COMPONENTS,
        policy=SecureAggregationPolicy(protocol=protocol, key_bits=256, resilient=False),
        rng=random.Random(7),
    )
    result = session.run(contributions)
    for index, label in enumerate(COMPONENTS):
        truth = sum(vector[index] for vector in contributions.values())
        assert result.sum(label) == pytest.approx(truth, abs=1e-6)


def count_per_fleet(calls: Calls, protocol: str, key: str) -> dict[int, int]:
    counts = {}
    for n in FLEET_SIZES:
        calls.clear()
        run_round(protocol, n)
        counts[n] = calls[key]
    return counts


def test_paillier_encrypts_once_per_component_per_device(calls, monkeypatch):
    calls.shim(monkeypatch, PaillierPublicKey, "encrypt")
    counts = count_per_fleet(calls, "paillier", "encrypt")
    assert counts == {n: len(COMPONENTS) * n for n in FLEET_SIZES}


def test_masking_derives_one_mask_per_ordered_pair_per_component(calls, monkeypatch):
    calls.shim(monkeypatch, masking, "_pairwise_mask")
    counts = count_per_fleet(calls, "masking", "pairwise_mask")
    assert counts == {n: len(COMPONENTS) * n * (n - 1) for n in FLEET_SIZES}
