"""``repro privacy``: the privacy tier's secure aggregation::

    repro privacy demo --devices 20 --dropouts 3 [--protocol masking]

``demo`` exits 1 if the secure sum misses the plaintext one.
"""

from __future__ import annotations

import argparse

from repro.cli import common


def cmd_privacy_demo(args: argparse.Namespace) -> int:
    """Run one secure-aggregation session with mid-session dropouts."""
    import random

    from repro.privacy.secure_aggregation import (
        ParticipantProfile,
        SecureAggregationPolicy,
        SecureAggregationSession,
    )
    from repro.simulation import FaultInjector, Simulator

    rng = random.Random(args.seed)
    profiles = [
        ParticipantProfile(f"device-{i:03d}", battery=rng.uniform(0.05, 1.0))
        for i in range(args.devices)
    ]
    readings = {p.participant_id: [round(rng.uniform(-30.0, -90.0), 3)] for p in profiles}
    policy = SecureAggregationPolicy(
        protocol=args.protocol,
        key_bits=args.key_bits,
        paillier_battery_floor=args.battery_floor,
        dropout_threshold=0.5,
    )
    sim = Simulator()
    faults = FaultInjector(sim)
    session = SecureAggregationSession(
        "privacy-demo",
        profiles,
        components=("signal_dbm",),
        policy=policy,
        rng=random.Random(args.seed + 1),
        faults=faults,
    )
    session.setup()
    print(
        f"session over {args.devices} devices: "
        f"{len(session.paillier_cohort)} paillier / "
        f"{len(session.masking_cohort)} masking"
        + (f" (Shamir threshold {session.threshold})" if session.threshold else "")
    )
    victims = rng.sample(sorted(readings), k=min(args.dropouts, args.devices - 1))
    for victim in victims:
        faults.schedule_outage(f"device:{victim}", at=60.0)
    sim.run()
    if victims:
        print(f"killed mid-session: {', '.join(victims)}")

    result = session.run(readings)
    expected = sum(v[0] for pid, v in readings.items() if pid not in result.dropped)
    secure = result.sum("signal_dbm")
    print(
        f"secure sum over {result.contributors} survivors: {secure:.3f} "
        f"(plaintext {expected:.3f}, |error| {abs(secure - expected):.2e})"
    )
    note = "the aggregator handled only ciphertexts and masked integers"
    if session.masking_cohort and any(
        pid in session.masking_cohort for pid in result.dropped
    ):
        note += "; dropped devices' masks were cancelled via Shamir shares"
    print(note)
    return 0 if abs(secure - expected) < 0.5 * max(1, result.contributors) / 1000.0 + 1e-9 else 1


def init_subparser(subparsers) -> None:
    verbs = common.command_group(
        subparsers, "privacy", "Privacy-tier operations (secure aggregation)"
    )
    demo = common.command(verbs, "demo", cmd_privacy_demo, common.SEED)
    demo.add_argument("--devices", type=int, default=12)
    demo.add_argument("--dropouts", type=int, default=2)
    demo.add_argument("--protocol", default="auto", choices=["auto", "paillier", "masking"])
    demo.add_argument("--key-bits", type=int, default=256)
    demo.add_argument(
        "--battery-floor",
        type=float,
        default=0.3,
        help="devices below this battery level use the masking protocol",
    )
