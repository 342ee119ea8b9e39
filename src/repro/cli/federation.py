"""``repro federation``: one crowd across several Hives::

    repro federation run   --users 40 --days 2 --hives 3 [--fail-hive hive-1]
    repro federation stats --devices 2000 --hives 4
    repro federation query --input raw.csv --hives 4 --t0 0 --t1 86400 [--secure]

``query --secure`` exits 1 if the secure aggregate misses the plaintext
one.
"""

from __future__ import annotations

import argparse

from repro.cli import common


def cmd_federation_run(args: argparse.Namespace) -> int:
    """Run a federated campaign sharded across N hives."""
    import numpy as np

    from repro.apisense.campaign import CampaignConfig, build_fleet
    from repro.apisense.hive import Hive
    from repro.apisense.honeycomb import Honeycomb
    from repro.apisense.transport import Transport
    from repro.federation import FederatedDataset, FederationRouter, federation_snapshot
    from repro.simulation import Simulator
    from repro.units import DAY, HOUR

    crowd = common.population(args, sampling_period=300.0)
    sim = Simulator()
    router = FederationRouter(
        sim,
        control_transport=Transport(
            latency_mean=0.05, latency_jitter=0.01, loss=args.control_loss, seed=args.seed
        ),
    )
    for index in range(args.hives):
        router.join(f"hive-{index}", Hive(sim, seed=args.seed + index))
    fleet_config = CampaignConfig(seed=args.seed)
    for device in build_fleet(crowd, fleet_config, np.random.default_rng(args.seed)):
        router.register_device(device)

    if args.fail_hive:
        router.schedule_failure(
            args.fail_hive,
            at=args.fail_at_hours * HOUR,
            duration=args.fail_for_hours * HOUR if args.fail_for_hours else None,
        )

    owner = Honeycomb("federation-cli", router.hive("hive-0"))
    task = common.sensing_task(args, "federated-campaign")
    receipt = router.syndicate(task, owner, home="hive-0")
    print(
        f"syndicated {receipt.task!r}: {receipt.home_offers} home offers, "
        f"{receipt.announcements} partner announcements"
    )

    sim.run_until(args.days * DAY + HOUR)
    for name in router.member_names:
        router.hive(name).pipeline.flush_all()

    print()
    print(federation_snapshot(router, sim.now).to_text())
    print()
    federated = FederatedDataset.from_router(router)
    print(federated.aggregate(task.name).to_text())
    return 0


def cmd_federation_stats(args: argparse.Namespace) -> int:
    """Consistent-hash placement balance and join stability."""
    from repro.federation import ConsistentHashRing

    ring = ConsistentHashRing(replicas=args.replicas)
    for index in range(args.hives):
        ring.add(f"hive-{index}")
    keys = [f"device-{i:06d}" for i in range(args.devices)]
    spread = ring.spread(keys)
    mean = args.devices / args.hives
    print(
        f"ring: {args.hives} hives x {args.replicas} vnodes, "
        f"{args.devices} devices, mean {mean:.0f}/hive"
    )
    for name in sorted(spread):
        count = spread[name]
        print(f"  {name}: {count} devices ({count / mean:.2f}x mean)")

    grown = ConsistentHashRing(replicas=args.replicas)
    for index in range(args.hives + 1):
        grown.add(f"hive-{index}")
    diff = ring.diff(keys, grown)
    print(
        f"adding hive-{args.hives} re-homes {diff.n_moved} devices "
        f"({diff.n_moved / args.devices:.1%}; ideal 1/{args.hives + 1} = "
        f"{1 / (args.hives + 1):.1%}), all onto the new member: "
        f"{all(new == f'hive-{args.hives}' for _, new in diff.moved.values())}"
    )
    return 0


def cmd_federation_query(args: argparse.Namespace) -> int:
    """Shard a CSV across member stores, query federated."""
    from repro.federation import ConsistentHashRing, FederatedDataset

    ring = ConsistentHashRing()
    stores = {}
    for index in range(args.hives):
        name = f"hive-{index}"
        ring.add(name)
        stores[name] = common.new_store(args)
    by_member: dict[str, list] = {name: [] for name in stores}
    for record in common.csv_records(args):  # time order survives the split
        by_member[ring.place(record.device_id)].append(record)
    for name, records in by_member.items():
        stores[name].append(records)

    federated = FederatedDataset(stores)
    common.scan_and_report(args, federated, f"federated query over {args.hives} hives")
    for name in federated.member_names:
        print(f"  {name}: {stores[name].n_records} records stored")

    if args.secure:
        import random

        import numpy as np

        from repro.privacy.secure_aggregation import SecureAggregationPolicy

        policy = SecureAggregationPolicy(
            protocol=args.secure_protocol, key_bits=args.key_bits
        )
        result = federated.secure_aggregate(
            args.task_name, policy=policy, rng=random.Random(args.task_name)
        )
        print()
        print(result.to_text())
        full = federated.scan(args.task_name)
        finite = full.value[np.isfinite(full.value)]
        tolerance = 0.5 * result.contributors / 1000.0 + 1e-9
        ok = (
            result.records == len(full)
            and result.value_count == len(finite)
            and abs(result.value_sum - float(finite.sum())) <= tolerance
        )
        print(
            f"  plaintext cross-check: {len(full)} records, value sum "
            f"{float(finite.sum()):.3f} -> {'match' if ok else 'MISMATCH'} "
            "(no aggregator saw per-user data)"
        )
        if not ok:
            return 1
    return 0


def init_subparser(subparsers) -> None:
    verbs = common.command_group(
        subparsers, "federation", "Multi-hive scale-out operations (repro.federation)"
    )
    population = common.population_flags(users=24, days=1, period=600.0)
    run = common.command(verbs, "run", cmd_federation_run, population, common.SEED)
    run.add_argument("--hives", type=int, default=3)
    run.add_argument(
        "--control-loss", type=float, default=0.0, help="inter-hive gossip loss prob"
    )
    run.add_argument("--fail-hive", help="inject a failure of this member")
    run.add_argument(
        "--fail-at-hours", type=float, default=6.0, help="outage start (hours)"
    )
    run.add_argument(
        "--fail-for-hours", type=float, default=6.0, help="outage length (0 = forever)"
    )

    stats = common.command(verbs, "stats", cmd_federation_stats)
    stats.add_argument("--devices", type=int, default=2000)
    stats.add_argument("--hives", type=int, default=4)
    stats.add_argument("--replicas", type=int, default=128)

    query = common.command(
        verbs, "query", cmd_federation_query, common.STORE, common.SEGMENTS, common.QUERY
    )
    query.add_argument("--hives", type=int, default=4)
    query.add_argument(
        "--secure",
        action="store_true",
        help="also compute the task aggregate aggregator-obliviously "
        "(secure aggregation across the member stores) and cross-check it",
    )
    query.add_argument(
        "--secure-protocol",
        default="auto",
        choices=["auto", "paillier", "masking"],
        help="per-participant protocol selection (auto = by device profile)",
    )
    query.add_argument("--key-bits", type=int, default=256, help="Paillier modulus size")
