"""The dataset lifecycle, on ``user,time,lat,lon`` CSV files::

    repro generate  --users 20 --days 7 --out raw.csv
    repro campaign  --users 20 --days 3 --incentive win-win --out collected.csv
    repro protect   --input raw.csv --mechanism speed-smoothing --out prot.csv
    repro attack    --input prot.csv --background raw.csv
    repro evaluate  --raw raw.csv --protected prot.csv
    repro stats     --input raw.csv --geojson traces.geojson
    repro publish   --input raw.csv --max-poi-recall 0.2 --out pub.csv

``publish`` exits 1 when the privacy bar is unmet (strict mode).
"""

from __future__ import annotations

import argparse
import sys

from repro import core, privacy
from repro.cli import common
from repro.mobility import MobilityDataset

OBJECTIVES = {
    "crowded-places": core.CrowdedPlacesObjective,
    "traffic-flow": core.TrafficFlowObjective,
    "distortion": core.DistortionObjective,
}

MECHANISMS = {
    "identity": lambda args: privacy.IdentityMechanism(),
    "speed-smoothing": lambda args: privacy.SpeedSmoothingMechanism(
        epsilon_m=args.epsilon_m
    ),
    "geo-indistinguishability": lambda args: privacy.GeoIndistinguishabilityMechanism(
        epsilon=args.epsilon
    ),
    "spatial-cloaking": lambda args: privacy.SpatialCloakingMechanism(
        cell_size_m=args.cell_m
    ),
    "temporal-downsampling": lambda args: privacy.TemporalDownsamplingMechanism(
        window=args.window_s
    ),
}


def cmd_generate(args: argparse.Namespace) -> int:
    """Synthesize a mobility dataset."""
    dataset = common.population(args, sampling_period=args.period).dataset
    dataset.to_csv(args.out)
    print(f"wrote {dataset.n_records} records for {len(dataset)} users to {args.out}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a simulated campaign."""
    from repro.apisense import incentives

    incentive = {
        "none": incentives.NoIncentive,
        "feedback": incentives.FeedbackIncentive,
        "ranking": incentives.RankingIncentive,
        "reward": incentives.RewardIncentive,
        "win-win": incentives.WinWinIncentive,
    }[args.incentive]()
    campaign, honeycomb = common.build_campaign(
        args, "cli-campaign", incentive=incentive, loss=args.loss
    )
    report = campaign.run()
    print(
        f"campaign: {report.total_records} records from {report.n_devices} devices "
        f"over {report.duration_days:.0f} days"
    )
    print(
        f"acceptance {report.acceptance_rate_per_task['cli-campaign']:.0%}, "
        f"mean motivation {report.mean_motivation:.2f}, "
        f"messages {report.messages_sent}, "
        f"transport loss {campaign.hive.transport.stats.loss_rate:.1%}"
    )
    print(f"daily records: {report.daily_records}")
    if args.out:
        honeycomb.mobility_dataset("cli-campaign").to_csv(args.out)
        print(f"wrote collected mobility data to {args.out}")
    return 0


def cmd_protect(args: argparse.Namespace) -> int:
    """Apply a privacy mechanism."""
    dataset = MobilityDataset.from_csv(args.input)
    mechanism = MECHANISMS[args.mechanism](args)
    protected = mechanism.protect(dataset, seed=args.seed)
    protected.to_csv(args.out)
    print(
        f"{mechanism.name}: {dataset.n_records} -> {protected.n_records} records, "
        f"{len(dataset)} -> {len(protected)} users; wrote {args.out}"
    )
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Run the POI / linkage attacks."""
    dataset = MobilityDataset.from_csv(args.input)
    attack = privacy.PoiAttack(denoise_window=args.denoise_window)
    found = attack.run(dataset)
    total = sum(len(pois) for pois in found.values())
    print(f"POI attack: {total} candidate POIs across {len(found)} users")
    for user, pois in sorted(found.items()):
        tops = ", ".join(f"{p.center}" for p in pois[:3])
        print(f"  {user}: {len(pois)} POIs  top: {tops}")

    if args.background:
        background = MobilityDataset.from_csv(args.background)
        linker = privacy.ReidentificationAttack(
            denoise_window=args.denoise_window
        ).fit(background)
        pseudo, secret = dataset.pseudonymized()
        guesses = {p: r.guessed_user for p, r in linker.link(pseudo).items()}
        # The target already carries real ids here; the pseudonymization
        # is only to exercise the linkage path.
        rate = privacy.reidentification_rate(secret, guesses)
        print(f"re-identification (vs background {args.background}): {rate:.0%}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Utility of protected vs raw."""
    from repro.utility.release_report import evaluate_release

    raw = MobilityDataset.from_csv(args.raw)
    protected = MobilityDataset.from_csv(args.protected)
    report = evaluate_release(
        raw, protected, cell_size_m=args.cell_m, hotspot_k=args.top_k
    )
    print(report.to_text())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Dataset summary statistics."""
    from repro.mobility.stats import summarize

    dataset = MobilityDataset.from_csv(args.input)
    summary = summarize(dataset, cell_size_m=args.cell_m)
    print(summary.to_text())
    if args.geojson:
        from repro.mobility.geojson import dataset_to_geojson, write_geojson

        write_geojson(dataset_to_geojson(dataset), args.geojson)
        print(f"wrote GeoJSON to {args.geojson}")
    return 0


def cmd_publish(args: argparse.Namespace) -> int:
    """Full PRIVAPI publication."""
    dataset = MobilityDataset.from_csv(args.input)
    objective = OBJECTIVES[args.objective]()
    requirement = core.PrivacyRequirement(max_poi_recall=args.max_poi_recall)
    result = core.PrivApi(seed=args.seed).publish(
        dataset, requirement, objective, strict=not args.lenient
    )
    print(result.report.to_text())
    if result.dataset is None:
        print("nothing published (strict mode, bar not met)", file=sys.stderr)
        return 1
    result.dataset.to_csv(args.out)
    print(f"wrote published dataset ({result.dataset.n_records} records) to {args.out}")
    return 0


def init_subparser(subparsers) -> None:
    seed, out = common.SEED, common.out_flag(True)
    population = common.population_flags(users=20, days=7, period=120.0)
    common.command(subparsers, "generate", cmd_generate, population, seed, out)

    protect = common.command(subparsers, "protect", cmd_protect, common.INPUT, seed, out)
    protect.add_argument("--mechanism", default="speed-smoothing", choices=list(MECHANISMS))
    protect.add_argument("--epsilon-m", type=float, default=100.0, help="smoothing step")
    protect.add_argument("--epsilon", type=float, default=0.01, help="geo-ind budget (1/m)")
    protect.add_argument("--cell-m", type=float, default=400.0, help="cloaking cell")
    protect.add_argument("--window-s", type=float, default=900.0, help="downsampling window")

    attack = common.command(subparsers, "attack", cmd_attack, common.INPUT)
    attack.add_argument("--background", help="raw CSV for the linkage attack")
    attack.add_argument("--denoise-window", type=int, default=9)

    evaluate = common.command(subparsers, "evaluate", cmd_evaluate)
    evaluate.add_argument("--raw", required=True)
    evaluate.add_argument("--protected", required=True)
    evaluate.add_argument("--cell-m", type=float, default=500.0)
    evaluate.add_argument("--top-k", type=int, default=15)

    campaign = common.command(
        subparsers,
        "campaign",
        cmd_campaign,
        common.population_flags(users=20, days=3, period=300.0),
        seed,
        common.out_flag(False, "write collected GPS data as CSV"),
    )
    campaign.add_argument(
        "--incentive",
        default="win-win",
        choices=["none", "feedback", "ranking", "reward", "win-win"],
    )
    campaign.add_argument("--loss", type=float, default=0.0, help="uplink loss prob")

    stats = common.command(subparsers, "stats", cmd_stats, common.INPUT)
    stats.add_argument("--cell-m", type=float, default=500.0)
    stats.add_argument("--geojson", help="also export trajectories as GeoJSON")

    publish = common.command(subparsers, "publish", cmd_publish, common.INPUT, seed, out)
    publish.add_argument("--objective", default="crowded-places", choices=sorted(OBJECTIVES))
    publish.add_argument("--max-poi-recall", type=float, default=0.2)
    publish.add_argument("--lenient", action="store_true", help="fall back when bar unmet")
