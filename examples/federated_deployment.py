#!/usr/bin/env python
"""Federated deployment: one experiment, two communities, one dataset.

"One of the benefits of building a common platform like APISENSE lies in
the federation of communities of mobile users" (Section 2).  Two cities
run their own Hives, federated through a
:class:`~repro.federation.FederationRouter`; a scientist's Honeycomb in
city A syndicates its task to city B's community as well, and all data
flows back to the one endpoint.  The operator watches the whole
federation through one :func:`~repro.federation.federation_snapshot`,
and reads the merged result through one
:class:`~repro.federation.FederatedDataset` query.

Devices here are registered *directly* on their city's Hive — geographic
homing is this deployment's placement policy; see
``examples/federated_scaleout.py`` for ring-placed elastic crowds.

Run:  python examples/federated_deployment.py
"""

import numpy as np

from repro.apisense import Hive, Honeycomb, SensingTask, Transport
from repro.apisense.battery import Battery, BatteryModel
from repro.apisense.device import MobileDevice
from repro.apisense.sensors import default_sensor_suite
from repro.federation import FederatedDataset, FederationRouter, federation_snapshot
from repro.geo.point import GeoPoint
from repro.mobility import CityConfig, GeneratorConfig, MobilityGenerator
from repro.simulation import Simulator
from repro.units import DAY, HOUR

CITIES = {
    "bordeaux": CityConfig(center=GeoPoint(44.8378, -0.5792)),
    "lyon": CityConfig(center=GeoPoint(45.7640, 4.8357)),
}


def build_hive(sim: Simulator, name: str, config: CityConfig, seed: int) -> Hive:
    population = MobilityGenerator(
        GeneratorConfig(n_users=8, n_days=2, sampling_period=300.0, city=config)
    ).generate(seed=seed)
    rng = np.random.default_rng(seed)
    suite = default_sensor_suite(population.city, rng)
    hive = Hive(sim, seed=seed)
    for index, trajectory in enumerate(population.dataset):
        hive.register_device(
            MobileDevice(
                device_id=f"{name}-dev-{index}",
                user=f"{name}:{trajectory.user}",
                trajectory=trajectory.renamed(f"{name}:{trajectory.user}"),
                sensors=suite,
                battery=Battery(BatteryModel(), level=float(rng.uniform(0.5, 1.0))),
                seed=seed * 1000 + index,
            )
        )
    return hive


def main() -> None:
    sim = Simulator()
    # Inter-city control traffic rides a lossy wide-area link.
    router = FederationRouter(
        sim,
        control_transport=Transport(
            latency_mean=0.08, latency_jitter=0.02, loss=0.02, seed=1
        ),
    )
    for seed, (name, config) in enumerate(CITIES.items(), start=1):
        router.join(name, build_hive(sim, name, config, seed))
    print(f"federation: {router.member_names}, {router.total_devices()} devices\n")

    owner = Honeycomb("mobility-lab", router.hive("bordeaux"))
    task = SensingTask(
        name="multi-city-mobility",
        sensors=("gps",),
        sampling_period=300.0,
        upload_period=1800.0,
        end=2 * DAY,
    )
    receipt = router.syndicate(task, owner, home="bordeaux")
    print(
        f"syndicated {receipt.task!r} from {receipt.home_hive}: "
        f"{receipt.home_offers} home offers, {receipt.announcements} partner "
        f"announcements over the control plane\n"
    )

    # Mid-campaign: the whole federation on one dashboard.
    sim.run_until(12 * HOUR)
    print(federation_snapshot(router, sim.now).to_text())
    print()

    # Finish and inspect the merged dataset — the owner's mobility
    # dataset and the federated columnar query plane.
    sim.run_until(2 * DAY + HOUR)
    for name in router.member_names:
        router.hive(name).pipeline.flush_all()

    collected = owner.mobility_dataset(task.name)
    per_city: dict[str, int] = {}
    for user in collected.users:
        city = user.split(":")[0]
        per_city[city] = per_city.get(city, 0) + 1
    print(
        f"collected {collected.n_records} records from {len(collected)} users "
        f"across cities: {per_city}"
    )
    for name, stats in router.task_stats(task.name).items():
        print(
            f"  {name}: offers={stats.offers} accepted={stats.acceptances} "
            f"records={stats.records}"
        )

    federated = FederatedDataset.from_router(router)
    print()
    print(federated.aggregate(task.name).to_text())
    day0 = federated.scan(task.name, t0=0.0, t1=DAY)
    print(f"federated day-0 scan: {len(day0)} records")


if __name__ == "__main__":
    main()
