#!/usr/bin/env python
"""A network-quality crowd-sensing campaign with secure aggregation.

Reproduces the paper's motivating "network quality application": a
Honeycomb deploys a task sampling RSSI + GPS on a simulated crowd, a
virtual sensor orchestrates on-demand reads energy-awarely, and the mean
RSSI per neighbourhood is computed through the Paillier secure-sum
protocol — the platform operator never sees an individual reading.

Run:  python examples/network_quality_campaign.py
"""

import random
from collections import defaultdict

import numpy as np

from repro.apisense import (
    Campaign,
    CampaignConfig,
    EnergyAwareStrategy,
    SensingTask,
    VirtualSensor,
    WinWinIncentive,
)
from repro.crypto import DeviceContributor, ObliviousAggregator, QueryCoordinator
from repro.geo import SpatialGrid
from repro.mobility import GeneratorConfig, MobilityGenerator
from repro.units import DAY


def main() -> None:
    population = MobilityGenerator(
        GeneratorConfig(n_users=20, n_days=3, sampling_period=120.0)
    ).generate(seed=7)

    # --- Deploy the campaign --------------------------------------------
    campaign = Campaign(
        population,
        incentive=WinWinIncentive(),
        config=CampaignConfig(n_days=3, seed=1),
    )
    task = SensingTask(
        name="net-quality",
        sensors=("network", "gps"),
        sampling_period=300.0,
        upload_period=3600.0,
        end=3 * DAY,
    )
    honeycomb = campaign.deploy(task)
    report = campaign.run()
    print(
        f"campaign done: {report.total_records} records from "
        f"{report.n_devices} devices "
        f"(acceptance {report.acceptance_rate_per_task['net-quality']:.0%}, "
        f"mean motivation {report.mean_motivation:.2f})"
    )

    # --- Virtual sensor: orchestrated on-demand reads --------------------
    vsensor = VirtualSensor(
        "city-network",
        "network",
        campaign.devices,
        EnergyAwareStrategy(alpha=2.0),
        campaign.sim,
        seed=3,
    )
    for _ in range(50):
        vsensor.read()
    print(
        f"virtual sensor: {vsensor.stats.reads_served}/50 on-demand reads "
        f"served, battery fairness {vsensor.battery_fairness():.3f}"
    )

    # --- Secure aggregation: mean RSSI per neighbourhood -----------------
    grid = SpatialGrid(population.city.bounding_box, cell_size_m=2000.0)
    coordinator = QueryCoordinator(key_bits=512, rng=random.Random(5))
    contributor = DeviceContributor(random.Random(6))

    # The store keeps RSSI, the task's only scalar, as its value column.
    view = honeycomb.dataset_view("net-quality")
    read = ~np.isnan(view.lat) & ~np.isnan(view.value)
    rows, cols = grid.cells_of(view.lat[read], view.lon[read])
    per_cell: dict[tuple[int, int], list[float]] = defaultdict(list)
    for row, col, rssi in zip(rows.tolist(), cols.tolist(), view.value[read].tolist()):
        per_cell[(row, col)].append(rssi)

    print("\nmean RSSI per 2 km neighbourhood (computed under encryption):")
    for cell, readings in sorted(per_cell.items(), key=lambda kv: -len(kv[1]))[:8]:
        query = coordinator.open_query(f"rssi-{cell[0]}-{cell[1]}")
        aggregator = ObliviousAggregator(query)
        for reading in readings:
            aggregator.accept(contributor.contribute_value(query, reading))
        mean = coordinator.decrypt_mean(
            query, aggregator.scalar_result(), aggregator.count
        )
        print(f"  cell {cell}: {mean:7.1f} dBm   ({len(readings)} encrypted readings)")


if __name__ == "__main__":
    main()
