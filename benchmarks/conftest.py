"""Shared benchmark fixtures.

One session-scoped population serves every experiment so results are
comparable across benches; its size (20 users x 8 days) is the laptop-
scale equivalent of the paper's deployment data.
"""

from __future__ import annotations

import pytest

from repro.mobility.generator import GeneratorConfig, MobilityGenerator, PopulationData
from repro.units import DAY


@pytest.fixture(scope="session")
def population() -> PopulationData:
    config = GeneratorConfig(n_users=20, n_days=8, sampling_period=120.0)
    return MobilityGenerator(config).generate(seed=2014)


@pytest.fixture(scope="session")
def attack_split(population):
    """Background (attacker knowledge) and target halves of the data."""
    dataset = population.dataset
    return dataset.slice_time(0, 4 * DAY), dataset.slice_time(4 * DAY, 8 * DAY)


def record_rows(benchmark, rows: list[dict], **extra) -> None:
    """Attach experiment rows to the benchmark JSON and print them."""
    benchmark.extra_info["rows"] = rows
    for key, value in extra.items():
        benchmark.extra_info[key] = value
    print()
    for row in rows:
        print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
