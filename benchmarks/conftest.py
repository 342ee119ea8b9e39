"""Shared benchmark fixtures.

One session-scoped population serves every experiment so results are
comparable across benches; its size (20 users x 8 days) is the laptop-
scale equivalent of the paper's deployment data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.mobility.generator import GeneratorConfig, MobilityGenerator, PopulationData
from repro.units import DAY


#: ``REPRO_BENCH_ENFORCE=1`` makes a bench run a *measurement*: the
#: wall-clock budgets are asserted and the tracked ``BENCH_*.json`` are
#: rewritten.  The CI ``metrics-overhead`` and ``benchmarks`` jobs set
#: it on a runner of their own; tier-1 does not, so it checks what the
#: benches compute (counts, exactly-once, live == batch), never how
#: fast the host happened to be, and leaves the working tree clean.
ENFORCE_BUDGETS = os.environ.get("REPRO_BENCH_ENFORCE") == "1"


def write_tracked(path: Path, payload: dict) -> None:
    """Rewrite one tracked ``BENCH_*.json`` (measurement runs only)."""
    if ENFORCE_BUDGETS:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
