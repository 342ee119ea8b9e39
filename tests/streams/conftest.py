"""Shared helpers for the streaming tier tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import PaneStats, StreamEngine


@pytest.fixture()
def sim() -> Simulator:
    return Simulator()


def build_stream(
    sim: Simulator,
    n_shards: int = 2,
    flush_delay: float = 0.5,
    pane_seconds: float = 60.0,
    allowed_lateness: float = 0.0,
    **engine_kwargs,
) -> tuple[DatasetStore, IngestPipeline, StreamEngine]:
    """A pipeline + store + attached engine on one simulator."""
    store = DatasetStore(n_shards=n_shards, segment_capacity=512)
    pipeline = IngestPipeline(sim, store, flush_delay=flush_delay)
    engine = StreamEngine(
        sim=sim,
        pane_seconds=pane_seconds,
        allowed_lateness=allowed_lateness,
        **engine_kwargs,
    ).attach(pipeline)
    return store, pipeline, engine


def replay(sim: Simulator, pipeline: IngestPipeline, records, batch: int = 20) -> None:
    """Submit ``records`` (time-sorted) at their own timestamps."""
    for start in range(0, len(records), batch):
        chunk = records[start : start + batch]
        sim.run_until(max(sim.now, chunk[0].time))
        pipeline.submit(chunk)
    sim.run()
    pipeline.flush_all()


def fill_pane(stats: PaneStats, users, cells=(), values=(), lags=None) -> PaneStats:
    """Fold per-record rows into a pane's fields.

    ``cells``/``values`` may be shorter than ``users`` or hold ``None``
    (no fix / no scalar); ``lags`` is per record or ``None`` (untracked).
    """
    for user in users:
        stats.user_counts[user] = stats.user_counts.get(user, 0) + 1
    stats.records += len(users)
    stats.cells.update(cell for cell in cells if cell is not None)
    finite = np.array([v for v in values if v is not None], dtype=np.float64)
    stats.value_count += len(finite)
    stats.value_sum += float(finite.sum())
    stats.value_sketch.extend(finite)
    if lags is not None:
        stats.lag_sketch.extend(np.array(lags, dtype=np.float64))
    return stats
