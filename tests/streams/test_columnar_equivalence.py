"""Differential test: the columnar flush path == per-record semantics.

Two stacks take the same seeded uploads: the real one (one columnized
``RecordBatch`` per flush, numpy bucketing, batch-fed sketches) and the
per-record oracle of ``tests/streams/reference.py``.  They must end with
the same store (all five columns, segment and per-shard counts), the
same late-record count, and per pane and per window the same records,
users, cells and value count, the same value sum (the columnar fold adds
a pane's values pairwise, the oracle left to right: equal to a float64
rounding tolerance fixed here beforehand) and *exactly* the same P²
marker state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.apisense.device import SensorRecord
from repro.geo.bbox import BoundingBox
from repro.geo.grid import SpatialGrid
from repro.geo.point import GeoPoint
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import StreamEngine, WindowSpec
from tests.store.reference import sketch_state
from tests.streams.reference import ReferenceEngine, ReferenceStore

TASKS = ("noise", "air", "wifi")
PANE = 60.0
#: Pairwise vs left-to-right float64 sums of <= a few thousand values
#: of magnitude <= 1e2 differ by well under n * eps * sum.
SUM_TOLERANCE = dict(rel=1e-12, abs=1e-9)

AREA = BoundingBox(south=44.80, west=-0.62, north=44.88, east=-0.54)


def sensor_values(rng: np.random.Generator) -> dict[str, object]:
    """One record's payload: every shape ``columnize`` must tell apart."""
    values: dict[str, object] = {}
    kind = int(rng.integers(0, 10))
    level = float(rng.uniform(0.0, 100.0))
    if kind == 9:
        values["level"] = level  # the scalar listed before the fix
    if rng.random() < 0.8:
        # Some fixes fall outside AREA, so a grid engine clamps them.
        values["gps"] = GeoPoint(
            float(rng.uniform(AREA.south - 0.01, AREA.north + 0.01)),
            float(rng.uniform(AREA.west - 0.01, AREA.east + 0.01)),
        )
    if kind <= 2:
        values["level"] = level
    elif kind == 3:
        values["count"] = int(rng.integers(-5, 50))
    elif kind == 4:
        values["level"] = np.float32(level)
    elif kind == 5:
        values["count"] = np.int64(rng.integers(0, 50))
    elif kind == 6:
        values["charging"] = bool(rng.integers(0, 2))  # skipped: not a value
        values["level"] = level
    elif kind == 7:
        values["charging"] = np.bool_(True)
        values["network"] = "wifi"  # no scalar at all
    return values  # kind 8: nothing but (maybe) the fix


def make_uploads(seed: int, n_uploads: int = 60, traced_every: int = 0):
    """``(sim time, records)`` uploads: a few devices, mixed tasks, with
    stragglers far enough behind to find their pane closed."""
    rng = np.random.default_rng(seed)
    uploads = []
    for k in range(n_uploads):
        at = 40.0 * k
        user = f"user-{int(rng.integers(0, 7))}"
        size = int(rng.choice([1, 2, 5, 12, 40]))
        trace_id = k + 1 if traced_every and k % traced_every == 0 else None
        records = []
        for _ in range(size):
            time = at - float(rng.uniform(0.0, 150.0))
            if rng.random() < 0.04:
                time -= 15 * PANE  # late
            records.append(
                SensorRecord(
                    device_id=f"dev-{user}",
                    user=user,
                    # Mostly one task per upload, sometimes mixed.
                    task=str(rng.choice(TASKS)) if rng.random() < 0.3 else TASKS[k % 3],
                    time=max(0.0, time),
                    values=sensor_values(rng),
                    trace_id=trace_id,
                )
            )
        uploads.append((at, records))
    return uploads


class Stack:
    def __init__(self, reference: bool, views, n_shards: int = 2, grid=None):
        self.sim = Simulator()
        store_type = ReferenceStore if reference else DatasetStore
        engine_type = ReferenceEngine if reference else StreamEngine
        self.store = store_type(n_shards=n_shards, segment_capacity=64)
        self.pipeline = IngestPipeline(self.sim, self.store, flush_delay=90.0)
        self.engine = engine_type(
            sim=self.sim, pane_seconds=PANE, allowed_lateness=3 * PANE, grid=grid
        ).attach(self.pipeline)
        for name, spec in views:
            self.engine.register_view(name, spec)
        self.windows: list = []
        self.engine.on_window(self.windows.append)
        self.flush_sizes: list[int] = []
        self.pipeline.add_listener(lambda batch: self.flush_sizes.append(len(batch)))

    def upload_all(self, uploads) -> None:
        """Through the pipeline: flushes coalesce uploads per shard."""
        for at, records in uploads:
            self.sim.run_until(at)
            self.pipeline.submit(records)
        self.sim.run()
        self.pipeline.flush_all()

    def hand_over(self, uploads) -> None:
        """Plain record lists straight into ``append``/``on_flush``:
        un-routed (mixed-shard) input, columnized at entry."""
        for at, records in uploads:
            self.sim.run_until(at)
            self.store.append(records, ingest_time=self.sim.now)
            self.engine.on_flush(records)


VIEWS = {
    "tumbling": (("m1", WindowSpec.tumbling(PANE)),),
    "sliding": (("m1", WindowSpec.tumbling(PANE)), ("m5/1", WindowSpec.sliding(5 * PANE, PANE))),
}


def both(views, drive, **kwargs) -> tuple[Stack, Stack]:
    stacks = (Stack(True, views, **kwargs), Stack(False, views, **kwargs))
    for stack in stacks:
        drive(stack)
    return stacks


def assert_same_columns(a, b) -> None:
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.lat, b.lat, equal_nan=True)
    assert np.array_equal(a.lon, b.lon, equal_nan=True)
    assert np.array_equal(a.value, b.value, equal_nan=True)
    assert a.user_names() == b.user_names()


def assert_same_store(reference: DatasetStore, store: DatasetStore) -> None:
    assert store.n_records == reference.n_records
    assert store.tasks == reference.tasks
    assert sorted(store.users) == sorted(reference.users)
    expected, got = reference.stats(), store.stats()
    assert (got.segments, got.sealed_segments) == (expected.segments, expected.sealed_segments)
    assert [(s.records, s.segments, s.tasks) for s in got.per_shard] == [
        (s.records, s.segments, s.tasks) for s in expected.per_shard
    ]
    for task in reference.tasks:
        assert_same_columns(reference.scan(task), store.scan(task))
        for user in reference.users:
            assert_same_columns(reference.scan_user(task, user), store.scan_user(task, user))
        want, have = reference.aggregate(task), store.aggregate(task)
        assert (have.records, have.gps_records, have.cells) == (
            want.records, want.gps_records, want.cells
        )
        assert {store.users[i] for i in have.user_ids} == {
            reference.users[i] for i in want.user_ids
        }
        assert (have.lag_count, have.lag_sum, have.lag_max) == (
            want.lag_count, want.lag_sum, want.lag_max
        )
        assert (have.lag_p50, have.lag_p95, have.lag_p99) == (
            want.lag_p50, want.lag_p95, want.lag_p99
        )


def assert_same_fold(want, have, want_values, want_lags, have_values, have_lags) -> None:
    """One pane or one window: counts, sets, sums, exact sketch state."""
    assert have.records == want.records
    assert dict(have.user_counts) == dict(want.user_counts)
    assert set(have.cells) == set(want.cells)
    assert have.value_count == want.value_count
    assert have.value_sum == pytest.approx(want.value_sum, **SUM_TOLERANCE)
    for p in want_values:
        assert sketch_state(have_values[p]) == sketch_state(want_values[p])
        assert sketch_state(have_lags[p]) == sketch_state(want_lags[p])


def assert_same_panes(reference: StreamEngine, engine: StreamEngine) -> None:
    assert {t: sorted(p) for t, p in engine._panes.items()} == {
        t: sorted(p) for t, p in reference._panes.items()
    }
    for task, panes in reference._panes.items():
        for index, want in panes.items():
            have = engine._panes[task][index]
            assert_same_fold(
                want, have,
                want.value_sketches, want.lag_sketches,
                have.value_sketches, have.lag_sketches,
            )


def assert_same_windows(reference: Stack, stack: Stack) -> None:
    assert vars(stack.engine.stats) == vars(reference.engine.stats)
    assert len(stack.windows) == len(reference.windows)
    for want, have in zip(reference.windows, stack.windows):
        assert (have.task, have.view, have.start, have.end) == (
            want.task, want.view, want.start, want.end
        )
        assert_same_fold(
            want, have,
            want.value_quantiles, want.lag_quantiles,
            have.value_quantiles, have.lag_quantiles,
        )


def assert_equivalent(reference: Stack, stack: Stack) -> None:
    assert stack.flush_sizes == reference.flush_sizes
    assert_same_store(reference.store, stack.store)
    assert_same_panes(reference.engine, stack.engine)  # still-open panes
    reference.engine.finalize()
    stack.engine.finalize()
    assert_same_windows(reference, stack)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("views", sorted(VIEWS))
def test_pipeline_flushes_fold_like_the_per_record_path(seed, views):
    uploads = make_uploads(seed)
    reference, stack = both(VIEWS[views], lambda s: s.upload_all(uploads))
    # The scenario is the one the issue asks for, not a degenerate one.
    assert reference.engine.stats.late_records > 0
    assert len(reference.store.tasks) == len(TASKS)
    assert max(reference.flush_sizes) > 40 and len(reference.windows) > 20
    assert any(w.value_count not in (0, w.records) for w in reference.windows)
    assert_equivalent(reference, stack)


def test_spatial_grid_engine_buckets_the_same_cells():
    grid = SpatialGrid(AREA, cell_size_m=400.0)
    uploads = make_uploads(seed=4)
    reference, stack = both(VIEWS["sliding"], lambda s: s.upload_all(uploads), grid=grid)
    cells = set().union(*(w.cells for w in reference.windows))
    assert len(cells) > 20
    assert all(0 <= r < grid.rows and 0 <= c < grid.cols for r, c in cells)
    assert_equivalent(reference, stack)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_plain_lists_take_the_same_path_at_every_size(n_shards):
    """Empty, single-record and mixed-shard lists handed straight to
    ``append``/``on_flush`` (no pipeline, no shard given)."""
    uploads = make_uploads(seed=5)
    uploads[3] = (uploads[3][0], [])  # an empty hand-over
    uploads[4] = (uploads[4][0], uploads[4][1][:1])  # a single record
    # Coalesce pairs so one list spans users (hence shards) and tasks.
    merged = [
        (b_at, a + b) for (_, a), (b_at, b) in zip(uploads[10::2], uploads[11::2])
    ]
    sequence = uploads[:10] + merged
    reference, stack = both(
        VIEWS["sliding"], lambda s: s.hand_over(sequence), n_shards=n_shards
    )
    assert any(len(records) == 0 for _, records in sequence)
    assert any(len(records) == 1 for _, records in sequence)
    assert_equivalent(reference, stack)


def test_record_paths_are_unchanged_under_tracing():
    uploads = make_uploads(seed=6, traced_every=3)
    stacks, logs = [], []
    try:
        for is_reference in (True, False):
            # Each stack's tiers keep the tracer they were built under.
            obs.reset(metrics=True, tracing=True)
            obs.configure(sample_rate=1.0)
            logs.append(obs.tracer().log)
            stacks.append(Stack(is_reference, VIEWS["sliding"]))
            stacks[-1].upload_all(uploads)
    finally:
        obs.reset(metrics=True, tracing=False)
    assert_equivalent(*stacks)
    reference, columnar = (
        {
            key: {stage: len(spans) for stage, spans in stages.items()}
            for key, stages in obs.record_paths(log).items()
        }
        for log in logs
    )
    traced = {
        (r.trace_id, r.time) for _, records in uploads for r in records
        if r.trace_id is not None
    }
    assert set(reference) == traced and len(traced) > 100
    assert any(stages.get("stream.window", 0) > 1 for stages in reference.values())
    assert columnar == reference
