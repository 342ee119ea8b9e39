"""Differential test: the one keyed fold == the per-group fold it replaced.

The stream engine used to fold each (task, pane) group of a flush with
numpy calls of its own, and the store kept a second summary type
(``tests/streams/reference.py``: ``OracleEngine``, ``OraclePane``,
``OracleAggregate``).  On Hypothesis-drawn flushes — several tasks and
users, NaN latitudes, NaN and ±inf values, rows behind the closed pane,
1–30 panes a flush, an engine grid or cell size unlike the store's, no
clock and no ingest time — the keyed fold must leave every pane and
every task's all-time summary with the same records, users, cells,
value count, value and lag sums (bit for bit) and sketch state.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.bbox import BoundingBox
from repro.geo.grid import SpatialGrid
from repro.store import DatasetStore, UploadChunk, batch_of
from repro.streams import StreamEngine, WindowSpec
from tests.streams.reference import OracleAggregate, OracleEngine, OraclePane, oracle_cells

PANE = 60.0
FIRST_PANE = 100
STORE_CELL = 0.005
GRID = SpatialGrid(BoundingBox(south=-10.0, west=-20.0, north=10.0, east=20.0), 50_000.0)
TASKS = ("noise", "air", "wifi")
USERS = ("ana", "bo", "cy", "dee")

values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def flush(draw, n_panes: int):
    """One flush as rows: ``(task, user, time, lat, lon, value)``."""
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        pane = FIRST_PANE + draw(st.integers(-2, n_panes - 1))
        fixed = draw(st.booleans())
        rows.append((
            draw(st.sampled_from(TASKS)),
            draw(st.sampled_from(USERS)),
            pane * PANE + draw(st.floats(0.0, PANE, exclude_max=True)),
            draw(st.floats(-30.0, 30.0)) if fixed else math.nan,
            draw(st.floats(-60.0, 60.0)) if fixed else math.nan,
            draw(values),
        ))
    return rows


@st.composite
def scenario(draw):
    n_panes = draw(st.integers(1, 30))
    return {
        "flushes": draw(st.lists(flush(n_panes), min_size=1, max_size=3)),
        "closed": FIRST_PANE + draw(st.integers(0, 2)),
        "clock": draw(st.booleans()),
        "ahead": draw(st.floats(-100.0, 3000.0)),
        "engine": draw(st.sampled_from(["shared", "coarser", "grid"])),
    }


class Clock:
    now = 0.0


def batch(rows):
    """One chunk per row, so users and tasks interleave row by row."""
    return batch_of(
        UploadChunk.of("device", user, task, [(time, lat, lon, value)])
        for task, user, time, lat, lon, value in rows
    )


def engine_of(cells: str, engine_type, clock):
    engine = engine_type(
        sim=clock,
        pane_seconds=PANE,
        allowed_lateness=1e12,
        cell_deg=0.02 if cells == "coarser" else STORE_CELL,
        grid=GRID if cells == "grid" else None,
    )
    engine.register_view("minute", WindowSpec.tumbling(PANE))
    return engine


def bits(x: float) -> str:
    return float(x).hex()


def assert_same_fold(want, have) -> None:
    assert have.records == want.records
    assert have.user_counts == want.user_counts
    assert have.cells == want.cells
    assert have.value_count == want.value_count
    assert bits(have.value_sum) == bits(want.value_sum)
    assert have.value_sketch.state() == want.value_sketch.state()
    assert have.lag_sketch.state() == want.lag_sketch.state()


@settings(max_examples=120, deadline=None)
@given(scenario())
def test_keyed_fold_equals_the_per_group_fold(case):
    clock = Clock() if case["clock"] else None
    engines = [engine_of(case["engine"], type_, clock) for type_ in (OracleEngine, StreamEngine)]
    for engine in engines:
        engine._closed_pane = case["closed"]
    store = DatasetStore(n_shards=2, coverage_cell_deg=STORE_CELL)
    aggregates: dict[str, OracleAggregate] = {}
    all_time: dict[str, OraclePane] = {}
    user_ids: dict[str, int] = {}

    for rows in case["flushes"]:
        now = max(row[2] for row in rows) + case["ahead"]
        ingest_time = now if case["clock"] else None
        if clock is not None:
            clock.now = now
        for engine in engines:
            engine.on_flush(batch(rows))
        store.append(batch(rows), ingest_time=ingest_time)

        # The store's summary as it was: each task's rows of the flush at once.
        oracle = batch(rows)
        ids = np.array([user_ids.setdefault(u, len(user_ids)) for u in oracle.users])
        for code, task in enumerate(oracle.tasks):
            at = np.flatnonzero(oracle.task_index == code)
            time, lat, lon = oracle.time[at], oracle.lat[at], oracle.lon[at]
            aggregate = aggregates.setdefault(task, OracleAggregate(task, STORE_CELL))
            aggregate.update(time, lat, lon, ids[oracle.user_index[at]], ingest_time)
            users, counts = np.unique(oracle.user_index[at], return_counts=True)
            fix = ~np.isnan(lat)
            value = oracle.value[at]
            all_time.setdefault(task, OraclePane(-math.inf, math.inf)).update_columns(
                [oracle.users[u] for u in users.tolist()],
                counts.tolist(),
                oracle_cells(lat[fix], lon[fix], STORE_CELL),
                value[np.isfinite(value)],
                None if ingest_time is None else np.maximum(0.0, ingest_time - time),
            )

    want_engine, have_engine = engines
    want, have = want_engine._panes, have_engine._panes
    assert {t: sorted(p) for t, p in have.items()} == {t: sorted(p) for t, p in want.items()}
    for task, panes in want.items():
        for index, pane in panes.items():
            assert_same_fold(pane, have[task][index])
    assert vars(have_engine.stats) == vars(want_engine.stats)

    names = list(user_ids)
    assert store.aggregates.tasks == list(aggregates)
    for task, aggregate in aggregates.items():
        summary = store.aggregate(task)
        assert (summary.records, summary.gps_records) == (aggregate.records, aggregate.gps_records)
        assert summary.cells == aggregate.cells
        assert set(summary.user_counts) == {names[i] for i in aggregate.user_ids}
        assert (summary.first_time, summary.last_time) == (aggregate.first_time, aggregate.last_time)
        assert summary.lag_count == aggregate.lag_count
        assert bits(summary.lag_sum) == bits(aggregate.lag_sum)
        assert summary.lag_max == aggregate.lag_max
        assert summary.lag_sketch.state() == aggregate.lag_sketch.state()
        assert_same_fold(all_time[task], summary)

