"""What one flush costs the store and the stream engine, in calls.

A flush's derived columns (``RecordBatch.lags``, ``RecordBatch.cells``)
are computed once and read by both tiers, and both fold rows with one
keyed ``repro.store.summary.fold``: so the numpy calls of a flush, and
of folding it, do not depend on how many panes or tasks it spans (but
that a one-task flush skips the grouping by task).
``cells_of`` runs once per flush when the engine and the store share a
cell size, twice when the engine cells a study-area grid, and an open
segment reduces no bounds on append.

"numpy calls" are the calls repro code makes to numpy functions,
ufuncs, ufunc methods and array methods; operators and indexing are
not calls and are not counted.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import repro
import repro.store.columns
import repro.store.dataset_store
import repro.store.quantiles
import repro.store.segment
import repro.store.summary
import repro.streams.engine
from repro.geo.bbox import BoundingBox
from repro.geo.grid import SpatialGrid
from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline, UploadChunk
from repro.streams import StreamEngine, WindowSpec
from tests.conftest import Calls

PANE = 60.0
ROWS = 48
USERS = 4
START = 3600.0
SHAPES = [(panes, tasks) for panes in (1, 6, 24) for tasks in (1, 2, 3)]
#: The numpy calls of a flush's grouping by task (``group_rows``:
#: argsort, diff, flatnonzero, tolist), which a one-task flush skips.
GROUPING = 4
MODULES = (
    repro.store.columns,
    repro.store.dataset_store,
    repro.store.quantiles,
    repro.store.segment,
    repro.store.summary,
    repro.streams.engine,
)
PACKAGE = os.path.dirname(repro.__file__)


class _Counted:
    """A numpy callable that counts its calls (and its methods')."""

    def __init__(self, real, calls: Calls, key: str):
        self._real, self._calls, self._key = real, calls, key

    def __call__(self, *args, **kwargs):
        self._calls[self._key] += 1
        return self._real(*args, **kwargs)

    def __getattr__(self, name: str):
        attr = getattr(self._real, name)
        return _Counted(attr, self._calls, self._key) if callable(attr) else attr


class _Numpy:
    """Stands in for ``np`` in one module: counts the calls made through it."""

    def __init__(self, calls: Calls, key: str):
        self._calls, self._key = calls, key

    def __getattr__(self, name: str):
        real = getattr(np, name)
        if isinstance(real, type) or not callable(real):
            return real
        return _Counted(real, self._calls, self._key)


@pytest.fixture()
def numpy_calls(calls: Calls, monkeypatch):
    """Count numpy calls from repro code: ``np.*`` calls through each
    module's ``np`` (keyed ``numpy.<module>``), array and ufunc methods
    through a profile hook (keyed ``numpy.methods``)."""
    for module in MODULES:
        monkeypatch.setattr(module, "np", _Numpy(calls, f"numpy.{module.__name__}"))

    def profile(frame, event, arg):
        if (
            event == "c_call"
            and isinstance(getattr(arg, "__self__", None), (np.ndarray, np.ufunc))
            and frame.f_code.co_filename.startswith(PACKAGE)
        ):
            calls["numpy.methods"] += 1

    sys.setprofile(profile)
    yield calls
    sys.setprofile(None)


def numpy_total(calls: Calls) -> int:
    return sum(count for key, count in calls.items() if key.startswith("numpy"))


def uploads(n_panes: int, n_tasks: int) -> list[UploadChunk]:
    """``ROWS`` rows over ``n_panes`` panes, ``n_tasks`` tasks and
    ``USERS`` users: fixes and no fixes, finite, NaN and inf values."""
    rows: dict[tuple[str, str], list] = {}
    for k in range(ROWS):
        time = START + (k * n_panes // ROWS) * PANE + k % 7
        lat, lon = (np.nan, np.nan) if k % 5 == 0 else (44.8 + 0.001 * k, -0.6 + 0.002 * (k % 9))
        value = (np.nan, np.inf, float(k), -float(k))[k % 4]
        key = (f"task-{k % n_tasks}", f"user-{(k // n_tasks) % USERS}")
        rows.setdefault(key, []).append((time, lat, lon, value))
    return [UploadChunk.of("device", user, task, got) for (task, user), got in rows.items()]


def one_flush(n_panes: int, n_tasks: int, calls: Calls, grid=None):
    """Flush the uploads twice; count the second flush (its partitions
    and panes exist), then the fold of what the store and the engine
    parked of it."""
    sim = Simulator()
    store = DatasetStore(n_shards=1)
    pipeline = IngestPipeline(sim, store, flush_delay=1.0)
    engine = StreamEngine(
        sim=sim, pane_seconds=PANE, allowed_lateness=1e9, grid=grid
    ).attach(pipeline)
    engine.register_view("minute", WindowSpec.tumbling(PANE))
    sim.run_until(START + 30 * PANE)
    counted = []
    for _ in range(2):
        for chunk in uploads(n_panes, n_tasks):
            pipeline.submit(chunk)
        calls.clear()
        pipeline.flush_all()
        flush = Calls(calls)
        calls.clear()
        engine._fold_pending()
        store.aggregates.tasks
        counted.append((flush, Calls(calls)))
    spanned = {(k % n_tasks, k * n_panes // ROWS) for k in range(ROWS)}
    assert sum(len(panes) for panes in engine._panes.values()) == len(spanned)
    assert sum(store.aggregate(t).records for t in store.aggregates.tasks) == 2 * ROWS
    return *counted[-1], store


@pytest.fixture()
def cells_counted(numpy_calls: Calls, monkeypatch) -> Calls:
    numpy_calls.shim(monkeypatch, repro.store.columns, "cells_of")
    return numpy_calls


def test_a_flush_cells_its_fixes_once(cells_counted):
    flush, _fold, _store = one_flush(6, 1, cells_counted)
    assert flush["cells_of"] == 1


def test_an_engine_grid_cells_a_flush_a_second_time(cells_counted):
    grid = SpatialGrid(BoundingBox(south=44.7, west=-0.7, north=44.9, east=-0.5), 400.0)
    flush, _fold, _store = one_flush(6, 1, cells_counted, grid=grid)
    assert flush["cells_of"] == 2


def test_numpy_calls_do_not_grow_with_panes_or_tasks(numpy_calls):
    counted = {shape: one_flush(*shape, numpy_calls)[:2] for shape in SHAPES}
    flushes = {shape: numpy_total(flush) for shape, (flush, _fold) in counted.items()}
    folds = {shape: numpy_total(fold) for shape, (_flush, fold) in counted.items()}
    assert min(flushes.values()) > 0 and min(folds.values()) > 0
    grouped = {calls + GROUPING * (tasks == 1) for (_, tasks), calls in flushes.items()}
    assert len(grouped) == 1, flushes
    assert len(set(folds.values())) == 1, folds


def test_an_open_segment_reduces_no_bounds_on_append(numpy_calls):
    flush, _fold, store = one_flush(6, 3, numpy_calls)
    assert flush["numpy.repro.store.segment"] == 0
    numpy_calls.clear()
    segments = [store._shards[0].partitions[task].open for task in store.tasks]
    first = [segment.as_segment() for segment in segments]
    computed = numpy_calls["numpy.repro.store.segment"]
    again = [segment.as_segment() for segment in segments]
    assert computed > 0 and numpy_calls["numpy.repro.store.segment"] == computed
    assert [(s.t_min, s.lat_max) for s in first] == [(s.t_min, s.lat_max) for s in again]
