"""What view maintenance costs, as counts rather than seconds.

Views share pane state: per flush the engine folds each live row into
exactly one (task, pane) pane, whatever the number of registered views,
and a view's window is only assembled (its panes merged) when it
closes.  So registering more windowed views must leave the per-record
work flat — the same ``StreamEngine._fold`` calls over the same rows —
and window assembly (``_emit_windows``) may grow with views and closed
panes but never with the records that filled them.
"""

from __future__ import annotations

import pytest

from repro.simulation import Simulator
from repro.store import DatasetStore, IngestPipeline
from repro.streams import StreamEngine, WindowSpec
from tests.conftest import Calls
from tests.store.conftest import make_record

N_DEVICES = 50
UPLOADS = 4
PER_UPLOAD = 6
WINDOW = 1800.0
VIEW_COUNTS = (1, 2, 4, 8)


def uploads(per_upload: int) -> list[list]:
    """Every device uploads ``per_upload`` records once per window."""
    step = WINDOW / per_upload
    return [
        [
            make_record(
                user=f"u{d:04d}",
                task="views",
                time=tick * WINDOW + step * i,
                lat=44.8 + 0.0004 * ((d * 7 + i) % 200),
                lon=-0.6 + 0.0004 * ((d * 13 + i) % 200),
                value=float((d * 17 + tick * 5 + i) % 90),
            )
            for i in range(per_upload)
        ]
        for tick in range(UPLOADS)
        for d in range(N_DEVICES)
    ]


def run_views(calls: Calls, n_views: int, per_upload: int) -> Calls:
    """Push the workload through pipeline + engine with ``n_views`` views."""
    sim = Simulator()
    pipeline = IngestPipeline(
        sim, DatasetStore(n_shards=4, segment_capacity=4096), flush_delay=0.2
    )
    engine = StreamEngine(
        sim=sim, pane_seconds=WINDOW, allowed_lateness=2 * WINDOW, history=128
    ).attach(pipeline)
    engine.register_view("tumbling", WindowSpec.tumbling(WINDOW))
    for extra in range(1, n_views):
        engine.register_view(
            f"rolling-{extra}", WindowSpec.sliding((extra + 1) * WINDOW, WINDOW)
        )
    batches = uploads(per_upload)
    calls.clear()
    for records in batches:
        sim.run_until(max(sim.now, records[0].time))
        pipeline.submit(records)
    sim.run()
    pipeline.flush_all()
    engine.finalize()
    n_records = N_DEVICES * UPLOADS * per_upload
    assert engine.stats.records_seen == n_records
    assert engine.stats.late_records == 0
    return Calls(calls)


@pytest.fixture()
def shimmed(calls: Calls, monkeypatch) -> Calls:
    fold = StreamEngine._fold

    # ``Calls`` counts calls; the rows each fold call takes are counted here.
    def folding(engine, batch, live):
        calls["fold_rows"] += len(live)
        return fold(engine, batch, live)

    monkeypatch.setattr(StreamEngine, "_fold", folding)
    calls.shim(monkeypatch, StreamEngine, "_fold")
    calls.shim(monkeypatch, StreamEngine, "_emit_windows")
    return calls


def test_fold_work_is_the_same_at_every_view_count(shimmed):
    folds = {}
    for n in VIEW_COUNTS:
        run = run_views(shimmed, n, PER_UPLOAD)
        folds[n] = (run["fold"], run["fold_rows"])
    assert folds[1][1] == N_DEVICES * UPLOADS * PER_UPLOAD
    assert all(work == folds[1] for work in folds.values()), folds


def test_window_assembly_does_not_grow_with_records(shimmed):
    for n in VIEW_COUNTS:
        single = run_views(shimmed, n, PER_UPLOAD)["emit_windows"]
        double = run_views(shimmed, n, 2 * PER_UPLOAD)["emit_windows"]
        assert double == single, (n, single, double)
