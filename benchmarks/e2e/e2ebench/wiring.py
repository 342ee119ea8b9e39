"""Platform wiring shared by the workloads, and the ingest-path probes.

Only public ``repro`` API is used (ISSUE 11 lists it): later PRs may
not edit the benchmark, so anything private they rename must not be
reachable from here.
"""

from __future__ import annotations

import time

from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.simulation import Simulator
from repro.streams import StreamEngine, WindowSpec

from e2ebench.spans import SpanRecorder

VIEW = "tumbling"


def build_platform(
    tasks: list[str],
    window_seconds: float,
    horizon_seconds: float,
    recorder: SpanRecorder | None,
) -> tuple[Hive, Honeycomb]:
    """A hive (default store and pipeline) and the Honeycomb owning ``tasks``.

    The simulator is ``hive.sim`` and the stream engine ``hive.streams``.

    One tumbling view of ``window_seconds`` with panes of the same size
    and no allowed lateness: uploads are replayed tick by tick in event
    order, so a window closes as soon as the next tick's flush lands.
    """
    sim = Simulator()
    engine = StreamEngine(
        sim=sim, pane_seconds=window_seconds, allowed_lateness=0.0
    )
    engine.register_view(VIEW, WindowSpec.tumbling(window_seconds))
    hive = Hive(sim, streams=engine)
    owner = Honeycomb("bench", hive)
    for name in tasks:
        task = SensingTask(
            name=name,
            sensors=("gps",),
            sampling_period=300.0,
            upload_period=window_seconds,
            end=horizon_seconds,
        )
        owner.register_task(task)
        hive.adopt_task(task, owner)
    if recorder is not None:
        probe_ingest(recorder, hive, [owner])
    return hive, owner


def admit_tick(hive: Hive, tick) -> tuple[int, int]:
    """Hand one tick's uploads to the gateway, each in turn.

    Returns ``(records accepted, uploads not accepted in full)``.
    """
    accepted = short = 0
    for upload in tick.uploads:
        got = hive.receive_upload(
            upload.device_id, upload.user, upload.task, upload.records
        )
        accepted += got
        short += got != len(upload.records)
    return accepted, short


def probe_ingest(
    recorder: SpanRecorder, hive: Hive, owners: list[Honeycomb]
) -> None:
    """Install the ingest-path spans on one hive's instances.

    ``sim.events``        every ``run_until``/``run`` call (self time =
                          the simulator's loop plus whatever events are
                          not spanned below — the device tier)
    ``hive.receive_upload``  the gateway admit
    ``pipeline.submit``   shard routing + backpressure
    ``pipeline.flush``    one shard flush: the simulator event the
                          pipeline armed, or a ``flush_all`` call
    ``store.append``      columnize + segment append + aggregates
    ``hive.route``        ``Honeycomb.receive_dataset`` of one task
    ``streams.on_flush``  bracket from the last ``hive.route`` of a flush
                          to a listener registered after the engine's:
                          pane fold + window close (+ window callbacks,
                          which nest inside as their own spans)
    """
    sim = hive.sim
    recorder.wrap(sim, "run_until", "sim.events")
    recorder.wrap(sim, "run", "sim.events")
    recorder.wrap(hive, "receive_upload", "hive.receive_upload")
    recorder.wrap(hive.pipeline, "submit", "pipeline.submit")
    recorder.wrap(hive.pipeline, "flush_all", "pipeline.flush")
    recorder.wrap(hive.store, "append", "store.append")

    # The pipeline arms its flush with sim.schedule from inside submit
    # (and re-arms from inside a flush while a spill backlog remains),
    # so a schedule call made under either span is a flush event.
    schedule = sim.schedule

    def traced_schedule(delay, callback):
        if recorder.innermost() in ("pipeline.submit", "pipeline.flush"):
            callback = recorder.timed(callback, "pipeline.flush")
        return schedule(delay, callback)

    sim.schedule = traced_schedule

    for owner in owners:
        receive_dataset = owner.receive_dataset

        def traced_route(task_name, records, receive_dataset=receive_dataset):
            recorder.close("streams.on_flush")  # previous task, same flush
            index = recorder.begin("hive.route")
            try:
                receive_dataset(task_name, records)
            finally:
                recorder.end(index)
                recorder.begin("streams.on_flush")

        owner.receive_dataset = traced_route
    hive.pipeline.add_listener(lambda records: recorder.close("streams.on_flush"))


class WindowStamps:
    """The benchmark's own window-close stamps, around the server's callback.

    Construct it *before* ``ReproServer`` so its callback runs first:
    ``closed_at`` is then taken before digest and enqueue, which makes
    close -> client receipt the wall-clock analogue of "last
    contributing event -> result emitted".  In a traced round, call
    :meth:`after_server` once the server exists: the second callback
    closes the ``server.fan_out`` bracket the first one opened.
    """

    def __init__(self, engine: StreamEngine, recorder: SpanRecorder | None):
        self.closed_at: dict[tuple[str, float], float] = {}
        self.fanned_at: dict[tuple[str, float], float] = {}
        self._engine = engine
        self._recorder = recorder
        engine.on_window(self._closed)

    def _closed(self, snapshot) -> None:
        key = (snapshot.task, snapshot.end)
        self.closed_at[key] = time.perf_counter()
        if self._recorder is not None:
            self._recorder.begin(
                "server.fan_out", group=f"window-{key[0]}-{key[1]:.0f}"
            )

    def after_server(self) -> None:
        if self._recorder is not None:
            self._engine.on_window(self._fanned_out)

    def _fanned_out(self, snapshot) -> None:
        self._recorder.close("server.fan_out")
        self.fanned_at[(snapshot.task, snapshot.end)] = time.perf_counter()


def check_ingest(
    hive: Hive,
    owner: Honeycomb,
    view: str,
    accepted: int,
    generated: int | None = None,
    windows: list | None = None,
) -> list[str]:
    """The conservation laws an ingest round must keep, as failures.

    stored = accepted = routed to the Honeycomb (= generated, when the
    generator knows); nothing unaccounted in the pipeline; every stored
    record is in exactly one window or counted late; and each window's
    live count equals a batch ``scan_time`` over its range.  ``windows``
    are the closed windows as an ``on_window`` callback collected them,
    for runs that close more than the engine's history retains.
    """
    failures = []
    store, engine = hive.store, hive.streams
    tasks = store.tasks
    stored = store.n_records
    routed = sum(owner.n_records(task) for task in tasks)
    if not stored == accepted == routed == (stored if generated is None else generated):
        failures.append(
            f"stored {stored} / accepted {accepted} / routed {routed} / "
            f"generated {generated} differ"
        )
    if hive.pipeline.unaccounted:
        failures.append(f"pipeline.unaccounted = {hive.pipeline.unaccounted}")
    if windows is None:
        windows = [w for task in tasks for w in engine.snapshots(task, view)]
    windowed = 0
    for window in windows:
        windowed += window.records
        batch = len(store.scan_time(window.task, window.start, window.end))
        if batch != window.records:
            failures.append(
                f"{window.task} window [{window.start:.0f},{window.end:.0f}): "
                f"live {window.records} != batch {batch}"
            )
    if windowed + engine.stats.late_records != stored:
        failures.append(
            f"windows hold {windowed} + {engine.stats.late_records} late "
            f"!= {stored} stored"
        )
    return failures


def ingest_ledger(recorder: SpanRecorder, hive: Hive) -> tuple[dict, float, dict]:
    """``(server-tier ledger rows, covered seconds, self times)`` of a round.

    Seconds are span self times; counters come from the tiers' public
    stats objects.
    """
    self_times, driver_s, covered_s = recorder.ledger()
    get = self_times.get
    pipeline = hive.pipeline.stats
    store = hive.store.stats()
    streams = hive.streams.stats
    layer = {
        "device.self_s": get("sim.events", 0.0) + get("campaign.run", 0.0),
        "hive.admit_s": get("hive.receive_upload", 0.0),
        "hive.admit_calls": recorder.count("hive.receive_upload"),
        "hive.route_s": get("hive.route", 0.0),
        "pipeline.submit_s": get("pipeline.submit", 0.0),
        "pipeline.flush_self_s": get("pipeline.flush", 0.0),
        "pipeline.flushes": pipeline.flushes,
        "pipeline.mean_flush_batch": pipeline.mean_flush_batch,
        "pipeline.rejected": pipeline.rejected,
        "pipeline.dropped": pipeline.dropped,
        "pipeline.spilled": pipeline.spilled,
        "pipeline.unaccounted": hive.pipeline.unaccounted,
        "store.append_s": get("store.append", 0.0),
        "store.append_calls": recorder.count("store.append"),
        "store.records": store.records,
        "store.segments": store.segments,
        "streams.on_flush_self_s": get("streams.on_flush", 0.0)
        + get("streams.finalize", 0.0),
        "streams.callbacks_s": sum(recorder.durations("server.fan_out")),
        "streams.windows_closed": streams.windows_emitted,
        "streams.late_records": streams.late_records,
        "ledger.driver_s": driver_s,
    }
    return layer, covered_s, self_times
