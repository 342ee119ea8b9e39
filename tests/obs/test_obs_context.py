"""Two platforms in one interpreter, each on its own obs context.

A platform root hands its :class:`repro.obs.Obs` to every tier it
builds, so a traced and an untraced Hive run side by side with disjoint
counts, the same instance labels, their own trace logs — and a
``ReproServer`` on each answers ``obs dump``/``top``/``trace`` from its
own platform only.  Nothing reaches the default context.
"""

from __future__ import annotations

from repro import obs
from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.server import ReproServer
from repro.simulation import Simulator
from repro.streams import WindowSpec
from tests.server.conftest import connect, run
from tests.server.test_channel import upload_window

ACCEPTED = "repro_pipeline_records_accepted_total"


def make_platform(context: obs.Obs) -> Hive:
    hive = Hive(Simulator(), obs=context)
    hive.streams.register_view("m5", WindowSpec.tumbling(300.0))
    owner = Honeycomb("tests", hive)
    task = SensingTask(name="t", sensors=("gps",), sampling_period=60.0, upload_period=300.0)
    owner.register_task(task)
    hive.adopt_task(task, owner)
    return hive


def side_by_side() -> tuple[Hive, Hive]:
    """A traced and an untraced platform, uploads interleaved."""
    traced = make_platform(obs.Obs(tracing=True, sample_rate=1.0))
    untraced = make_platform(obs.Obs())
    for window in range(3):
        upload_window(traced, window, n=4)
        upload_window(untraced, window, n=7)
    for hive in (traced, untraced):
        hive.sim.run()
        hive.pipeline.flush_all()
        hive.streams.finalize()
    return traced, untraced


class TestSideBySide:
    def test_counts_labels_and_traces_stay_apart(self):
        traced, untraced = side_by_side()
        assert (traced.pipeline.stats.accepted, untraced.pipeline.stats.accepted) == (12, 21)
        for hive in (traced, untraced):
            registry = hive.obs_context.registry
            assert registry.total(ACCEPTED) == hive.pipeline.stats.accepted
            assert registry.value(ACCEPTED, {"instance": "pipeline-1"}) == (
                hive.pipeline.stats.accepted
            )
            instances = (hive.pipeline, hive.store, hive.streams)
            assert [c.obs.instance for c in instances] == ["pipeline-1", "store-1", "stream-1"]
        log = traced.obs_context.tracer.log
        assert len(log.trace_ids()) == 3
        assert len(obs.record_paths(log)) == 12
        assert len(untraced.obs_context.tracer.log) == 0
        # The default context saw neither platform.
        assert obs.metrics_registry().families == []
        assert len(obs.tracer().log) == 0

    def test_each_server_answers_from_its_own_platform(self):
        traced, untraced = side_by_side()
        servers = [ReproServer(hive) for hive in (traced, untraced)]

        async def ask(server):
            client = await connect(server)
            dump = await client.request("obs", "dump")
            top = await client.request("obs", "top", {"limit": 50})
            listing = await client.request("obs", "trace")
            tree = await client.request("obs", "trace", {"trace_id": 1})
            await client.close()
            return dump["text"], top["stages"], listing, tree["spans"]

        answers = [run(ask(server)) for server in servers]
        for hive, server, (text, stages, listing, _) in zip(
            (traced, untraced), servers, answers
        ):
            assert server.obs.instance == "server-1"
            accepted = hive.pipeline.stats.accepted
            assert f'{ACCEPTED}{{instance="pipeline-1"}} {accepted}\n' in text
            assert text.count(f"{ACCEPTED}{{") == 1
            flushes = [s for s in stages if s["stage"].startswith("repro_pipeline_flush")]
            assert [s["count"] for s in flushes] == [hive.pipeline.stats.flushes]
            assert listing["trace_ids"] == hive.obs_context.tracer.log.trace_ids()
        (_, _, traced_listing, traced_spans), (_, _, untraced_listing, untraced_spans) = answers
        assert traced_listing["trace_ids"] == [1, 2, 3]
        assert traced_spans[0]["name"] == "ingest.admit"
        assert untraced_listing == {"trace_ids": [], "spans": 0, "dropped": 0}
        assert untraced_spans == []
