"""Unit tests for the ingest pipeline: batching and backpressure."""

import pytest

from repro.errors import StoreError
from repro.store import DatasetStore, IngestPipeline
from tests.store.conftest import make_record, make_records


def build(sim, policy="spill", capacity=64, n_shards=1, flush_delay=0.5):
    store = DatasetStore(n_shards=n_shards, segment_capacity=256)
    pipeline = IngestPipeline(
        sim, store, policy=policy, buffer_capacity=capacity, flush_delay=flush_delay
    )
    return store, pipeline


class TestValidation:
    def test_bad_policy(self, sim):
        store = DatasetStore(n_shards=1)
        with pytest.raises(StoreError):
            IngestPipeline(sim, store, policy="fifo")

    def test_bad_capacity(self, sim):
        store = DatasetStore(n_shards=1)
        with pytest.raises(StoreError):
            IngestPipeline(sim, store, buffer_capacity=0)

    def test_bad_flush_delay(self, sim):
        store = DatasetStore(n_shards=1)
        with pytest.raises(StoreError):
            IngestPipeline(sim, store, flush_delay=-1.0)


class TestBatching:
    def test_submits_within_window_coalesce_into_one_flush(self, sim):
        store, pipeline = build(sim, flush_delay=1.0)
        flushes = []
        pipeline.add_listener(lambda recs: flushes.append(len(recs)))
        for i in range(5):
            pipeline.submit(make_records(10, t0=100.0 * i))
        assert pipeline.buffered == 50
        sim.run()
        assert flushes == [50]
        assert store.n_records == 50
        assert pipeline.stats.flushes == 1
        assert pipeline.stats.largest_flush == 50

    def test_flush_fires_after_delay(self, sim):
        _, pipeline = build(sim, flush_delay=0.5)
        flush_times = []
        pipeline.add_listener(lambda recs: flush_times.append(sim.now))
        pipeline.submit(make_records(3))
        sim.run()
        assert flush_times == [pytest.approx(0.5)]

    def test_separate_windows_make_separate_batches(self, sim):
        store, pipeline = build(sim, flush_delay=0.5)
        flushes = []
        pipeline.add_listener(lambda recs: flushes.append(len(recs)))
        pipeline.submit(make_records(10))
        sim.run()
        pipeline.submit(make_records(7, t0=1000.0))
        sim.run()
        assert flushes == [10, 7]
        assert store.n_records == 17

    def test_empty_submit_is_noop(self, sim):
        _, pipeline = build(sim)
        assert pipeline.submit([]) == 0
        assert sim.pending == 0

    def test_idle_pipeline_schedules_no_events(self, sim):
        build(sim)
        assert sim.pending == 0

    def test_shards_flush_independently(self, sim):
        # Two users that land in different shards of a 4-shard store.
        store, pipeline = build(sim, n_shards=4, flush_delay=0.5)
        users = {}
        for i in range(20):
            user = f"u{i}"
            users.setdefault(store.shard_of("t", user), user)
            if len(users) >= 2:
                break
        (shard_a, user_a), (shard_b, user_b) = list(users.items())[:2]
        assert shard_a != shard_b
        flushes = []
        pipeline.add_listener(lambda recs: flushes.append({r.user for r in recs}))
        pipeline.submit(make_records(5, user=user_a))
        pipeline.submit(make_records(5, user=user_b))
        sim.run()
        assert len(flushes) == 2
        assert {user_a} in flushes and {user_b} in flushes


class TestRejectPolicy:
    def test_overflow_batch_bounces_entirely(self, sim):
        store, pipeline = build(sim, policy="reject", capacity=10)
        assert pipeline.submit(make_records(8)) == 8
        assert pipeline.submit(make_records(5, t0=5000.0)) == 0
        assert pipeline.stats.rejected == 5
        assert pipeline.submit(make_records(2, t0=9000.0)) == 2
        sim.run()
        assert store.n_records == 10

    def test_capacity_frees_after_flush(self, sim):
        store, pipeline = build(sim, policy="reject", capacity=10)
        pipeline.submit(make_records(10))
        sim.run()  # flush empties the buffer
        assert pipeline.submit(make_records(10, t0=5000.0)) == 10
        sim.run()
        assert store.n_records == 20
        assert pipeline.stats.rejected == 0


class TestDropOldestPolicy:
    def test_oldest_buffered_records_evicted(self, sim):
        store, pipeline = build(sim, policy="drop-oldest", capacity=10)
        pipeline.submit(make_records(8, t0=0.0))
        assert pipeline.submit(make_records(5, t0=10_000.0)) == 5
        assert pipeline.stats.dropped == 3
        sim.run()
        assert store.n_records == 10
        # The three oldest records (t=0, 60, 120) were shed.
        batch = store.scan("t")
        assert float(batch.time.min()) == 180.0

    def test_giant_batch_keeps_newest_tail(self, sim):
        store, pipeline = build(sim, policy="drop-oldest", capacity=10)
        pipeline.submit(make_records(4, t0=0.0))
        # The whole batch is admitted (drop-oldest never bounces the
        # sender); its head is immediately evicted and counted dropped.
        accepted = pipeline.submit(make_records(25, t0=10_000.0))
        assert accepted == 25
        assert pipeline.stats.dropped == 4 + 15
        sim.run()
        assert store.n_records == 10
        batch = store.scan("t")
        assert float(batch.time.min()) == 10_000.0 + 15 * 60.0

    def test_no_drop_when_room(self, sim):
        store, pipeline = build(sim, policy="drop-oldest", capacity=100)
        pipeline.submit(make_records(60))
        sim.run()
        assert pipeline.stats.dropped == 0
        assert store.n_records == 60


class TestSpillPolicy:
    def test_overflow_parks_in_spill_queue(self, sim):
        store, pipeline = build(sim, policy="spill", capacity=10)
        assert pipeline.submit(make_records(25)) == 25
        assert pipeline.buffered == 10
        assert pipeline.backlog == 15
        assert pipeline.stats.spilled == 15
        sim.run()  # flush drains buffer + spill (15 < one capacity)
        assert store.n_records == 25
        assert pipeline.backlog == 0

    def test_deep_spill_drains_over_multiple_flushes(self, sim):
        store, pipeline = build(sim, policy="spill", capacity=10)
        pipeline.submit(make_records(55))
        sim.run()
        # Each flush moves buffer + at most one capacity of spill.
        assert pipeline.stats.flushes >= 3
        assert store.n_records == 55
        assert pipeline.backlog == 0

    def test_nothing_is_lost(self, sim):
        store, pipeline = build(sim, policy="spill", capacity=7)
        for i in range(10):
            pipeline.submit(make_records(13, t0=2000.0 * i))
        sim.run()
        assert store.n_records == 130
        assert pipeline.stats.loss == 0


class TestRouter:
    def test_router_receives_flushes(self, sim):
        store, pipeline = build(sim)
        routed = []
        pipeline.set_router(lambda recs: routed.append(len(recs)))
        pipeline.submit(make_records(4))
        sim.run()
        assert routed == [4]

    def test_router_is_exclusive(self, sim):
        _, pipeline = build(sim)
        pipeline.set_router(lambda recs: None)
        with pytest.raises(StoreError):
            pipeline.set_router(lambda recs: None)

    def test_observers_stack_alongside_router(self, sim):
        _, pipeline = build(sim)
        seen = []
        pipeline.set_router(lambda recs: seen.append("router"))
        pipeline.add_listener(lambda recs: seen.append("observer"))
        pipeline.submit(make_records(1))
        sim.run()
        assert seen == ["router", "observer"]


class TestFlushAll:
    def test_synchronous_drain_arms_no_new_events(self, sim):
        # flush_all drains a deep spill without parking one no-op flush
        # event per chunk in the simulator heap.
        _, pipeline = build(sim, policy="spill", capacity=5)
        pipeline.submit(make_records(23))
        armed = sim.pending  # the one flush armed by submit()
        pipeline.flush_all()
        assert sim.pending == armed

    def test_drains_buffers_and_spill(self, sim):
        store, pipeline = build(sim, policy="spill", capacity=10)
        pipeline.submit(make_records(34))
        flushed = pipeline.flush_all()
        assert flushed == 34
        assert store.n_records == 34
        assert pipeline.buffered == 0 and pipeline.backlog == 0

    def test_empty_flush_all(self, sim):
        _, pipeline = build(sim)
        assert pipeline.flush_all() == 0

    def test_listeners_notified_identically_to_timer_flushes(self, sim):
        """The FlushListener guarantee: every admitted record reaches
        every listener exactly once whether the flush was timer-driven
        or a synchronous flush_all() drain — same path, same ordering
        (router first, then listeners)."""
        records = make_records(40)

        # Timer-driven baseline.
        _, timed = build(sim, policy="spill", capacity=10)
        timed_seen: list = []
        timed.set_router(lambda recs: None)
        timed.add_listener(timed_seen.extend)
        timed.submit(records)
        sim.run()

        # flush_all()-driven drain of the identical workload.
        from repro.simulation import Simulator

        _, drained = build(Simulator(), policy="spill", capacity=10)
        order: list = []
        drained_seen: list = []
        drained.set_router(lambda recs: order.append("router"))
        drained.add_listener(lambda recs: (order.append("observer"),
                                           drained_seen.extend(recs)))
        drained.submit(records)
        drained.flush_all()

        assert drained_seen == timed_seen == records  # exactly once, in order
        assert order[:2] == ["router", "observer"]  # router precedes listeners
        assert drained.stats.flushed_records == timed.stats.flushed_records == 40

    def test_flush_all_skips_listeners_for_empty_drain(self, sim):
        _, pipeline = build(sim)
        seen = []
        pipeline.add_listener(seen.append)
        pipeline.flush_all()
        assert seen == []  # empty flushes are never delivered


class TestRouteOnce:
    def test_submit_hashes_each_task_user_pair_once(self, sim, monkeypatch):
        store, pipeline = build(sim, n_shards=4)
        hashed = []
        shard_of = store.shard_of
        monkeypatch.setattr(
            store, "shard_of", lambda task, user: hashed.append((task, user)) or shard_of(task, user)
        )
        batch = make_records(30, user="alice") + make_records(30, user="bob")
        assert pipeline.submit(batch + make_records(5, user="alice", t0=9000.0)) == 65
        assert sorted(hashed) == [("t", "alice"), ("t", "bob")]
        sim.run()  # the flushes say which shard they write: no more hashing
        assert sorted(hashed) == [("t", "alice"), ("t", "bob")]
        assert store.n_records == 65
        assert len(store.scan_user("t", "alice")) == 35
        assert len(store.scan_user("t", "bob")) == 30

    def test_flush_hands_one_columnized_batch_to_store_router_and_listeners(self, sim):
        from repro.store.columns import RecordBatch

        store, pipeline = build(sim)
        seen = []
        append = store.append
        store.append = lambda batch, **kwargs: seen.append(("store", batch, kwargs)) or append(batch, **kwargs)
        pipeline.set_router(lambda batch: seen.append(("router", batch)))
        pipeline.add_listener(lambda batch: seen.append(("listener", batch)))
        records = make_records(12)
        pipeline.submit(records)
        sim.run()
        (store_call, router_call, listener_call) = seen
        batch = store_call[1]
        assert isinstance(batch, RecordBatch)
        assert store_call[2] == {"ingest_time": sim.now, "shard": 0}
        assert router_call[1] is batch and listener_call[1] is batch
        # A sequence of the flushed records, in record order, plus columns.
        assert list(batch) == records and batch[0] is records[0] and len(batch) == 12
        assert batch.time.tolist() == [r.time for r in records]


class TestStats:
    def test_counters_add_up(self, sim):
        _, pipeline = build(sim, policy="spill", capacity=10)
        pipeline.submit(make_records(25))
        pipeline.submit([make_record(time=99999.0)])
        sim.run()
        stats = pipeline.stats
        assert stats.submitted == 26
        assert stats.accepted == 26
        assert stats.flushed_records == 26
        assert stats.mean_flush_batch == pytest.approx(
            stats.flushed_records / stats.flushes
        )


class TestBackpressureAccounting:
    """Regression: counters are one-per-record and always reconcile.

    ``submitted = accepted + rejected`` at the admission gate, and every
    accepted record is exactly one of flushed / dropped / buffered /
    spill-parked (``pipeline.unaccounted == 0`` at *any* instant).
    """

    def check(self, pipeline):
        stats = pipeline.stats
        assert stats.submitted == stats.accepted + stats.rejected
        assert pipeline.unaccounted == 0

    @pytest.mark.parametrize("policy", ["drop-oldest", "reject", "spill"])
    def test_reconciles_at_every_stage(self, sim, policy):
        store, pipeline = build(sim, policy=policy, capacity=10)
        self.check(pipeline)
        pipeline.submit(make_records(8, t0=0.0))
        self.check(pipeline)
        pipeline.submit(make_records(25, t0=10_000.0))  # overflows
        self.check(pipeline)
        sim.run()
        self.check(pipeline)
        pipeline.submit(make_records(7, t0=20_000.0))
        pipeline.flush_all()
        self.check(pipeline)
        # Quiescent: everything admitted is in the store or was dropped.
        assert store.n_records == pipeline.stats.accepted - pipeline.stats.dropped

    def test_giant_batch_head_counted_once(self, sim):
        # The batch head admitted-and-evicted in one call must appear in
        # both accepted and dropped (once each), never only in dropped.
        _, pipeline = build(sim, policy="drop-oldest", capacity=10)
        pipeline.submit(make_records(30))
        stats = pipeline.stats
        assert stats.accepted == 30
        assert stats.dropped == 20
        assert pipeline.unaccounted == 0

    def test_spilled_records_are_never_dropped(self, sim):
        # Mutual exclusivity: a record that took the spill detour is
        # still admitted-and-delivered — spill and drop never overlap.
        store, pipeline = build(sim, policy="spill", capacity=5)
        for i in range(6):
            pipeline.submit(make_records(12, t0=3000.0 * i))
        assert pipeline.stats.spilled > 0
        assert pipeline.unaccounted == 0
        sim.run()
        pipeline.flush_all()
        assert pipeline.stats.dropped == 0 and pipeline.stats.rejected == 0
        assert store.n_records == pipeline.stats.accepted == 72
        assert pipeline.unaccounted == 0
