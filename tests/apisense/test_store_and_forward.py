"""Store-and-forward under deterministic loss: retried, delivered once.

The lossy-campaign tests show the *statistical* consequence of the
device's store-and-forward buffer (volume survives loss); these tests
pin the *mechanism* with a scripted transport: records buffered through
a lost upload are retried at the next upload tick and arrive exactly
once — loss costs freshness, not data, and never duplicates.
"""

from __future__ import annotations

from repro.apisense.hive import Hive
from repro.apisense.honeycomb import Honeycomb
from repro.apisense.tasks import SensingTask
from repro.apisense.transport import Transport
from repro.simulation import Simulator
from repro.units import HOUR
from tests.apisense.conftest import build_device, collect_rows


class ScriptedLossTransport(Transport):
    """A transport that loses exactly the sends whose index is scripted.

    Indices count every message through the Hive's channel; the tests
    publish with an empty recruitment so no offer rides the transport
    and send #0 is the device's first upload.
    """

    def __init__(self, lose: set[int], latency: float = 0.05):
        super().__init__(latency_mean=latency, latency_jitter=0.0, loss=0.0, seed=0)
        self._lose = lose
        self._sends = 0

    def send(self, sim, deliver, payload_items: int = 1) -> bool:
        index = self._sends
        self._sends += 1
        self.stats.messages_sent += 1
        self.stats.payload_items += payload_items
        if index in self._lose:
            self.stats.messages_lost += 1
            return False
        sim.schedule(self.latency_mean, deliver)
        return True


TASK = SensingTask(
    name="saf",
    sensors=("gps",),
    sampling_period=300.0,
    upload_period=1800.0,
    end=2 * HOUR,
)


class _Nobody:
    """Recruitment policy offering the task to no device."""

    def select(self, devices, task, now, rng):
        return []


def run_with_losses(small_population, sensor_suite, lose: set[int]):
    """One device, one task, scripted upload losses; returns the pieces."""
    sim = Simulator()
    transport = ScriptedLossTransport(lose)
    hive = Hive(sim, transport=transport, seed=3)
    device = build_device(small_population, sensor_suite, index=0)
    hive.register_device(device)
    honeycomb = Honeycomb("lab", hive)
    # No transport-borne offer: the device accepts directly, so upload
    # send indices are deterministic (first upload is send #0).
    honeycomb.deploy(TASK, recruitment=_Nobody())
    assert device.offer_task(TASK, acceptance_probability=1.0)
    sim.run_until(TASK.end + 2 * TASK.upload_period)
    return sim, device, honeycomb, transport


class TestStoreAndForward:
    def test_lossless_baseline_delivers_everything(self, small_population, sensor_suite):
        _, device, honeycomb, _ = run_with_losses(small_population, sensor_suite, set())
        stats = device.stats["saf"]
        assert stats.samples_taken > 0
        assert stats.uploads_failed == 0
        assert honeycomb.n_records("saf") == stats.samples_taken

    def test_buffered_records_survive_a_lost_upload(self, small_population, sensor_suite):
        # Send #0 is the first upload tick -> lose it.
        _, device, honeycomb, transport = run_with_losses(
            small_population, sensor_suite, lose={0}
        )
        stats = device.stats["saf"]
        assert transport.stats.messages_lost == 1
        assert stats.uploads_failed == 1
        assert stats.uploads >= 1  # the retry went through
        # Exactly once: every sample taken reached the Honeycomb, and no
        # record was duplicated by the retry.
        view = honeycomb.dataset_view("saf")
        assert len(view) == stats.samples_taken
        assert len(set(zip(view.user_names(), view.time.tolist()))) == len(view)

    def test_retry_happens_on_next_tick_not_immediately(
        self, small_population, sensor_suite
    ):
        _, device, honeycomb, _ = run_with_losses(
            small_population, sensor_suite, lose={0}
        )
        # The first batch's records are older than one upload period by
        # the time they land: their delivery lagged a full retry cycle.
        times = sorted(honeycomb.dataset_view("saf").time.tolist())
        assert times[0] <= TASK.upload_period  # early samples did arrive
        # Device-side accounting agrees: one failed then successes.
        assert device.stats["saf"].uploads_failed == 1

    def test_consecutive_losses_still_deliver_exactly_once(
        self, small_population, sensor_suite
    ):
        # Lose the first two upload attempts; the third carries it all.
        _, device, honeycomb, transport = run_with_losses(
            small_population, sensor_suite, lose={0, 1}
        )
        stats = device.stats["saf"]
        assert transport.stats.messages_lost == 2
        assert stats.uploads_failed == 2
        view = honeycomb.dataset_view("saf")
        assert len(view) == stats.samples_taken > 0
        assert len(set(zip(view.user_names(), view.time.tolist()))) == len(view)

    def test_store_agrees_with_honeycomb_after_retries(
        self, small_population, sensor_suite
    ):
        sim, device, honeycomb, _ = run_with_losses(
            small_population, sensor_suite, lose={0}
        )
        hive = honeycomb._hive
        assert hive.store.n_records == honeycomb.n_records("saf")
        assert hive.store.aggregate("saf").records == device.stats["saf"].samples_taken

    def test_records_kept_through_a_lost_stop_flush_ride_the_rejoin(
        self, small_population, sensor_suite
    ):
        """A churned user's lost stop flush leaves records on the device;
        when the user rejoins, they ride the first upload after it."""
        sim = Simulator()
        # Send #0 is the upload at t=1800, send #1 the stop flush.
        transport = ScriptedLossTransport(lose={1})
        hive = Hive(sim, transport=transport, seed=3)
        device = build_device(small_population, sensor_suite, index=0)
        hive.register_device(device)
        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(TASK, recruitment=_Nobody())
        assert device.offer_task(TASK, acceptance_probability=1.0)
        sim.run_until(2500.0)
        device.stop_task("saf")
        taken_before_churn = device.stats["saf"].samples_taken
        assert transport.stats.messages_lost == 1
        assert device.offer_task(TASK, acceptance_probability=1.0)
        sim.run_until(TASK.end + 2 * TASK.upload_period)

        view = honeycomb.dataset_view("saf")
        assert int((view.time <= 2500.0).sum()) == taken_before_churn > 0
        # The runtime counters carry over the rejoin like the buffer does.
        assert len(view) == device.stats["saf"].samples_taken
        assert len(set(view.time.tolist())) == len(view)


    def test_a_lost_stop_flush_is_retried_without_a_rejoin(
        self, small_population, sensor_suite
    ):
        """A churned user who never rejoins: the records a lost stop flush
        left on the device leave on a drain upload one upload period later."""
        sim = Simulator()
        # Send #0 is the upload at t=1800, send #1 the stop flush.
        transport = ScriptedLossTransport(lose={1})
        hive = Hive(sim, transport=transport, seed=3)
        device = build_device(small_population, sensor_suite, index=0)
        hive.register_device(device)
        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(TASK, recruitment=_Nobody())
        assert device.offer_task(TASK, acceptance_probability=1.0)
        sim.run_until(2500.0)
        device.stop_task("saf")
        assert transport.stats.messages_lost == 1
        assert device._buffers["saf"]
        sim.run_until(2500.0 + 10 * TASK.upload_period)

        stats = device.stats["saf"]
        assert device._buffers["saf"] == []
        assert (stats.uploads, stats.uploads_failed) == (2, 1)
        assert transport.stats.messages_sent == 3  # one drain, then none
        view = honeycomb.dataset_view("saf")
        assert len(view) == stats.samples_taken == 8
        assert len(set(view.time.tolist())) == len(view)


class TestGatewayBackpressureRetry:
    def test_rejected_upload_rebuffers_and_retries(
        self, small_population, sensor_suite
    ):
        """Server-side shedding mirrors transport loss: freshness, not data.

        The shard buffer is pre-filled so the device's first upload hits
        a full ``reject`` gateway; the batch re-buffers on-device and the
        next upload tick delivers everything exactly once.
        """
        from repro.apisense.incentives import UserState
        from repro.store import DatasetStore, IngestPipeline

        sim = Simulator()
        pipeline = IngestPipeline(
            sim,
            DatasetStore(n_shards=1),
            policy="reject",
            buffer_capacity=64,
            flush_delay=5.0,
        )
        hive = Hive(sim, pipeline=pipeline, seed=3)
        device = build_device(small_population, sensor_suite, index=0)
        hive.register_device(device)
        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(TASK, recruitment=_Nobody())
        assert device.offer_task(TASK, acceptance_probability=1.0)

        # Fill the single shard just before the device's first upload
        # tick (t=1800); the filler flushes at t≈1804, after the upload
        # has bounced.
        hive.community["filler"] = UserState(user="filler", motivation=0.5)
        filler = make_filler_records(64)
        sim.schedule_at(1799.0, lambda: hive.receive_upload("dev-f", "filler", "saf", filler))

        sim.run_until(TASK.end + 2 * TASK.upload_period)
        stats = device.stats["saf"]
        assert stats.uploads_rejected == 1
        # Exactly once despite the bounce: every sample this device took
        # reached the Honeycomb, with no duplicates.
        mine = honeycomb.dataset_view("saf", user=device.user)
        assert len(mine) == stats.samples_taken > 0
        assert len(set(mine.time.tolist())) == len(mine)
        assert hive.store.n_records == honeycomb.n_records("saf")


def make_filler_records(n: int) -> list:
    from repro.apisense.device import SensorRecord

    return [
        SensorRecord(
            device_id="dev-f", user="filler", task="saf", time=float(i), values={}
        )
        for i in range(n)
    ]


class TestRetryOrdering:
    """Rejected batches re-buffer *in front of* newer samples."""

    def test_rebuffered_batch_rides_ahead_of_newer_samples(
        self, small_population, sensor_suite
    ):
        """After reject -> retry, the retried upload carries [old batch +
        samples taken since] in original time order, so the Honeycomb's
        arrival order per device stays time-sorted."""
        from repro.apisense.incentives import UserState
        from repro.store import DatasetStore, IngestPipeline

        sim = Simulator()
        pipeline = IngestPipeline(
            sim,
            DatasetStore(n_shards=1),
            policy="reject",
            buffer_capacity=64,
            flush_delay=5.0,
        )
        hive = Hive(sim, pipeline=pipeline, seed=3)
        device = build_device(small_population, sensor_suite, index=0)
        hive.register_device(device)
        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(TASK, recruitment=_Nobody())
        assert device.offer_task(TASK, acceptance_probability=1.0)
        arrived = collect_rows(honeycomb)

        # Bounce the first upload (t=1800) off a full gateway.
        hive.community["filler"] = UserState(user="filler", motivation=0.5)
        filler = make_filler_records(64)
        sim.schedule_at(
            1799.0, lambda: hive.receive_upload("dev-f", "filler", "saf", filler)
        )
        sim.run_until(TASK.end + 2 * TASK.upload_period)

        stats = device.stats["saf"]
        assert stats.uploads_rejected == 1
        # Arrival order at the Honeycomb (per this device) is the order
        # records were appended: the re-buffered first batch must
        # precede the second period's samples despite arriving later.
        mine = [row for row in arrived if row[0] == device.user]
        times = [row[1] for row in mine]
        assert times == sorted(times)
        assert len(mine) == stats.samples_taken > 0
        # The device buffer itself drained fully.
        assert device._buffers["saf"] == []

    def test_partial_admission_does_not_double_count_records(
        self, small_population, sensor_suite
    ):
        """Under drop-oldest, a partially-admitted batch bumps
        ``stats.records`` only by the admitted count: platform counters
        agree with what the store actually holds."""
        from repro.apisense.incentives import UserState
        from repro.store import DatasetStore, IngestPipeline

        sim = Simulator()
        pipeline = IngestPipeline(
            sim,
            DatasetStore(n_shards=1),
            policy="drop-oldest",
            buffer_capacity=16,
            flush_delay=1000.0,  # no flush between the two uploads
        )
        hive = Hive(sim, pipeline=pipeline, seed=3)
        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(TASK, recruitment=_Nobody())
        hive.community["filler"] = UserState(user="filler", motivation=0.5)

        first = make_filler_records(10)
        second = [
            r
            for r in make_filler_records(22)
            if r.time >= 10.0  # 12 newer records, distinct times
        ]
        accepted_first = hive.receive_upload("dev-f", "filler", "saf", first)
        accepted_second = hive.receive_upload("dev-f", "filler", "saf", second)
        assert accepted_first == 10
        # 12 into 6 free slots: drop-oldest evicts 6 buffered, admits 12.
        assert accepted_second == 12
        assert pipeline.stats.dropped == 6

        pipeline.flush_all()
        task_stats = hive.stats.per_task["saf"]
        # Counted = admitted (10 + 12), stored = admitted - dropped.
        assert task_stats.records == accepted_first + accepted_second
        assert hive.store.n_records == task_stats.records - pipeline.stats.dropped
        assert honeycomb.n_records("saf") == hive.store.n_records

    def test_oversized_batch_partial_admission_counts_kept_tail(
        self, small_population, sensor_suite
    ):
        """A batch larger than the whole buffer is admitted whole; all
        but its newest tail is immediately evicted and counted dropped,
        so admitted - dropped == stored (one counter per record)."""
        from repro.apisense.incentives import UserState
        from repro.store import DatasetStore, IngestPipeline

        sim = Simulator()
        pipeline = IngestPipeline(
            sim,
            DatasetStore(n_shards=1),
            policy="drop-oldest",
            buffer_capacity=16,
            flush_delay=1000.0,
        )
        hive = Hive(sim, pipeline=pipeline, seed=3)
        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(TASK, recruitment=_Nobody())
        hive.community["filler"] = UserState(user="filler", motivation=0.5)

        batch = make_filler_records(40)
        accepted = hive.receive_upload("dev-f", "filler", "saf", batch)
        assert accepted == 40  # whole batch admitted...
        assert pipeline.stats.dropped == 24  # ...head evicted on the spot
        assert hive.stats.per_task["saf"].records == 40
        # Immediate eviction must not pin first_record_time: the shed
        # records' times were never retained by the platform.
        assert hive.stats.per_task["saf"].first_record_time is None
        pipeline.flush_all()
        assert hive.store.n_records == 16
        assert pipeline.unaccounted == 0
        stored_times = sorted(
            float(t) for t in hive.store.scan("saf").time
        )
        assert stored_times == [float(t) for t in range(24, 40)]
