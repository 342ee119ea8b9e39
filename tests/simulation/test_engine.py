"""Unit tests for the discrete-event simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import Simulator

NAN = float("nan")


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(30.0, lambda: fired.append("late"))
        sim.schedule_at(10.0, lambda: fired.append("early"))
        sim.schedule_at(20.0, lambda: fired.append("middle"))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule_at(5.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_relative_schedule(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [105.0]

    def test_past_schedule_rejected(self):
        sim = Simulator(start_time=50.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(49.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(10.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule_at(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 11.0)]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        token = sim.schedule_at(5.0, lambda: fired.append("x"))
        token.cancel()
        sim.run()
        assert fired == []

    def test_cancel_periodic_stops_series(self):
        sim = Simulator()
        fired = []
        token = sim.schedule_periodic(10.0, lambda: fired.append(sim.now))

        def stop():
            token.cancel()

        sim.schedule_at(35.0, stop)
        sim.run_until(100.0)
        assert fired == [10.0, 20.0, 30.0]


class TestPeriodic:
    def test_fires_every_period(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(10.0, lambda: fired.append(sim.now), until=50.0)
        sim.run()
        assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_first_at_override(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(10.0, lambda: fired.append(sim.now), until=30.0, first_at=5.0)
        sim.run()
        assert fired == [5.0, 15.0, 25.0]

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)


class TestRunUntil:
    def test_time_advances_even_with_empty_queue(self):
        sim = Simulator()
        sim.run_until(500.0)
        assert sim.now == 500.0

    def test_future_events_not_fired(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(100.0, lambda: fired.append("later"))
        sim.run_until(50.0)
        assert fired == []
        sim.run_until(150.0)
        assert fired == ["later"]

    def test_backwards_run_rejected(self):
        sim = Simulator()
        sim.run_until(100.0)
        with pytest.raises(SimulationError):
            sim.run_until(50.0)

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestRunawayProtection:
    def test_fuse_trips(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestNanTimes:
    """One NaN time would sit at the heap's root — ``nan <= end`` is false
    for ever — and silently starve every later event."""

    def test_nan_is_refused_everywhere_a_time_enters(self):
        sim = Simulator()
        for schedule in (
            lambda: sim.schedule_at(NAN, lambda: None),
            lambda: sim.schedule(NAN, lambda: None),
            lambda: sim.schedule_periodic(NAN, lambda: None),
            lambda: sim.schedule_periodic(10.0, lambda: None, first_at=NAN),
            lambda: sim.run_until(NAN),
        ):
            with pytest.raises(SimulationError):
                schedule()
        assert sim.pending == 0 and sim.now == 0.0

    def test_a_refused_nan_starves_nothing(self):
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError):
            sim.schedule_at(NAN, lambda: fired.append("nan"))
        sim.schedule_at(1.0, lambda: fired.append("one"))
        sim.run_until(10.0)
        assert fired == ["one"] and sim.pending == 0


class TestOrderingContract:
    def test_run_until_never_fires_past_its_end_behind_a_cancelled_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("cancelled")).cancel()
        sim.schedule_at(5.0, lambda: fired.append("later"))
        sim.run_until(2.0)
        assert fired == [] and sim.now == 2.0 and sim.pending == 1
        sim.run_until(5.0)
        assert fired == ["later"]

    def test_same_instant_callbacks_are_never_compared(self):
        class Unorderable:
            def __init__(self, fired):
                self.fired = fired

            def __call__(self):
                self.fired.append(self)

        sim = Simulator()
        fired = []
        first, second = Unorderable(fired), Unorderable(fired)
        sim.schedule_at(3.0, first)
        sim.schedule_at(3.0, second)
        sim.schedule_periodic(3.0, Unorderable(fired), until=3.0)
        sim.run()
        assert fired[:2] == [first, second] and len(fired) == 3

    def test_a_callback_can_cancel_a_same_time_sibling(self):
        sim = Simulator()
        fired = []
        tokens = {}
        sim.schedule_at(4.0, lambda: (fired.append("a"), tokens["b"].cancel()))
        tokens["b"] = sim.schedule_at(4.0, lambda: fired.append("b"))
        sim.schedule_at(4.0, lambda: fired.append("c"))
        assert sim.pending == 3
        sim.run_until(4.0)
        assert fired == ["a", "c"]
        assert sim.events_processed == 2  # cancelled events are not counted

    def test_an_event_scheduled_at_the_current_instant_fires_last_of_it(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("a")
            sim.schedule(0.0, lambda: fired.append("a+"))

        sim.schedule_at(4.0, first)
        sim.schedule_at(4.0, lambda: fired.append("b"))
        sim.run_until(4.0)
        assert fired == ["a", "b", "a+"]


class ModelSimulator:
    """The kernel's contract the slow, obvious way: a list kept sorted by
    ``(time, insertion)``; cancelled entries stay until they are reached."""

    class Token:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []
        self._inserted = 0

    @property
    def pending(self):
        return len(self._entries)

    def _insert(self, time, callback, token):
        self._entries.append((time, self._inserted, callback, token))
        self._inserted += 1
        self._entries.sort(key=lambda entry: entry[:2])

    def schedule_at(self, time, callback):
        token = self.Token()
        self._insert(time, callback, token)
        return token

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_periodic(self, period, callback, until=None, first_at=None):
        token = self.Token()

        def arm(time):
            if until is None or time <= until:
                self._insert(time, fire, token)

        def fire():
            callback()
            arm(self.now + period)

        arm(self.now + period if first_at is None else first_at)
        return token

    def run_until(self, end_time):
        while self._entries and self._entries[0][0] <= end_time:
            time, _, callback, token = self._entries.pop(0)
            if not token.cancelled:
                self.now = time
                callback()
                self.events_processed += 1
        self.now = end_time


# Instants on a coarse grid, so same-time collisions are the common case.
_instants = st.integers(0, 12).map(float)
_behaviours = st.one_of(
    st.just(("plain",)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.0, 1.0, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
)
_operations = st.one_of(
    st.tuples(st.just("at"), _instants, _behaviours),
    st.tuples(st.just("after"), _instants, _behaviours),
    st.tuples(
        st.just("periodic"),
        st.integers(1, 5).map(float),
        st.none() | _instants,
        st.none() | _instants,
        _behaviours,
    ),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
)


def run_program(sim, phases):
    """Apply each phase's operations, then run 6 s on; what was observed."""
    fired, tokens, observed = [], [], []

    def cancel(index):
        if tokens:
            tokens[index % len(tokens)].cancel()

    def callback_for(label, behaviour):
        def callback():
            fired.append((label, sim.now))
            if behaviour[0] == "spawn":  # delay 0: at the current instant
                tokens.append(
                    sim.schedule(behaviour[1], callback_for((label, "child"), ("plain",)))
                )
            elif behaviour[0] == "cancel":  # maybe a same-time sibling
                cancel(behaviour[1])

        return callback

    for phase, operations in enumerate(phases):
        for index, operation in enumerate(operations):
            label, kind = (phase, index), operation[0]
            if kind == "at":
                callback = callback_for(label, operation[2])
                tokens.append(sim.schedule_at(sim.now + operation[1], callback))
            elif kind == "after":
                tokens.append(sim.schedule(operation[1], callback_for(label, operation[2])))
            elif kind == "periodic":
                _, period, first, until, behaviour = operation
                tokens.append(
                    sim.schedule_periodic(
                        period,
                        callback_for(label, behaviour),
                        until=None if until is None else sim.now + until,
                        first_at=None if first is None else sim.now + first,
                    )
                )
            else:
                cancel(operation[1])
        sim.run_until(sim.now + 6.0)
        observed.append((sim.now, len(fired), sim.events_processed, sim.pending))
    return fired, observed


class TestOrderingProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_operations, max_size=8), min_size=1, max_size=4))
    def test_fired_order_is_time_then_insertion(self, phases):
        fired, observed = run_program(Simulator(), phases)
        assert (fired, observed) == run_program(ModelSimulator(), phases)
        # Fired and not cancelled is what is counted; time never goes back.
        assert observed[-1][2] == len(fired)
        assert [now for _, now in fired] == sorted(now for _, now in fired)
