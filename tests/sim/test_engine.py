"""Tests for the simulation loop."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event


class TestScheduling:
    def test_schedule_runs_at_relative_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        # NaN compares false both ways: accepted, it fired between a 1.0 and
        # a 5.0 event and set the clock to NaN.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule(math.nan, lambda: fired.append(sim.now))
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 5.0]

    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_post_calls_its_function_at_now_plus_delay(self):
        sim = Simulator(trace=True)
        fired = []

        def deliver(a, b):
            fired.append((sim.now, a, b))

        sim.schedule(1.0, lambda: sim.post(0.5, deliver, 7, "x", "deliver.ADV"))
        sim.run()
        assert fired == [(1.5, 7, "x")]
        assert [(rec.time, rec.label, rec.detail) for rec in sim.trace_log] == [
            (1.0, "anonymous", None),
            (1.5, "deliver.ADV", None),
        ]

    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_post_rejects_a_negative_or_nan_delay(self, delay):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.post(delay, lambda a, b: None, None, None, "deliver.DATA")
        assert sim.pending_events == 0

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == pytest.approx(2.0)


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == pytest.approx(5.0)
        # The late event is still pending and fires on the next run.
        sim.run()
        assert fired == ["early", "late"]

    def test_run_into_the_past_rejected(self):
        # Accepted, run(until=3.0) set the clock back from 10.0 to 3.0, and
        # a 1.0 delay then fired at 4.0, after the events at 10.0.
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.schedule(12.0, lambda: fired.append(sim.now))
        assert sim.run(until=10.0) == 10.0
        with pytest.raises(ValueError, match="past"):
            sim.run(until=3.0)
        assert sim.now == 10.0
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0, 11.0, 12.0]

    def test_run_until_nan_rejected(self):
        # Accepted, a NaN horizon compared false and the calendar ran dry.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=math.nan)
        assert fired == [] and sim.now == 0.0
        assert sim.run(until=0.0) == 0.0
        assert sim.run(until=1.0) == 1.0
        assert fired == [1.0]

    def test_run_until_now_is_allowed_and_keeps_the_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.schedule(9.0, lambda: None)
        assert sim.run(until=6.0) == 6.0
        assert sim.run(until=6.0) == 6.0
        assert sim.events_processed == 1

    def test_run_until_with_only_cancelled_events_beyond_keeps_last_fired_time(self):
        # The clock moves to the horizon only when a live event lies beyond
        # it; cancelled ones are discarded first.
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.cancel(sim.schedule(8.0, lambda: None))
        assert sim.run(until=5.0) == 2.0
        assert sim.pending_events == 0

    def test_stop_requested_from_handler(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_handler_cancelling_a_same_time_event_skips_it(self):
        # Cancellation is lazy, so the loop must check each entry it pops:
        # an event cancelled by an earlier handler at the same instant must
        # never fire.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("first"), sim.cancel(victim)))
        victim = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["first", "after"]
        assert sim.events_processed == 2

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 3
        assert sim.pending_events == 0

    def test_corrupted_calendar_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        # Bypass schedule_at's guard to plant an event in the past.
        sim._queue.push(Event(time=1.0, action=lambda: None))
        with pytest.raises(SimulationError, match="calendar corrupted"):
            sim.run()
        assert sim.now == 5.0

    def test_nested_run_raises(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clock_never_goes_backwards(self):
        sim = Simulator()
        times = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestTrace:
    def test_trace_records_fired_events(self):
        sim = Simulator(trace=True)
        sim.schedule(1.0, lambda: None, name="tick")
        sim.run()
        labels = [rec.label for rec in sim.trace_log]
        assert labels == ["tick"]

    def test_traced_run_matches_untraced_run(self):
        def drive(trace):
            sim = Simulator(trace=trace)
            fired = []

            def tick(n):
                fired.append((sim.now, n))
                sim.schedule(1.5, lambda: tick(n + 1), name=f"tick{n + 1}", payload=n + 1)

            sim.schedule(1.0, lambda: tick(0), name="tick0", payload=0)
            sim.schedule(2.0, lambda: fired.append((sim.now, "once")))
            stopped_at = sim.run(until=6.0)
            return sim, fired, stopped_at

        plain, plain_fired, plain_stop = drive(trace=False)
        traced, traced_fired, traced_stop = drive(trace=True)
        assert traced_fired == plain_fired
        assert traced_stop == plain_stop == traced.now == plain.now == 6.0
        assert traced.events_processed == plain.events_processed == len(plain_fired)
        assert traced.pending_events == plain.pending_events == 1
        assert len(plain.trace_log) == 0
        assert [(rec.time, rec.category, rec.label, rec.detail) for rec in traced.trace_log] == [
            (1.0, "event", "tick0", 0),
            (2.0, "event", "anonymous", None),
            (2.5, "event", "tick1", 1),
            (4.0, "event", "tick2", 2),
            (5.5, "event", "tick3", 3),
        ]
