"""Tests for the event calendar.

:meth:`Simulator.run` is the only code that pops the calendar, so every
pop here goes through it: :class:`_Calendar` fires one event per step.
"""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue


def _noop() -> None:
    pass


class _Calendar:
    """An :class:`EventQueue` popped through :meth:`Simulator.run`.

    Each pushed event stops the run when it fires, so :meth:`step` fires
    exactly the next live event due by *until* and returns it, or returns
    ``None`` when none is due.
    """

    def __init__(self) -> None:
        self.sim = Simulator()
        self.queue = self.sim._queue
        self.fired = []

    def push(self, time: float, name: str = "") -> Event:
        event = Event(time=time, action=_noop, name=name)
        event.action = lambda: self._fire(event)
        return self.queue.push(event)

    def _fire(self, event: Event) -> None:
        self.fired.append(event)
        self.sim.stop()

    def step(self, until=None):
        count = len(self.fired)
        self.sim.run(until)
        return self.fired[-1] if len(self.fired) > count else None

    def __len__(self) -> int:
        return len(self.queue)


def _peek_time(calendar: _Calendar):
    """Firing time of *calendar*'s earliest live event, or ``None``.

    Reads the heap directly, dropping cancelled entries from its top, so
    :meth:`Simulator.run`'s horizon check can be compared with a separate
    peek.
    """
    heap = calendar.queue._heap
    while heap and heap[0][2] is None and heap[0][3].cancelled:
        heapq.heappop(heap)
    return heap[0][0] if heap else None


class TestEvent:
    def test_repr_mentions_state(self):
        event = Event(time=1.0, action=_noop, name="hello")
        assert "hello" in repr(event)

    def test_events_define_no_order(self):
        # The heap orders (time, sequence, ...) entries; an event itself
        # is never compared, so it defines no ordering to fall back on.
        early, late = Event(time=1.0, action=_noop), Event(time=2.0, action=_noop)
        with pytest.raises(TypeError):
            early < late


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        calendar = _Calendar()
        calendar.push(3.0, "c")
        calendar.push(1.0, "a")
        calendar.push(2.0, "b")
        assert [calendar.step().name for _ in range(3)] == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_fifo_order(self):
        calendar = _Calendar()
        for name in ("first", "second", "third"):
            calendar.push(5.0, name)
        assert [calendar.step().name for _ in range(3)] == ["first", "second", "third"]

    def test_same_time_events_fire_fifo_across_interleaved_cancels(self):
        calendar = _Calendar()
        events = {name: calendar.push(5.0, name) for name in "abcd"}
        events["b"].cancel()
        events["e"] = calendar.push(5.0, "e")
        events["a"].cancel()
        assert calendar.step().name == "c"
        # A push after a pop still queues behind every earlier push.
        events["f"] = calendar.push(5.0, "f")
        events["e"].cancel()
        assert [calendar.step().name for _ in range(2)] == ["d", "f"]
        assert calendar.step() is None

    def test_pop_skips_cancelled_events(self):
        calendar = _Calendar()
        keep = calendar.push(2.0, "keep")
        drop = calendar.push(1.0, "drop")
        drop.cancel()
        assert calendar.step() is keep

    def test_pop_empty_returns_none(self):
        assert _Calendar().step() is None

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        a = queue.push(Event(time=1.0, action=_noop))
        queue.push(Event(time=2.0, action=_noop))
        assert len(queue) == 2
        a.cancel()
        assert len(queue) == 1

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        event = queue.push(Event(time=1.0, action=_noop))
        assert queue
        event.cancel()
        assert not queue

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(time=-1.0, action=_noop))

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.push(Event(time=float("nan"), action=_noop))
        assert not queue

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_property_pop_order_is_sorted(self, times):
        calendar = _Calendar()
        for t in times:
            calendar.push(t)
        popped = []
        while True:
            event = calendar.step()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(times)
        assert len(popped) == len(times)

    def test_live_count_after_cancel_is_exact(self):
        # len() must stay exact through cancellations, which leave their
        # entries in the heap.
        queue = EventQueue()
        events = [queue.push(Event(time=float(i), action=_noop)) for i in range(5)]
        assert len(queue) == 5
        events[1].cancel()
        events[3].cancel()
        assert len(queue) == 3

    def test_double_cancel_decrements_once(self):
        queue = EventQueue()
        event = queue.push(Event(time=1.0, action=_noop))
        queue.push(Event(time=2.0, action=_noop))
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        calendar = _Calendar()
        first = calendar.push(1.0)
        calendar.push(2.0)
        assert calendar.step() is first
        first.cancel()  # already out of the calendar; must be a no-op
        assert len(calendar) == 1
        assert calendar.step() is not None
        assert len(calendar) == 0

    def test_cancel_of_unpushed_event_is_harmless(self):
        queue = EventQueue()
        loose = Event(time=1.0, action=_noop)
        loose.cancel()
        assert len(queue) == 0

    def test_pop_decrements_live_count(self):
        calendar = _Calendar()
        calendar.push(1.0)
        calendar.push(2.0)
        calendar.step()
        assert len(calendar) == 1

    def test_bare_entries_share_the_sequence_and_count_as_live(self):
        calendar = _Calendar()
        fired = []
        calendar.push(5.0, "event")
        calendar.sim.post(5.0, lambda a, b: fired.append((a, b)), "bare", 1, "deliver.DATA")
        calendar.push(5.0, "after")
        assert len(calendar) == 3
        assert calendar.step().name == "event"
        calendar.sim.run()
        assert fired == [("bare", 1)]
        assert [event.name for event in calendar.fired] == ["event", "after"]
        assert len(calendar) == 0

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e3), st.booleans()),
            min_size=1,
            max_size=100,
        )
    )
    def test_property_live_count_matches_heap_scan(self, entries):
        calendar = _Calendar()
        events = [calendar.push(t) for t, _ in entries]
        for event, (_, cancel) in zip(events, entries):
            if cancel:
                event.cancel()
        expected = sum(1 for _, cancel in entries if not cancel)
        assert len(calendar) == expected
        while calendar.step() is not None:
            expected -= 1
            assert len(calendar) == expected
        assert len(calendar) == 0


class TestRunHorizon:
    def test_run_fires_events_up_to_horizon(self):
        calendar = _Calendar()
        calendar.push(1.0, "a")
        calendar.push(5.0, "b")
        assert calendar.step(2.0).name == "a"
        assert calendar.step(2.0) is None
        # The beyond-horizon event stays queued.
        assert len(calendar) == 1
        assert calendar.step(None).name == "b"

    def test_event_exactly_at_horizon_fires(self):
        calendar = _Calendar()
        calendar.push(2.0, "edge")
        assert calendar.step(2.0).name == "edge"

    def test_run_skips_cancelled(self):
        calendar = _Calendar()
        early = calendar.push(1.0)
        calendar.push(3.0, "live")
        early.cancel()
        assert calendar.step(None).name == "live"
        assert calendar.step(None) is None

    def test_empty_calendar_fires_nothing(self):
        assert _Calendar().step(10.0) is None

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_property_run_to_horizon_equals_peek_then_pop(self, times, horizon):
        fused, staged = _Calendar(), _Calendar()
        for t in times:
            fused.push(t)
            staged.push(t)
        while True:
            via_fused = fused.step(horizon)
            next_time = _peek_time(staged)
            via_staged = (
                staged.step()
                if next_time is not None and next_time <= horizon
                else None
            )
            if via_fused is None and via_staged is None:
                break
            assert via_fused is not None and via_staged is not None
            assert via_fused.time == via_staged.time
        assert len(fused) == len(staged)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e3), st.booleans()),
            min_size=1,
            max_size=100,
        )
    )
    def test_property_cancelled_events_never_pop(self, entries):
        calendar = _Calendar()
        events = [calendar.push(t) for t, _ in entries]
        expected = []
        for event, (t, cancel) in zip(events, entries):
            if cancel:
                event.cancel()
            else:
                expected.append(t)
        popped = []
        while True:
            event = calendar.step()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(expected)
