"""Tests for the event calendar."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import Event, EventQueue


def _noop() -> None:
    pass


def _peek_time(queue: EventQueue):
    """Firing time of *queue*'s earliest live event, or ``None``.

    Reads the heap directly, dropping cancelled entries from its top, so the
    fused :meth:`EventQueue.pop_due` can be checked against a separate peek.
    """
    heap = queue._heap
    while heap and heap[0][2].cancelled:
        heapq.heappop(heap)
    return heap[0][0] if heap else None


class TestEvent:
    def test_repr_mentions_state(self):
        event = Event(time=1.0, action=_noop, name="hello")
        assert "hello" in repr(event)

    def test_events_define_no_order(self):
        # The heap orders (time, sequence, event) entries; an event itself
        # is never compared, so it defines no ordering to fall back on.
        early, late = Event(time=1.0, action=_noop), Event(time=2.0, action=_noop)
        with pytest.raises(TypeError):
            early < late


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        queue.push(Event(time=3.0, action=_noop, name="c"))
        queue.push(Event(time=1.0, action=_noop, name="a"))
        queue.push(Event(time=2.0, action=_noop, name="b"))
        assert [queue.pop_due().name for _ in range(3)] == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_fifo_order(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(Event(time=5.0, action=_noop, name=name))
        assert [queue.pop_due().name for _ in range(3)] == ["first", "second", "third"]

    def test_same_time_events_fire_fifo_across_interleaved_cancels(self):
        queue = EventQueue()
        events = {name: queue.push(Event(time=5.0, action=_noop, name=name)) for name in "abcd"}
        events["b"].cancel()
        events["e"] = queue.push(Event(time=5.0, action=_noop, name="e"))
        events["a"].cancel()
        assert queue.pop_due().name == "c"
        # A push after a pop still queues behind every earlier push.
        events["f"] = queue.push(Event(time=5.0, action=_noop, name="f"))
        events["e"].cancel()
        assert [queue.pop_due().name for _ in range(2)] == ["d", "f"]
        assert queue.pop_due() is None

    def test_pop_skips_cancelled_events(self):
        queue = EventQueue()
        keep = queue.push(Event(time=2.0, action=_noop, name="keep"))
        drop = queue.push(Event(time=1.0, action=_noop, name="drop"))
        drop.cancel()
        assert queue.pop_due() is keep

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop_due() is None

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
        queue = EventQueue()
        for t in times:
            queue.push(Event(time=t, action=_noop))
        popped = []
        while True:
            event = queue.pop_due()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(times)
        assert len(popped) == len(times)

    def test_live_count_after_cancel_is_exact(self):
        # Regression for the incremental live counter: len() must stay exact
        # through cancellations without scanning the heap.
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
        queue = EventQueue()
        first = queue.push(Event(time=1.0, action=_noop))
        queue.push(Event(time=2.0, action=_noop))
        assert queue.pop_due() is first
        first.cancel()  # already out of the calendar; must be a no-op
        assert len(queue) == 1
        assert queue.pop_due() is not None
        assert len(queue) == 0

    def test_cancel_of_unpushed_event_is_harmless(self):
        queue = EventQueue()
        loose = Event(time=1.0, action=_noop)
        loose.cancel()
        assert len(queue) == 0

    def test_pop_decrements_live_count(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, action=_noop))
        queue.push(Event(time=2.0, action=_noop))
        queue.pop_due()
        assert len(queue) == 1

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e3), st.booleans()),
            min_size=1,
            max_size=100,
        )
    )
    def test_property_live_count_matches_heap_scan(self, entries):
        queue = EventQueue()
        events = [queue.push(Event(time=t, action=_noop)) for t, _ in entries]
        for event, (_, cancel) in zip(events, entries):
            if cancel:
                event.cancel()
        expected = sum(1 for _, cancel in entries if not cancel)
        assert len(queue) == expected
        while queue.pop_due() is not None:
            expected -= 1
            assert len(queue) == expected
        assert len(queue) == 0


class TestPopDue:
    def test_pop_due_returns_events_up_to_horizon(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, action=_noop, name="a"))
        queue.push(Event(time=5.0, action=_noop, name="b"))
        assert queue.pop_due(2.0).name == "a"
        assert queue.pop_due(2.0) is None
        # The beyond-horizon event stays queued.
        assert len(queue) == 1
        assert queue.pop_due(None).name == "b"

    def test_pop_due_event_exactly_at_horizon_fires(self):
        queue = EventQueue()
        queue.push(Event(time=2.0, action=_noop, name="edge"))
        assert queue.pop_due(2.0).name == "edge"

    def test_pop_due_skips_cancelled(self):
        queue = EventQueue()
        early = queue.push(Event(time=1.0, action=_noop))
        queue.push(Event(time=3.0, action=_noop, name="live"))
        early.cancel()
        assert queue.pop_due(None).name == "live"
        assert queue.pop_due(None) is None

    def test_pop_due_empty_returns_none(self):
        assert EventQueue().pop_due(10.0) is None

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_property_pop_due_equals_peek_then_pop(self, times, horizon):
        fused, staged = EventQueue(), EventQueue()
        for t in times:
            fused.push(Event(time=t, action=_noop))
            staged.push(Event(time=t, action=_noop))
        while True:
            via_fused = fused.pop_due(horizon)
            next_time = _peek_time(staged)
            via_staged = (
                staged.pop_due()
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
        queue = EventQueue()
        events = [queue.push(Event(time=t, action=_noop)) for t, _ in entries]
        expected = []
        for event, (t, cancel) in zip(events, entries):
            if cancel:
                event.cancel()
            else:
                expected.append(t)
        popped = []
        while True:
            event = queue.pop_due()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(expected)
