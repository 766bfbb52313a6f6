"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import EventHandle, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        order = []

        def outer():
            sim.schedule(0.0, lambda: order.append("inner"))
            order.append("outer")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]

    def test_same_time_event_from_callback_fires_after_queued_peers(self):
        # Replayed future-view messages and local deliveries are scheduled
        # at the *current* time from inside a callback; they must queue
        # behind everything already scheduled for that time, not cut in.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_at(sim.now, lambda: order.append("spawned"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.schedule(1.0, lambda: order.append("third"))
        sim.schedule(2.0, lambda: order.append("later"))
        sim.run()
        assert order == ["first", "second", "third", "spawned", "later"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append("x")))
        sim.run()
        assert fired == ["x"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()  # remaining event still fires afterwards
        assert fired == ["late"]

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_when_predicate(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert len(fired) == 3

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as e:
                errors.append(e)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestCancellationCompaction:
    def test_pending_events_is_live_counter(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        handles[0].cancel()
        handles[1].cancel()
        handles[1].cancel()  # idempotent: no double decrement
        assert sim.pending_events == 8
        sim.step()  # fires the earliest live event (t=3)
        assert sim.pending_events == 7

    def test_tombstone_majority_compacts_heap(self):
        sim = Simulator()
        total = 4 * Simulator._COMPACT_FLOOR
        handles = [
            sim.schedule(float(i + 1), lambda: None) for i in range(total)
        ]
        assert len(sim._heap) == total
        # Cancel just over half; the lazy sweep must drop every tombstone.
        for h in handles[: total // 2 + 1]:
            h.cancel()
        live = total - (total // 2 + 1)
        assert sim.pending_events == live
        assert len(sim._heap) == live
        assert all(entry[2] is not None for entry in sim._heap)

    def test_fired_and_cancelled_events_leave_no_cycle(self):
        import gc

        gc.collect()
        gc.disable()
        try:
            sim = Simulator()
            handles = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
            for h in handles[::2]:
                h.cancel()
            sim.run()
            del handles, h
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_clear_cancels_everything_pending(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(float(i + 1), lambda: fired.append(1)) for i in range(5)]
        sim.step()
        sim.clear()
        assert sim.pending_events == 0 and sim.step() is False
        assert all(h.cancelled for h in handles[1:])
        handles[2].cancel()  # late cancel stays a no-op
        assert sim.pending_events == 0 and fired == [1]

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        total = Simulator._COMPACT_FLOOR - 2
        handles = [
            sim.schedule(float(i + 1), lambda: None) for i in range(total)
        ]
        for h in handles:
            h.cancel()
        # Below the floor the tombstones stay; the pop loop skims them.
        assert len(sim._heap) == total
        assert sim.pending_events == 0
        assert sim.step() is False
        assert sim._heap == []

    def test_survivors_fire_in_order_after_compaction(self):
        sim = Simulator()
        fired = []
        total = 2 * Simulator._COMPACT_FLOOR
        handles = [
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
            for i in range(total)
        ]
        for h in handles[::2]:  # cancel every even slot -> majority sweep
            h.cancel()
        for h in handles[1::4]:
            h.cancel()
        expected = [i for i in range(total) if i % 2 == 1 and (i - 1) % 4 != 0]
        sim.run()
        assert fired == expected
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        sim.run()
        assert fired == ["x"]
        before = sim.pending_events
        handle.cancel()  # must not decrement counters or mark cancelled
        handle.cancel()
        assert sim.pending_events == before == 0
        # A fresh event still schedules and fires cleanly afterwards.
        sim.schedule(1.0, lambda: fired.append("y"))
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["x", "y"]

    def test_compaction_preserves_cancelled_flag_semantics(self):
        sim = Simulator()
        total = 4 * Simulator._COMPACT_FLOOR
        handles = [
            sim.schedule(float(i + 1), lambda: None) for i in range(total)
        ]
        doomed = handles[: total // 2 + 1]
        for h in doomed:
            h.cancel()
        # Handles keep answering correctly even though their entries were
        # swept out of the heap.
        assert all(h.cancelled for h in doomed)
        assert not any(h.cancelled for h in handles[total // 2 + 1 :])


class TestEntryIsTheHandle:
    """One allocation per scheduled event: the heap entry is the handle."""

    def test_schedule_returns_the_heap_entry_itself(self):
        sim = Simulator()
        first = sim.schedule(2.0, lambda: None)
        second = sim.schedule_at(1.5, lambda: None)
        assert isinstance(first, EventHandle) and isinstance(first, list)
        assert {id(entry) for entry in sim._heap} == {id(first), id(second)}
        assert (first.time, second.time) == (2.0, 1.5)
        assert second.seq == first.seq + 1
        assert sim._heap[0] is second  # ordered by (time, seq) as plain lists
        assert not hasattr(first, "__dict__")  # nothing allocated beside it

    def test_handle_semantics_in_every_state(self):
        sim = Simulator()
        fired = []
        early = sim.schedule(1.0, lambda: fired.append("early"))
        dropped = sim.schedule(2.0, lambda: fired.append("dropped"))
        late = sim.schedule(3.0, lambda: fired.append("late"))
        cleared = sim.schedule(4.0, lambda: fired.append("cleared"))
        assert sim.pending_events == 4 and sim._cancelled == 0
        # Cancel before fire: a tombstone, counted once however often asked.
        dropped.cancel()
        dropped.cancel()
        assert dropped.cancelled
        assert (sim.pending_events, sim._cancelled) == (3, 1)
        # Fire: not cancelled, and a late cancel changes nothing.
        assert sim.step() and fired == ["early"]
        early.cancel()
        assert not early.cancelled
        assert (sim.pending_events, sim._cancelled) == (2, 1)
        # Popping the tombstone settles its count.
        assert sim.step() and fired == ["early", "late"]
        assert (sim.pending_events, sim._cancelled) == (1, 0)
        # clear(): everything pending reads cancelled; cancel stays a no-op.
        sim.clear()
        assert cleared.cancelled and not late.cancelled
        cleared.cancel()
        assert (sim.pending_events, sim._cancelled) == (0, 0)
        assert sim.step() is False and fired == ["early", "late"]
        assert (cleared.time, dropped.time) == (4.0, 2.0)

    def test_compaction_counts_on_entries(self):
        sim = Simulator()
        total = 4 * Simulator._COMPACT_FLOOR
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(total)]
        for count, handle in enumerate(handles[: total // 2], start=1):
            handle.cancel()
            assert sim._cancelled == count and len(sim._heap) == total
        handles[total // 2].cancel()  # tombstones now outnumber live entries
        assert sim._cancelled == 0
        assert len(sim._heap) == sim.pending_events == total - total // 2 - 1
        assert all(type(entry) is EventHandle for entry in sim._heap)
        handles[0].cancel()  # swept out of the heap: still a no-op
        assert sim._cancelled == 0

    def test_dropped_simulator_with_pending_events_dies_by_refcount(self):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            sim = Simulator()
            handles = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
            handles[3].cancel()
            sim.step()
            alive = weakref.ref(sim)
            del sim
            # No entry points strongly at its simulator, so there is no
            # sim -> heap -> entry -> sim cycle for the collector to find.
            assert alive() is None
            # A handle that outlives its simulator still answers.
            handles[5].cancel()
            assert handles[5].cancelled and handles[3].cancelled
            assert not handles[0].cancelled
            del handles
            assert gc.collect() == 0
        finally:
            gc.enable()
