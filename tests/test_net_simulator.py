"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import EventHandle, Simulator

from .helpers import assert_holds_no_run


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

    def test_nan_times_are_rejected_by_every_entry_point(self):
        """``nan < now`` is false: a NaN let through sorts anywhere in the
        heap, and the clock runs backwards behind it."""
        sim = Simulator()
        receiver = _Receiver("a", lambda receiver, item: None)
        nan = float("nan")
        for enqueue in (
            lambda: sim.schedule_at(nan, lambda: None),
            lambda: sim.schedule(nan, lambda: None),
            lambda: sim.post_all(receiver, [(nan, "loud-0")]),
            lambda: sim.post_at(nan, receiver, "loud-0"),
        ):
            with pytest.raises(SimulationError):
                enqueue()
        assert sim.pending_events == 0 and sim._heap == []
        fired = []
        for time in (3.0, 1.0, 2.0, 0.5):
            sim.schedule_at(time, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5, 1.0, 2.0, 3.0]

    def test_post_all_queues_all_or_nothing(self):
        sim, seen = Simulator(), []
        receiver = _Receiver("a", lambda receiver, item: seen.append(item))
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        sim.post_at(5.0, receiver, "loud-queued")
        heap = [list(entry) for entry in sim._heap]
        with pytest.raises(SimulationError):
            sim.post_all(receiver, [(3.0, "loud-a"), (1.0, "loud-b"), (4.0, "loud-c")])
        assert sim.pending_events == 1 and sim._heap == heap
        sim.run()
        assert seen == ["loud-queued"] and sim.events_processed == 2

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

    @pytest.mark.parametrize("posted", [False, True])
    def test_run_until_in_the_past_never_moves_the_clock_back(self, posted):
        """``until`` behind ``now`` with an event pending beyond it: the run
        fires nothing and the clock stays where it is, so nothing can be
        scheduled into the simulated past afterwards."""
        sim, fired = Simulator(), []
        if posted:
            receiver = _Receiver("a", lambda receiver, item: fired.append(sim.now))
            sim.post_all(receiver, [(10.0, "loud-10"), (20.0, "loud-20")])
        else:
            for time in (10.0, 20.0):
                sim.schedule_at(time, lambda: fired.append(sim.now))
        sim.run(until=15.0)
        assert fired == [10.0] and sim.now == 15.0
        sim.run(until=5.0)
        assert fired == [10.0] and sim.now == 15.0
        with pytest.raises(SimulationError):
            sim.schedule_at(7.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.post_at(7.0, _Receiver("b", lambda receiver, item: None), "loud")
        sim.run()
        assert fired == [10.0, 20.0] and sim.now == 20.0
        sim.run(until=5.0)  # an empty queue keeps the clock too
        assert sim.now == 20.0

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


class _Receiver:
    """A run's receiver, the way the network and its kernels are one: it
    runs a handler for every *loud* item and passes over quiet ones without
    asking.  One contract: ``advance(k)`` true means item ``k`` is there and
    its to deliver — asked at the boundary behind every handler, and at the
    end of the run, where the answer may be the queue's next entry."""

    def __init__(self, name, handle):
        self.name, self.handle = name, handle
        self.runs = []  # the item list of every run handed over, as it ended

    def deliver_run(self, run, advance):
        self.runs.append(run)
        k, mine = 0, True  # item 0 comes entered
        while True:
            loud = run[k].startswith("loud")
            if loud:
                if not mine and not advance(k):
                    return
                self.handle(self, run[k])
            k, mine = k + 1, False
            if loud or k == len(run):
                if not advance(k):
                    return
                mine = True


class TestRuns:
    """Posted entries leave the queue as runs — every queue-consecutive
    entry of one time and one receiver in one call — and, under ``run()``,
    as chains: the call goes on over the queue's next entries for as long as
    they are the same receiver's.  Every entry still counts as an event."""

    @staticmethod
    def _logging(sim, log):
        def handle(receiver, item):
            log.append((receiver.name, item, sim.now, sim.events_processed, sim.pending_events))

        return handle

    def test_a_chain_is_the_consecutive_entries_of_one_receiver(self):
        sim, log = Simulator(), []
        a = _Receiver("a", self._logging(sim, log))
        b = _Receiver("b", self._logging(sim, log))
        for item in ("loud-1", "quiet-2", "loud-3"):
            sim.post_at(1.0, a, item)
        sim.schedule_at(1.0, lambda: log.append("plain"))  # ends the chain
        sim.post_at(1.0, a, "loud-4")
        sim.post_at(1.0, a, "loud-5")
        sim.schedule_at(1.0, lambda: None).cancel()  # so does a tombstone
        sim.post_at(1.0, a, "loud-6")
        sim.post_at(1.0, b, "loud-7")  # another receiver
        sim.post_at(1.0, a, "loud-8")
        sim.post_at(2.0, a, "loud-9")  # another time does not
        sim.post_at(2.5, a, "quiet-10")
        sim.post_at(2.5, a, "loud-11")
        assert sim.pending_events == 12
        sim.run()
        assert a.runs == [
            ["loud-1", "quiet-2", "loud-3"], ["loud-4", "loud-5"],
            ["loud-6"], ["loud-8", "loud-9", "quiet-10", "loud-11"],
        ]
        assert b.runs == [["loud-7"]]
        # Every entry was an event, counted when its handler ran, at its time.
        assert [entry if entry == "plain" else entry[1:] for entry in log] == [
            ("loud-1", 1.0, 1, 11), ("loud-3", 1.0, 3, 9), "plain",
            ("loud-4", 1.0, 5, 7), ("loud-5", 1.0, 6, 6), ("loud-6", 1.0, 7, 5),
            ("loud-7", 1.0, 8, 4), ("loud-8", 1.0, 9, 3), ("loud-9", 2.0, 10, 2),
            ("loud-11", 2.5, 12, 0),
        ]
        assert sim.events_processed == 12 and sim.pending_events == 0

    def test_what_a_handler_schedules_before_the_next_entry_comes_before_it(self):
        """The case chains exist to get right: entries are taken from the
        head of the queue only after the handlers so far have run."""
        sim, order = Simulator(), []

        def handle(receiver, item):
            order.append((item, sim.now))
            if item == "loud-1":
                sim.post_at(1.5, receiver, "loud-posted-by-1")
            if item == "loud-posted-by-1":
                sim.schedule_at(1.75, lambda: order.append(("plain", sim.now)))

        receiver = _Receiver("a", handle)
        sim.post_at(1.0, receiver, "loud-1")
        sim.post_at(2.0, receiver, "loud-2")
        sim.run()
        assert order == [
            ("loud-1", 1.0), ("loud-posted-by-1", 1.5), ("plain", 1.75), ("loud-2", 2.0),
        ]
        # The posted entry joined the chain; the plain event ended it.
        assert receiver.runs == [["loud-1", "loud-posted-by-1"], ["loud-2"]]
        assert sim.events_processed == 4 and sim.pending_events == 0

    def test_a_chain_is_bounded_by_its_window(self):
        from repro.net.simulator import _CHAIN_WINDOW

        sim = Simulator()
        receiver = _Receiver("a", lambda receiver, item: None)
        total = 2 * _CHAIN_WINDOW + 50
        for k in range(total):
            sim.post_at(1.0 + k, receiver, f"loud-{k}")
        sim.run()
        assert [len(run) for run in receiver.runs] == [_CHAIN_WINDOW, _CHAIN_WINDOW, 50]
        assert sim.events_processed == total and sim.now == float(total)
        # A same-time run longer than the window is still one run, and an
        # entry that is chained on brings the entries of its time with it.
        for k in range(_CHAIN_WINDOW + 10):
            sim.post_at(sim.now + 1.0, receiver, f"loud-moment-{k}")
        sim.post_at(sim.now + 2.0, receiver, "loud-after")
        sim.post_at(sim.now + 3.0, receiver, "loud-first")
        sim.run(until=sim.now + 1.0)
        assert len(receiver.runs[-1]) == _CHAIN_WINDOW + 10
        sim.run(until=sim.now + 2.0)
        assert receiver.runs[-1] == ["loud-after", "loud-first"]
        for k in range(_CHAIN_WINDOW + 10):
            sim.post_at(sim.now + 1.0, receiver, f"loud-moment-{k}")
        sim.post_at(sim.now + 0.5, receiver, "loud-lone")
        sim.run()
        assert len(receiver.runs[-1]) == 1 + _CHAIN_WINDOW + 10

    def test_step_takes_one_same_time_run_and_still_answers_bool(self):
        sim = Simulator()
        receiver = _Receiver("a", lambda receiver, item: None)
        for k in range(4):
            sim.post_at(1.0, receiver, f"loud-{k}")
        sim.post_at(2.0, receiver, "loud-later")
        assert sim.step() is True  # the run of t=1, and no more: no chain
        assert sim.events_processed == 4 and sim.pending_events == 1
        assert sim.now == 1.0 and len(receiver.runs[0]) == 4
        assert sim.step() is True
        assert sim.events_processed == 5 and sim.now == 2.0
        assert sim.step() is False

    @pytest.mark.parametrize("spacing", [0.0, 0.5])
    def test_unreached_entries_fire_next_before_what_the_run_scheduled(self, spacing):
        sim, order = Simulator(), []
        stopped = []

        def handle(receiver, item):
            order.append(item)
            if item == "loud-1":
                # Same instant: behind everything already queued.
                sim.schedule(0.0, lambda: order.append("scheduled-by-1"))
                sim.post_at(sim.now, receiver, "loud-posted-by-1")
                stopped.append(True)

        receiver = _Receiver("a", handle)
        for k in range(4):
            sim.post_at(1.0 + spacing * (k > 1), receiver, f"loud-{k}")
        sim.run(stop_when=lambda: bool(stopped))
        # The boundary after loud-1 said stop: two entries not reached.
        assert order == ["loud-0", "loud-1"]
        assert sim.events_processed == 2 and sim.pending_events == 4
        stopped.clear()
        sim.run()
        if spacing:  # what loud-1 left at t=1 comes before t=1.5
            assert order == [
                "loud-0", "loud-1", "scheduled-by-1", "loud-posted-by-1", "loud-2", "loud-3",
            ]
        else:
            assert order == [
                "loud-0", "loud-1", "loud-2", "loud-3", "scheduled-by-1", "loud-posted-by-1",
            ]
            assert receiver.runs[1] == ["loud-2", "loud-3"]
        assert sim.events_processed == 6 and sim.pending_events == 0

    @pytest.mark.parametrize("spacing", [0.0, 0.25])
    def test_compaction_inside_a_run_loses_nothing(self, spacing, monkeypatch):
        monkeypatch.setattr(Simulator, "_COMPACT_FLOOR", 8)
        sim, order = Simulator(), []
        timers = [sim.schedule(5.0 + k, lambda k=k: order.append(f"timer-{k}")) for k in range(40)]

        def handle(receiver, item):
            order.append(item)
            if item == "loud-1":
                heap = sim._heap
                for timer in timers[:36]:
                    timer.cancel()
                assert sim._heap is not heap  # compacted (rebuilt), mid-run

        receiver = _Receiver("a", handle)
        for k in range(6):
            sim.post_at(1.0 + spacing * k, receiver, f"loud-{k}")
        with pytest.raises(SimulationError):
            sim.run(max_events=3)  # the run may take three of the six
        assert order == ["loud-0", "loud-1", "loud-2"]
        assert sim.pending_events == 3 + 4
        sim.run()
        assert order == [f"loud-{k}" for k in range(6)] + [f"timer-{k}" for k in range(36, 40)]
        assert sim.events_processed == 10 and sim.pending_events == 0

    @pytest.mark.parametrize("spacing", [0.0, 0.25])
    def test_max_events_counts_run_entries(self, spacing):
        sim = Simulator()
        receiver = _Receiver("a", lambda receiver, item: None)
        for k in range(5):
            sim.post_at(1.0 + spacing * k, receiver, f"loud-{k}")
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert receiver.runs == [["loud-0", "loud-1", "loud-2"]]
        assert sim.events_processed == 3 and sim.pending_events == 2
        assert_holds_no_run(sim)
        assert sim.now == 1.0 + 2 * spacing

    def test_until_and_stop_when_cut_a_chain_where_they_cut_steps(self):
        sim, seen = Simulator(), []
        receiver = _Receiver("a", lambda receiver, item: seen.append(item))
        for k in range(6):
            sim.post_at(1.0 + k, receiver, f"loud-{k}")
        sim.run(until=2.5)  # the entry at t=3 stays queued; the clock moves on
        assert seen == ["loud-0", "loud-1"] and receiver.runs == [["loud-0", "loud-1"]]
        assert (sim.now, sim.events_processed, sim.pending_events) == (2.5, 2, 4)
        sim.run(stop_when=lambda: len(seen) >= 4)  # asked before every entry
        assert seen == [f"loud-{k}" for k in range(4)]
        assert receiver.runs[1] == ["loud-2", "loud-3"]
        assert (sim.now, sim.events_processed, sim.pending_events) == (4.0, 4, 2)
        sim.run(until=6.0)  # an entry *at* the bound is inside it
        assert len(seen) == 6 and sim.now == 6.0 and sim.pending_events == 0

    @pytest.mark.parametrize("spacing", [0.0, 0.25])
    def test_clear_inside_a_run_drops_the_rest(self, spacing):
        sim, order = Simulator(), []

        def handle(receiver, item):
            order.append(item)
            if item == "loud-1":
                sim.clear()

        receiver = _Receiver("a", handle)
        for k in range(4):
            sim.post_at(1.0 + spacing * k, receiver, f"loud-{k}")
        sim.run()
        assert order == ["loud-0", "loud-1"] and sim.pending_events == 0
        assert sim.events_processed == 2  # what was entered before the clear
        assert_holds_no_run(sim)
        # ... and what is posted after it is a fresh queue's.
        sim.post_at(sim.now + 1.0, receiver, "loud-again")
        sim.run()
        assert order[-1] == "loud-again" and sim.pending_events == 0

    def test_a_finished_run_leaves_nothing_of_it_in_the_simulator(self):
        """No run, item list or receiver outlives ``deliver_run``: a kept
        receiver is a simulator <-> network cycle in every deployment."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            sim = Simulator()
            receiver = _Receiver("a", lambda receiver, item: None)
            for k in range(5):
                sim.post_at(1.0 + k, receiver, f"loud-{k}")
            sim.post_at(9.0, receiver, "loud-lone")
            sim.run(until=7.0)
            assert len(receiver.runs[0]) == 5  # it was a chain
            assert_holds_no_run(sim)
            sim.run()
            assert_holds_no_run(sim)
            alive, runs = weakref.ref(receiver), receiver.runs
            del receiver
            assert alive() is None  # by reference counting alone
            assert gc.collect() == 0
            assert [len(run) for run in runs] == [5, 1]
        finally:
            gc.enable()

    def test_a_fan_out_is_one_entry_whose_records_keep_their_turn(self):
        """A fan-out waits in the heap as one entry, a cursor over its
        records sorted by ``(time, seq)``; each record still fires at its
        own turn among everything else queued."""
        sim, log = Simulator(), []
        a = _Receiver("a", self._logging(sim, log))
        b = _Receiver("b", self._logging(sim, log))
        sim.post_all(a, [(3.0, "loud-a0"), (1.0, "loud-a1"), (2.0, "loud-a2"), (2.0, "loud-a3")])
        sim.post_all(b, [(2.0, "loud-b0"), (1.0, "loud-b1"), (3.0, "loud-b2")])
        sim.schedule_at(2.0, lambda: log.append("plain"))
        assert len(sim._heap) == 3 and sim.pending_events == 8
        assert [type(entry) for entry in sim._heap].count(list) == 2
        sim.run()
        assert [entry if entry == "plain" else entry[1:3] for entry in log] == [
            ("loud-a1", 1.0), ("loud-b1", 1.0), ("loud-a2", 2.0), ("loud-a3", 2.0),
            ("loud-b0", 2.0), "plain", ("loud-a0", 3.0), ("loud-b2", 3.0),
        ]
        assert a.runs == [["loud-a1"], ["loud-a2", "loud-a3"], ["loud-a0"]]
        assert b.runs == [["loud-b1"], ["loud-b0"], ["loud-b2"]]
        assert sim.events_processed == 8 and sim.pending_events == 0

    def test_a_run_cut_inside_a_fan_out_resumes_with_the_rest_of_it(self):
        sim, seen = Simulator(), []
        receiver = _Receiver("a", lambda receiver, item: seen.append(item))
        fan_out = [(1.0, f"loud-{k}") for k in range(3)] + [(2.0, "loud-3"), (3.0, "loud-4")]
        sim.post_all(receiver, fan_out)
        sim.schedule_at(2.5, lambda: seen.append("plain"))
        sim.run(stop_when=lambda: len(seen) >= 1)
        # The run took the three records of t=1 and entered one: the other
        # two went back as entries of their own, ahead of the fan-out's rest.
        assert seen == ["loud-0"] and receiver.runs == [["loud-0", "loud-1", "loud-2"]]
        assert len(sim._heap) == 4 and sim.pending_events == 5
        sim.run(stop_when=lambda: len(seen) >= 3)
        assert seen == ["loud-0", "loud-1", "loud-2"]
        sim.run(stop_when=lambda: len(seen) >= 4)  # a chain cut across times
        assert seen[3:] == ["loud-3"] and (sim.now, sim.pending_events) == (2.0, 2)
        sim.run()
        assert seen[4:] == ["plain", "loud-4"] and sim.pending_events == 0
        assert sim.events_processed == 6 and sim._heap == []

    @pytest.mark.parametrize("block", range(4))
    def test_equals_one_entry_per_step(self, block, monkeypatch):
        """≥ 200 random schedules over mixed equal and distinct times: a
        world that posts fan-outs of items and one that schedules a plain
        event per item (the queue before runs and fan-out entries existed)
        log the same handler calls — same order, clock,
        ``events_processed`` and ``pending_events`` at every call — under
        random ``stop_when``, ``until`` and ``max_events``, with handlers
        that post, schedule and cancel."""
        import random

        monkeypatch.setattr(Simulator, "_COMPACT_FLOOR", 8)
        rng = random.Random(5_000 + block)
        chained = 0
        for case in range(60):
            script_seed = rng.random()
            limits = {
                "stop_after": rng.choice([None, rng.randint(1, 40)]),
                "until": rng.choice([None, rng.choice([1.0, 2.0, 2.5, 4.0])]),
                "max_events": rng.choice([None, rng.randint(1, 60)]),
            }
            worlds = [self._world(script_seed, limits, posts) for posts in (True, False)]
            assert worlds[0][:-1] == worlds[1][:-1], (block, case, limits)
            chained += worlds[0][-1]
        assert chained >= 30  # runs that crossed a time: the chains

    @staticmethod
    def _world(script_seed, limits, posts):
        import random

        rng = random.Random(script_seed)
        sim, log, timers = Simulator(), [], []
        times = {}  # item -> the time it was queued for

        def enqueue(receiver, fan_out):
            """One fan-out: posted as one entry, or a plain event per item
            in the same order (a quiet item is one nobody handles)."""
            for time, item in fan_out:
                times[item] = time
                if not posts:
                    sim.schedule_at(
                        time,
                        (lambda: None) if item.startswith("quiet")
                        else (lambda item=item: receiver.handle(receiver, item)),
                    )
            if posts:
                sim.post_all(receiver, fan_out)

        def handle(receiver, item):
            log.append((receiver.name, item, sim.now, sim.events_processed, sim.pending_events))
            # What a handler does is a function of the item alone.
            act = random.Random(item)
            roll = act.random()
            if roll < 0.3 and len(log) < 150:
                target = receivers[act.randrange(2)]
                enqueue(target, [
                    (sim.now + act.choice([0.0, 0.0, 1.0, act.random()]), f"loud-{item}-{j}")
                    for j in range(act.choice([1, 1, 2]))
                ])
            elif roll < 0.4:
                delay = act.choice([0.0, 1.0, act.random()])
                timers.append(sim.schedule(delay, lambda: log.append(("timer", item, sim.now))))
            elif roll < 0.6:
                for timer in timers[act.randrange(4):: 2]:
                    timer.cancel()

        receivers = [_Receiver("a", handle), _Receiver("b", handle)]

        def pick():
            return rng.choice([1.0, 1.0, 2.0, 3.0, 1.0 + 3.0 * rng.random()])

        for k in range(rng.randint(5, 30)):
            time = pick()
            roll = rng.random()
            if roll < 0.75:
                # A fan-out's records tie with other fan-outs' records and
                # with plain events: their times come from the same pool.
                receiver = receivers[rng.random() < 0.2]
                enqueue(receiver, [
                    (
                        time if j == 0 else pick(),
                        ("loud" if rng.random() < 0.7 else "quiet") + f"-{k}-{j}",
                    )
                    for j in range(rng.choice([1, 1, 2, 3, 5]))
                ])
            elif roll < 0.9:
                timers.append(sim.schedule_at(time, lambda k=k: log.append(("timer", k, sim.now))))
            else:
                sim.schedule_at(time, lambda: None).cancel()
        stop_after = limits["stop_after"]
        stop_when = None if stop_after is None else (lambda: len(log) >= stop_after)
        try:
            sim.run(until=limits["until"], max_events=limits["max_events"], stop_when=stop_when)
            outcome = "returned"
        except SimulationError:
            outcome = "max_events"
        chained = any(
            len({times[item] for item in run}) > 1
            for receiver in receivers
            for run in receiver.runs
        )
        return log, outcome, sim.now, sim.events_processed, sim.pending_events, chained
