"""Deterministic discrete-event simulation kernel.

A tiny but complete DES: events are ``(time, sequence, callback)`` triples
ordered by time with ties broken by scheduling order, so runs are fully
deterministic.  All model randomness lives in *seeded* RNGs owned by the
latency model / adversary, never in the kernel.

There is one queue: a binary heap of lists ordered by their leading
``(time, seq)``.  A timer is the entry ``[time, seq, callback, sim]``, one
allocation per scheduled event: the entry is its own :class:`EventHandle`.
It knows its simulator only through one shared weak reference: neither a
fired event nor a dropped simulator may leave a reference cycle behind for
the collector to find.  Cancellation writes a tombstone into the entry;
tombstones are skipped when popped and swept once they outnumber live
entries, because bounded-window timer churn (cancel + re-arm per view) would
otherwise grow the backlog without bound.

Fan-outs reach the kernel coalesced (one delivery per distinct delivery
time, see :mod:`repro.net.network`) and as *data*: :meth:`Simulator.post_all`
numbers a fan-out's ``(time, item)`` deliveries in the order given, sorts
them by ``(time, seq)`` once and queues **one** entry, a plain list
``[time, seq, receiver, sim, item, rest]`` that is never handed out: the
earliest delivery, and the later ones as ``(time, seq, item)`` records in
``rest``, reverse-sorted.  When the entry leaves the head of the heap, the
next record takes its place with one ``heapreplace``, as an entry of its
own that carries ``rest`` on.  Every delivery keeps its own ``(time, seq)``
and the head of the heap is the earliest of all the fan-outs' earliest, so
deliveries fire in exactly the order, and with exactly the counts, of one
entry per delivery; the heap holds one entry per fan-out in flight (under
exponential latency at n=300: ~800 instead of ~8,700 per-delivery entries).

What leaves the queue is a **run**, served by one ``receiver.deliver_run(
items, advance)`` call: every queue-consecutive delivery of one time and one
receiver (with constant latency a protocol phase is one such moment — n
deliveries of O(sqrt n) votes — and its cost should follow its votes, not
its senders) and, under :meth:`Simulator.run`, the **chain** behind them:
when the receiver asks ``advance(len(items))`` and the head of the queue is
a delivery to the same receiver, whatever its time, it is taken off the
head together with those sharing its time, the clock moves there and
``items`` grows (with continuous latency every vote is its own delivery:
the chain is what such a trial crosses the layers once per).  Deliveries
leave the queue from its head only, after the handlers so far have
scheduled what they schedule, so nothing is overtaken; anything else at the
head, ``until``, the ``max_events`` budget or a full window
(:data:`_CHAIN_WINDOW`) ends the chain and the loop starts a new run.  A
run is still n events to everything that counts them: the receiver enters
item ``k`` through ``advance(k)``, which asks the loop's ``stop_when`` at
that boundary and moves ``events_processed`` / ``pending_events`` as n
one-entry steps would; deliveries it did not enter go back to the heap as
entries of their own under their own ``(time, seq)``, ahead of anything the
run's handlers scheduled for the same instant (a new entry's sequence
number is higher than every queued one's).
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from operator import itemgetter
from typing import Callable, List, Optional

from ..errors import SimulationError

Callback = Callable[[], None]

_time = itemgetter(0)


def _fired() -> None:  # sentinel: the event already ran; cancel is a no-op
    raise AssertionError("fired-event sentinel must never be invoked")


def _end_of_run(k: int) -> bool:  # ``advance`` for a lone entry: no boundary
    return False


_never: Callable[[], bool] = bool  # the stop predicate of a loop without one


def _pop(heap: list, entry: list) -> None:
    """Take the posted entry ``entry``, the head, off ``heap``: the next
    record of its fan-out, if any, takes its place as an entry of its own,
    and ``entry`` is left one delivery (what a cut-short run puts back)."""
    rest = entry[5]
    if rest:
        time, seq, item = rest.pop()
        heapq.heapreplace(heap, [time, seq, entry[2], entry[3], item, rest])
        entry[5] = None
    else:
        heapq.heappop(heap)


#: Entries a run may hold and still be chained on: they (and their messages)
#: live until ``deliver_run`` returns, and a trial must not become one chain.
_CHAIN_WINDOW = 256


class EventHandle(list):
    """One scheduled timer: the heap entry ``[time, seq, callback, sim]``
    itself, returned by :meth:`Simulator.schedule` so the caller can cancel.
    (A posted fan-out's entry is a plain list and has no handle.)

    ``callback`` becomes ``None`` when cancelled and :func:`_fired` once
    run; ``sim`` is the simulator's shared ``weakref.ref`` to itself.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    seq = property(itemgetter(1))

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent)."""
        callback = self[2]
        if callback is None or callback is _fired:
            return
        self[2] = None
        sim = self[3]()
        if sim is not None:
            sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self[2] is None


class Simulator:
    """Virtual-time event loop.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    #: Tombstone-compaction floor: compaction only kicks in past this — tiny
    #: queues are cheap to scan and compacting them would just churn
    #: allocations.  It decides when the heap is rebuilt, never the order
    #: events fire in.
    _COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[list] = []  # timers (EventHandle) and fan-outs
        self._ref = weakref.ref(self)  # what every entry knows of its queue
        self._seq = itertools.count()
        self._events_processed = 0  # (and ``_live``: without the run's entered)
        self._live = 0
        self._running = False
        self._cancelled = 0
        # The run being delivered (``_advance``), ``None`` between runs: its
        # items, the entries ``_take`` took (a cut-short run puts them back),
        # items entered, receiver, stop predicate, limits (``_room``: 0 if
        # it may not chain).
        self._items: Optional[list] = None
        self._taken: Optional[List[list]] = None
        self._entered = 0
        self._receiver = None
        self._stop_when: Optional[Callable[[], bool]] = None
        self._room = self._budget = self._until = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed + self._entered

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events (O(1))."""
        return self._live - self._entered

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`.

        Lazily compacts the heap once more than half of it is tombstones,
        so bounded-window timer churn (cancel + re-arm per view) cannot grow
        the backlog past ~2x the live event count.
        """
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled > len(self._heap) // 2
            and len(self._heap) >= self._COMPACT_FLOOR
        ):
            self._heap = [entry for entry in self._heap if entry[2] is not None]
            heapq.heapify(self._heap)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if not delay >= 0:  # (NaN included)
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        entry = EventHandle((time, next(self._seq), callback, self._ref))
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def post_at(self, time: float, receiver, item: object) -> None:
        """Queue ``item`` for ``receiver`` at absolute virtual time ``time``:
        it leaves the queue inside a run, a ``receiver.deliver_run(items,
        advance)`` call.  An event like any other to the counters and
        budgets, but without a handle (only :meth:`clear` cancels it)."""
        self.post_all(receiver, ((time, item),))

    def post_all(self, receiver, timed_items) -> None:
        """:meth:`post_at` for every ``(time, item)`` pair — a fan-out, queued
        as one entry.  Each pair is still a delivery of its own, numbered in
        the order given; all are queued, or (a time in the past) none."""
        now, seq, records = self._now, self._seq, []
        for time, item in timed_items:
            if not time >= now:  # (NaN included)
                raise SimulationError(f"cannot schedule at {time} < now ({now})")
            records.append((time, next(seq), item))
        if records:
            self._live += len(records)
            if len(records) > 1:
                # The cursor: reverse (time, seq) order, next record last.
                # Numbered in order, so a stable sort on times is that order.
                records.sort(key=_time)
                records.reverse()
            time, first, item = records.pop()
            # (A one-delivery fan-out keeps no empty list alive while queued.)
            rest = records or None
            heapq.heappush(self._heap, [time, first, receiver, self._ref, item, rest])

    def clear(self) -> None:
        """Cancel every pending event (deployment teardown)."""
        for entry in self._heap:
            entry[2] = None
        self._heap = []
        if self._items is not None:  # inside a run: it ends at its next boundary
            self._events_processed += self._entered
            self._items, self._taken, self._entered = [], [], 0
        self._live = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event — a posted delivery takes the rest of its
        same-time run with it, and no more (only :meth:`run` chains);
        returns False if none remain."""
        return self._step(None, None, None, False) > 0

    def _step(self, stop_when, budget, until: Optional[float], chain: bool) -> int:
        """One event, or one run of at most ``budget`` posted deliveries
        (with ``chain``, one that may go on past its time); returns how many
        events were processed (0: none remain, or the next one — still
        queued — lies beyond ``until``)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            receiver = entry[2]
            if receiver is None:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue  # cancelled
            if until is not None and entry[0] > until:
                return 0
            self._now = time = entry[0]
            if len(entry) == 4:
                heapq.heappop(heap)
                entry[2] = _fired  # late cancel() must stay a no-op
                self._live -= 1
                self._events_processed += 1
                receiver()
                return 1
            item = entry[4]
            _pop(heap, entry)
            # Nothing of this receiver's follows (a plain event, a tombstone,
            # another receiver, unchained another time): no boundary state.
            if (
                budget == 1
                or not heap
                or heap[0][2] is not receiver
                or not (chain or heap[0][0] == time)
            ):
                self._live -= 1
                self._events_processed += 1
                receiver.deliver_run([item], _end_of_run)
                return 1
            items = [item]
            self._items, self._taken, self._entered = items, [], 1
            self._receiver, self._stop_when = receiver, stop_when or _never
            self._budget = math.inf if budget is None else budget
            self._room = min(_CHAIN_WINDOW, self._budget) if chain else 0
            self._until = math.inf if until is None else until
            self._take(heap, time)
            before = self._events_processed
            try:
                receiver.deliver_run(items, self._advance)
            finally:
                # ``self._heap``, not ``heap``: a handler's cancel() or
                # clear() may have rebound it (and clear() emptied the run).
                entered, taken = self._entered, self._taken
                for entry in taken[len(taken) - len(self._items) + entered :]:
                    heapq.heappush(self._heap, entry)  # (``_take``'s, unentered)
                self._live -= entered
                self._events_processed += entered
                self._entered = 0
                self._items = self._taken = self._receiver = self._stop_when = None
                self._room = self._budget = self._until = None
            return self._events_processed - before
        return 0

    def _advance(self, k: int) -> bool:
        """The receiver's side of a run: items before ``k`` are delivered —
        is item ``k`` its to deliver?  Yes for one it already entered; no
        once the loop's ``stop_when`` holds (asked here, at the boundary, as
        the loop would between two events); at the end of the run, yes iff
        a fresh step would hand this receiver the queue's next delivery (the
        chain, whose entry is re-keyed in place: it is never put back).
        Items count as processed once entered, so the counters read inside
        a handler — and to ``stop_when`` — as if each entry were a step."""
        items = self._items
        size = len(items)
        if k == size and size < self._room:  # the end of a run that may grow
            self._entered = k
            if self._stop_when():
                return False
            heap = self._heap  # (cancel() / clear() may have rebound it)
            if not heap:
                return False
            entry = heap[0]
            if entry[2] is not self._receiver or entry[0] > self._until:
                return False
            self._now = time = entry[0]
            items.append(entry[4])
            rest = entry[5]
            if rest:
                entry[0], entry[1], entry[4] = rest.pop()
                heapq.heapreplace(heap, entry)
            else:
                heapq.heappop(heap)
            self._entered = k + 1
            if heap and heap[0][0] == time and heap[0][2] is entry[2]:
                self._take(heap, time)
            return True
        if k < self._entered:
            return True
        self._entered = k if k < size else size  # the items before k
        if self._stop_when():
            return False
        if k < size:
            self._entered = k + 1
            return True
        return False  # past the end, or at the end of a run that may not grow

    def _take(self, heap, time: float) -> None:
        """The queue's head deliveries to the run's receiver at ``time`` join the run."""
        items, taken = self._items, self._taken
        receiver, budget = self._receiver, self._budget
        while (
            heap
            and heap[0][2] is receiver
            and heap[0][0] == time
            and len(items) < budget
        ):
            entry = heap[0]
            _pop(heap, entry)
            taken.append(entry)
            items.append(entry[4])

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run the event loop.

        Args:
            until: stop once virtual time would exceed this (the clock is
                advanced to ``until``, unless it is already past it).
            max_events: safety valve against runaway protocols.
            stop_when: predicate checked after every event (inside a run or
                a chain: at the boundaries the receiver asks about).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        try:
            while True:
                if stop_when is not None and stop_when():
                    return
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                taken = self._step(
                    stop_when,
                    None if max_events is None else max_events - processed,
                    until,
                    True,
                )
                if not taken:  # none remain, or the next lies beyond ``until``
                    break
                processed += taken
            if until is not None and self._now < until:
                self._now = until  # (never back: ``until`` may lie behind now)
        finally:
            self._running = False
