"""Deterministic discrete-event simulation kernel.

A tiny but complete DES: events are ``(time, sequence, callback)`` triples
ordered by time with ties broken by scheduling order, so runs are fully
deterministic.  All model randomness lives in *seeded* RNGs owned by the
latency model / adversary, never in the kernel.

There is one queue: a binary heap of ``[time, seq, callback, sim]`` entries,
one allocation per scheduled event: the entry is its own
:class:`EventHandle`.  It knows its simulator only through one shared weak
reference: neither a fired event nor a dropped simulator may leave a
reference cycle behind for the collector to find.  Fan-outs reach the
kernel already coalesced (one event per distinct delivery time, see
:mod:`repro.net.sparse`), so a trial is a few thousand events and no
per-time bucketing measurably beats the heap at that size.  Cancellation writes a tombstone into the entry; tombstones are
skipped when popped and swept once they outnumber live entries, because
bounded-window timer churn (cancel + re-arm per view) would otherwise grow
the backlog without bound.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from operator import itemgetter
from typing import Callable, List, Optional

from ..config import DEFAULT_SIM_TUNING
from ..errors import SimulationError

Callback = Callable[[], None]


def _fired() -> None:  # sentinel: the event already ran; cancel is a no-op
    raise AssertionError("fired-event sentinel must never be invoked")


class EventHandle(list):
    """One scheduled event: the heap entry ``[time, seq, callback, sim]``
    itself, returned by :meth:`Simulator.schedule` so the caller can cancel.

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

    Args:
        compact_floor: tombstone-compaction floor (default
            :data:`repro.config.DEFAULT_SIM_TUNING`).

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    #: Default compaction floor, re-exported from :mod:`repro.config` for
    #: callers/tests that size workloads off the class. Compaction only
    #: kicks in past this — tiny queues are cheap to scan and compacting
    #: them would just churn allocations.
    _COMPACT_FLOOR = DEFAULT_SIM_TUNING.compact_floor

    def __init__(self, *, compact_floor: Optional[int] = None) -> None:
        self._compact_floor = (
            compact_floor
            if compact_floor is not None
            else DEFAULT_SIM_TUNING.compact_floor
        )
        self._now: float = 0.0
        self._heap: List[EventHandle] = []
        self._ref = weakref.ref(self)  # what every entry knows of its queue
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._live = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events (O(1))."""
        return self._live

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
            and len(self._heap) >= self._compact_floor
        ):
            self._heap = [entry for entry in self._heap if entry[2] is not None]
            heapq.heapify(self._heap)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        entry = EventHandle((time, next(self._seq), callback, self._ref))
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def clear(self) -> None:
        """Cancel every pending event (deployment teardown)."""
        for entry in self._heap:
            entry[2] = None
        self._heap = []
        self._live = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the single next event; returns False if none remain."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue  # cancelled
            entry[2] = _fired  # late cancel() must stay a no-op
            self._live -= 1
            self._now = entry[0]
            self._events_processed += 1
            callback()
            return True
        return False

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
                advanced to ``until``).
            max_events: safety valve against runaway protocols.
            stop_when: predicate checked after every event.
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
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    return
                self.step()
                processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def _peek_time(self) -> Optional[float]:
        while self._heap:
            entry = self._heap[0]
            if entry[2] is None:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None
