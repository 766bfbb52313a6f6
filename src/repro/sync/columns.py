"""Shared synchronizer columns and the one Wish bucket kernel.

A view change is all-to-all: every correct replica broadcasts ``Wish(v)``,
so a trial delivers n(n-1) wishes per view.  Handled per message, each of
those is a signature check, a dict update and an order query in one
replica's private :class:`~repro.sync.synchronizer.WishLedger`.  Production
deployments keep the same bookkeeping once, in numpy arrays shared by every
correct replica (:class:`WishColumns`), and apply a whole coalesced fan-out
to them in one call (:class:`WishDispatch`).

State layout (the slot layout of :mod:`repro.core.columnar`): per **live
view** ``v`` one packed ``uint64`` seen-bitmap of shape ``(words, n)`` — bit
``s`` of column ``d`` says "``d`` recorded a wish ``>= v`` from ``s``" — and
an ``int32`` count vector, ``counts[d]`` = set bits in column ``d``.  A wish
for view ``w`` sets its sender's bit in every live slot ``v <= w``, so
``counts`` is non-increasing in ``v`` and "the ``k``-th highest wish at
``d``" is the largest live ``v`` with ``counts[v][d] >= k`` (see
:mod:`repro.sync.synchronizer`).  That is n²/8 bytes + O(n) per live view,
and nothing at all until a trial's first wish.

Which views are live is bounded by where the correct replicas are, never by
what a sender claims:

* ``floor`` — the lowest ``min(current view, highest wish sent)`` over the
  attached, running replicas.  A view at or below it can make nobody relay
  or enter, so its slot is dropped and wishes for it are not recorded.
* ``horizon`` — one past the highest view any attached replica has
  entered.  A correct replica only ever wishes for views up to it.  A wish
  beyond it counts toward every live view (they are all below it) and is
  otherwise kept as one number per (sender, recipient) in the *far record*:
  a wish for view 10**9 allocates no slot and loops over no gap.  Far views
  get their slot when the horizon reaches them, seeded from the record; at
  most ``f`` senders can be in the record while no correct replica has
  gone there, and ``f`` of them can trigger nothing, so the far record is
  consulted for the ``k``-th highest only once more than ``f`` senders are
  in it (unit tests with more wishers than ``f`` allows).

:class:`WishDispatch` validates a fan-out once (wire type, ``signer == src``,
domain, then staleness per recipient, then one signature verification if any
recipient would record it), applies it to all running recipients as masked
scatters, and drops to scalar code only where the per-recipient loop also
serialises: Byzantine recipients (arbitrary handlers) and recipients whose
count just reached ``f+1`` or ``2f+1`` for a view they have not yet wished
or entered — those run the synchronizer's own relay/enter reaction, in
bucket order, with the stop probe consulted after each.  Between two such
stops a delivery only touches its own recipient's column, so applying the
segment in one shot reorders nothing observable.  One-recipient buckets
(continuous latency) and every bucket of a deployment with network
duplication (a recipient may appear twice) take the per-recipient loop over
the same arrays instead; the three routes are counted.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Callable, Dict, List, Optional

import numpy as np

from ..crypto.signatures import SignatureScheme, Signed
from ..messages.base import conforms
from ..types import MAX_VIEW, ReplicaId, View
from .synchronizer import ViewSynchronizer, Wish

__all__ = ["WishColumns", "WishDispatch"]


class _WishSlot:
    """Seen-bitmap and count vector of one live view."""

    __slots__ = ("seen", "counts", "flat_seen", "flat_counts")

    def __init__(self, n: int, words: int) -> None:
        # Word-major, as in the vote slots: one fan-out has one sender, so
        # it only ever touches the contiguous n-vector of that sender's word.
        self.seen = np.zeros((words, n), dtype=np.uint64)
        self.counts = np.zeros(n, dtype=np.int32)
        # The same memory as flat memoryviews: Python ints for scalar code.
        self.flat_seen = memoryview(self.seen.reshape(-1))
        self.flat_counts = memoryview(self.counts)


class WishColumns:
    """The wish state of every attached synchronizer, as shared columns.

    ``syncs`` maps replica id to its :class:`ViewSynchronizer`; the mirror
    columns (``cur``, ``sent``, ``live``) are filled from them when the
    first wish allocates the arrays and kept current by
    :meth:`note_progress` / :meth:`note_stopped` afterwards.
    """

    def __init__(self, n: int, syncs: Dict[ReplicaId, ViewSynchronizer]) -> None:
        self.n = n
        self.words = (n + 63) >> 6
        self._syncs = syncs
        self.cur: Optional[np.ndarray] = None  # allocated by the first wish
        self.sent: Optional[np.ndarray] = None
        self.live: Optional[np.ndarray] = None
        self.attached: Optional[np.ndarray] = None
        self.floor: View = 0
        self.horizon: View = 0
        self._at_floor = 0
        self._views: List[View] = []  # live views, ascending
        self._slots: Dict[View, _WishSlot] = {}
        self._far: Dict[ReplicaId, np.ndarray] = {}

    @property
    def live_views(self) -> List[View]:
        """Views that currently hold a slot (ascending)."""
        return list(self._views)

    @property
    def nbytes(self) -> int:
        """Bytes held by slots, mirror columns and the far record."""
        if self.cur is None:
            return 0
        arrays = [self.cur, self.sent, self.live, self.attached]
        arrays += self._far.values()
        for slot in self._slots.values():
            arrays += (slot.seen, slot.counts)
        return sum(a.nbytes for a in arrays)

    # ------------------------------------------------------------------
    # Allocation and the live window
    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        n = self.n
        self.cur = np.zeros(n, dtype=np.int64)
        self.sent = np.zeros(n, dtype=np.int64)
        self.live = np.zeros(n, dtype=bool)
        self.attached = np.zeros(n, dtype=bool)
        for r, sync in self._syncs.items():
            self.attached[r] = True
            self.live[r] = not sync._stopped
            self.cur[r] = sync._current_view
            self.sent[r] = sync._max_wish_sent
        self.horizon = int(self.cur.max()) + 1
        self._raise_floor()

    def _raise_floor(self) -> None:
        low = np.where(self.live, np.minimum(self.cur, self.sent), MAX_VIEW)
        floor = min(int(low.min()), self.horizon)
        self.floor = floor
        self._at_floor = int(np.count_nonzero(low == floor))
        views = self._views
        while views and views[0] <= floor:
            del self._slots[views.pop(0)]
        for sender in [s for s, a in self._far.items() if int(a.max()) <= floor]:
            del self._far[sender]

    def _raise_horizon(self, horizon: View) -> None:
        reached = self.horizon
        self.horizon = horizon
        for wished in self._far.values():
            for view in np.unique(wished[(wished > reached) & (wished <= horizon)]):
                self._slot(int(view))

    def note_progress(self, d: ReplicaId, current_view: View, sent: View) -> None:
        if self.cur is None:
            return
        was = min(int(self.cur[d]), int(self.sent[d]))
        self.cur[d] = current_view
        self.sent[d] = sent
        if current_view >= self.horizon:
            self._raise_horizon(current_view + 1)
        if was == self.floor and min(current_view, sent) > was and self.live[d]:
            self._at_floor -= 1
            if self._at_floor == 0:
                self._raise_floor()

    def note_attached(self, d: ReplicaId) -> None:
        """A synchronizer joined after the arrays were allocated (an SMR
        replica opening a slot late).  It has entered and wished nothing,
        so the floor drops back to 0; slots dropped below the old floor are
        rebuilt on demand, where only the newcomer can still react."""
        if self.cur is not None:
            self.attached[d] = self.live[d] = True
            if self.floor:
                self.floor = self._at_floor = 0
            self._at_floor += 1

    def note_stopped(self, d: ReplicaId) -> None:
        if self.cur is not None and self.live[d]:
            self.live[d] = False
            if min(int(self.cur[d]), int(self.sent[d])) == self.floor:
                self._at_floor -= 1
                if self._at_floor == 0:
                    self._raise_floor()

    def _slot(self, view: View) -> _WishSlot:
        """The slot of a view inside ``(floor, horizon]``, created on demand.

        A new slot starts from what is already known to be ``>= view``: the
        next live slot above it (bits propagate downwards, so that one holds
        every higher slot's) and the far record.
        """
        slot = self._slots.get(view)
        if slot is not None:
            return slot
        slot = self._slots[view] = _WishSlot(self.n, self.words)
        views = self._views
        above = bisect_right(views, view)
        seeded = above < len(views)
        if seeded:
            slot.seen[:] = self._slots[views[above]].seen
        for sender, wished in self._far.items():
            at = wished >= view
            if at.any():
                slot.seen[sender >> 6, at] |= np.uint64(1 << (sender & 63))
                seeded = True
        if seeded:
            slot.counts[:] = np.bitwise_count(slot.seen).sum(axis=0)
        insort(views, view)
        return slot

    # ------------------------------------------------------------------
    # Scalar access (one recipient's column)
    # ------------------------------------------------------------------
    def accepts(self, d: ReplicaId, sender: ReplicaId, view: View) -> bool:
        if self.cur is None:
            self._allocate()
        if view <= self.floor:
            return False  # can make nobody relay or enter: not recorded
        if view > self.horizon:
            wished = self._far.get(sender)
            return wished is None or int(wished[d]) < view
        seen = self._slot(view).flat_seen
        return not (seen[(sender >> 6) * self.n + d] >> (sender & 63)) & 1

    def record(self, d: ReplicaId, sender: ReplicaId, view: View) -> None:
        at = (sender >> 6) * self.n + d
        bit = 1 << (sender & 63)
        slots = self._slots
        for v in self._views:
            if v > view:
                break
            slot = slots[v]
            seen = slot.flat_seen
            word = seen[at]
            if not word & bit:
                seen[at] = word | bit
                slot.flat_counts[d] += 1
        if view > self.horizon:
            self._far_of(sender)[d] = view

    def _far_of(self, sender: ReplicaId) -> np.ndarray:
        wished = self._far.get(sender)
        if wished is None:
            wished = self._far[sender] = np.zeros(self.n, dtype=np.int64)
        return wished

    def kth_highest(self, d: ReplicaId, k: int) -> View:
        if self.cur is None:
            return 0
        far = self._far
        if len(far) >= k:
            beyond = sorted((int(a[d]) for a in far.values()), reverse=True)
            if beyond[k - 1] > self.horizon:
                return beyond[k - 1]
        slots = self._slots
        for v in reversed(self._views):
            if slots[v].flat_counts[d] >= k:
                return v
        return 0


class _ColumnWishes:
    """One replica's column of :class:`WishColumns`, as a wish backend."""

    __slots__ = ("_columns", "_d")

    def __init__(self, columns: WishColumns, replica: ReplicaId) -> None:
        self._columns = columns
        self._d = replica

    def accepts(self, sender: ReplicaId, view: View) -> bool:
        return self._columns.accepts(self._d, sender, view)

    def record(self, sender: ReplicaId, view: View) -> None:
        self._columns.record(self._d, sender, view)

    def kth_highest(self, k: int) -> View:
        return self._columns.kth_highest(self._d, k)

    def note_progress(self, current_view: View, max_wish_sent: View) -> None:
        self._columns.note_progress(self._d, current_view, max_wish_sent)

    def note_stopped(self) -> None:
        self._columns.note_stopped(self._d)


class WishDispatch:
    """One-call-per-bucket delivery kernel for Wish fan-outs.

    Args:
        n, f: system size and fault threshold.
        signatures: the instance's signature scheme; behind it a Wish is
            verified once per object (honest ones are valid at birth), so
            the check below costs a verdict-table lookup per bucket.
        syncs: replica id -> synchronizer of every *correct* replica; each
            is switched to its column of the shared state here.  More may
            :meth:`attach` later (SMR replicas open a slot one by one).
        handlers: the network's plain handlers (Byzantine recipients).
        dup_possible: the network may duplicate messages, so a recipient may
            appear twice in one bucket; every bucket then takes the
            per-recipient loop.

    An instance kernel (:meth:`repro.net.network.Network.use_kernel`)
    that takes one bucket per call: it answers ``(delivered,)`` for
    ``run[pos]``, or ``(-1,)`` for anything that is not a signed Wish.
    Nothing it does depends on what was sent before, so its
    :meth:`inspect` ignores every send.
    ``vectorised`` / ``scalar`` / ``declined`` count the Wish buckets that
    took each route.
    """

    def __init__(
        self,
        n: int,
        f: int,
        signatures: SignatureScheme,
        syncs: Dict[ReplicaId, ViewSynchronizer],
        handlers: Dict[ReplicaId, Callable],
        dup_possible: bool = False,
    ) -> None:
        self._relay_at = f + 1
        self._enter_at = 2 * f + 1
        self._signatures = signatures
        self._syncs: Dict[ReplicaId, ViewSynchronizer] = {}
        self._handlers = handlers
        self._dup = dup_possible
        self.columns = WishColumns(n, self._syncs)
        self._domain = ""
        self.vectorised = 0
        self.scalar = 0
        self.declined = 0
        for replica, sync in syncs.items():
            self.attach(replica, sync)

    def attach(self, replica: ReplicaId, sync: ViewSynchronizer) -> None:
        """Move one correct replica's (not yet started) synchronizer onto
        its column of the shared state."""
        self._syncs[replica] = sync
        self._domain = sync.domain
        sync.use_wish_state(_ColumnWishes(self.columns, replica))
        self.columns.note_attached(replica)

    def inspect(self, src: ReplicaId, message: object) -> None:
        """A send: nothing to note (see the class docstring)."""

    def note_declined(self, message) -> None:
        """Count a Wish bucket the caller had to route around the kernel."""
        if isinstance(getattr(message, "payload", None), Wish):
            self.declined += 1

    def detach(self) -> None:
        """Forget the synchronizers (deployment teardown): they point at the
        columns, so the columns must stop pointing back."""
        self._syncs.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "wish_vectorised": self.vectorised,
            "wish_scalar": self.scalar,
            "wish_declined": self.declined,
        }

    def __call__(self, run, pos, probe, advance) -> tuple:
        src, message, dsts = run[pos]
        wish = getattr(message, "payload", None)
        if not isinstance(wish, Wish):
            return (-1,)
        if self._dup:
            self.declined += 1
            return (self._deliver_each(src, message, dsts, probe),)
        if (
            len(dsts) == 1
            or not conforms(message, Signed, self._signatures.verdicts)
            or message.signer != src
            or wish.domain != self._domain
        ):
            # One recipient, or a wish every synchronizer drops on a lookup:
            # nothing to batch.
            self.scalar += 1
            return (self._deliver_each(src, message, dsts, probe),)
        self.vectorised += 1

        columns = self.columns
        if columns.cur is None:
            columns._allocate()
        view = wish.view
        D = np.asarray(dsts, dtype=np.intp)
        wi = src >> 6
        bit = np.uint64(1 << (src & 63))
        # Staleness per recipient (Byzantine and stopped recipients record
        # nothing), then one verification for everyone who would record.
        new = None
        if view > columns.horizon:
            wished = columns._far.get(src)
            new = columns.live[D]
            if wished is not None:
                new &= wished[D] < view
        elif view > columns.floor:
            new = columns.live[D] & ((columns._slot(view).seen[wi, D] & bit) == 0)
        stops = ~columns.attached[D]
        if new is not None and new.any() and self._signatures.verify(message):
            stops |= self._apply(D, np.nonzero(new)[0], wi, bit, src, view)

        stop_idx = np.nonzero(stops)[0]
        syncs = self._syncs
        for si, d in zip(stop_idx.tolist(), D[stop_idx].tolist()):
            sync = syncs.get(d)
            if sync is None:
                self._handlers[d](src, message)  # arbitrary handler
            else:
                sync._react_to_wishes()
            # The per-recipient loop probes before the delivery after any
            # stop; a trailing probe with nothing left returns the same count.
            if probe is not None and probe():
                return (si + 1,)
        return (len(dsts),)

    def _apply(self, D, idx, wi, bit, src, view) -> np.ndarray:
        """Record the wish at recipients ``D[idx]``; returns the mask over
        ``D`` of recipients whose relay or enter rule may now fire."""
        columns = self.columns
        relay_at = self._relay_at
        enter_at = self._enter_at
        hit = np.zeros(D.shape[0], dtype=bool)
        for v in columns._views:
            if v > view:
                break
            slot = columns._slots[v]
            fresh = idx
            if v != view:  # at ``view`` itself idx *is* the unseen set
                fresh = idx[(slot.seen[wi, D[idx]] & bit) == 0]
                if not fresh.size:
                    continue
            dn = D[fresh]
            slot.seen[wi, dn] |= bit
            c = slot.counts[dn] + 1
            slot.counts[dn] = c
            hit[fresh] |= ((c >= relay_at) & (columns.sent[dn] < v)) | (
                (c >= enter_at) & (columns.cur[dn] < v)
            )
        if view > columns.horizon:
            columns._far_of(src)[D[idx]] = view
            if len(columns._far) >= relay_at:
                hit[idx] = True
        return hit

    def _deliver_each(self, src, message, dsts, probe) -> int:
        """The per-recipient loop: each correct recipient's synchronizer
        (its scalar facade over the shared columns), each Byzantine
        recipient's handler, the stop probe between deliveries."""
        syncs = self._syncs
        delivered = 0
        for d in dsts:
            if delivered and probe is not None and probe():
                return delivered
            delivered += 1
            sync = syncs.get(d)
            if sync is None:
                self._handlers[d](src, message)
            else:
                sync.on_wish(src, message)
        return delivered
