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

:class:`WishDispatch` is the kernel table's ``Wish`` entry, on the vote
kernel's run driver (:class:`~repro.core.columnar.RunKernel`; DESIGN.md "Runs
and groups", *The wish group*).  A **group** is consecutive buckets of one
run that broadcast a valid signed wish for one view from distinct signers
to everyone but the sender, ``_PASS_WISHES`` deliveries at most.  One at or
above the break-even (``_PASS_MIN_WISHES``) is applied in one array pass
over its ``(bucket, recipient)`` grid: the seen-bit test, each recipient's
arrival rank (a cumsum down the buckets), one scatter into ``seen`` /
``counts``.  Its stops are Byzantine recipients (arbitrary handlers) and
the delivery at which a recipient's count first reaches ``f+1`` /
``2f+1`` for a view it has not wished / entered — the synchronizer's own
reaction.  A group spans several buckets only while no running replica can
still relay the view and no lower live view can still be entered; then a
stop can only enter the group's view, which the over-applied counts of its
own column answer exactly as per-bucket delivery would.  Otherwise the
group is one bucket, where a recipient appears once and its stop reads its
column as delivered.  Everything else — groups below the break-even,
wishes beyond the horizon, multicasts of any other shape, and chains of
one-recipient buckets under continuous latency — is walked, with the
synchronizer's rules over the same columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right, insort
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.columnar import RunKernel
from ..crypto.signatures import SignatureScheme, Signed
from ..messages.base import conforms
from ..types import MAX_VIEW, ReplicaId, View, id_typecode
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


#: Deliveries one array pass takes at most: its grid of (bucket, recipient)
#: temporaries stays a few hundred KiB whatever n, while a whole n=1000
#: view change (10^6 deliveries) in one pass would hold ~30 MB of them.
_PASS_WISHES = 16384

#: Deliveries a group needs to take the array pass; a smaller one is walked
#: (DESIGN.md "Runs and groups", *The wish group*).
_PASS_MIN_WISHES = 128

_NEVER = 1 << 30  # a count no recipient reaches


class WishDispatch(RunKernel):
    """The kernel of Wish fan-outs: one array pass per large *group* of
    buckets, one scalar walk for everything else.

    Args:
        n, f: system size and fault threshold.
        signatures: the instance's signature scheme; behind it a Wish is
            verified once per object (honest ones are valid at birth), so
            a bucket's check costs a verdict-table lookup.
        syncs: replica id -> synchronizer of every *correct* replica; each
            is switched to its column of the shared state here.  More may
            :meth:`attach` later (SMR replicas open a slot one by one).
        handlers: the network's plain handlers (Byzantine recipients).

    Nothing it does depends on what was sent before, so it inspects no
    send.  A walk is one stretch of walked buckets between passes.
    """

    kinds = (Wish,)
    stat_names = (
        "wish_vectorised", "wish_scalar", "wish_declined", "wish_passes", "wish_walks"
    )

    def __init__(
        self,
        n: int,
        f: int,
        signatures: SignatureScheme,
        syncs: Dict[ReplicaId, ViewSynchronizer],
        handlers: Dict[ReplicaId, Callable],
    ) -> None:
        super().__init__(handlers)
        self._relay_at = f + 1
        self._enter_at = 2 * f + 1
        self._signatures = signatures
        self._syncs: Dict[ReplicaId, ViewSynchronizer] = {}
        self._everyone = array(id_typecode(n), range(n))  # (as a broadcast's ids)
        self.columns = WishColumns(n, self._syncs)
        self._domain = ""
        for replica, sync in syncs.items():
            self.attach(replica, sync)

    def attach(self, replica: ReplicaId, sync: ViewSynchronizer) -> None:
        """Move one correct replica's (not yet started) synchronizer onto
        its column of the shared state."""
        self._syncs[replica] = sync
        self._domain = sync.domain
        sync.use_wish_state(_ColumnWishes(self.columns, replica))
        self.columns.note_attached(replica)

    def detach(self) -> None:
        """Forget the synchronizers (deployment teardown): they point at the
        columns, so the columns must stop pointing back."""
        self._syncs.clear()

    def _group(self, run, k):
        """The group rule.  A broadcast opens a group: the broadcasts after
        it for the same view from distinct signers, ``_PASS_WISHES``
        deliveries at most — or just ``run[k]`` while some running replica
        may still relay the view or a lower live view may still be entered
        (and for a wish beyond the horizon, which is walked).  ``(True,
        size)`` at or above the break-even, else ``(False, size)``, walked
        without asking the rule again inside it; any other bucket is
        ``(False, 0)``."""
        src, message, dsts = run[k]
        view = message.payload.view
        if not self._broadcast(src, message, dsts, message.payload):
            return False, 0
        columns = self.columns
        if columns.cur is None:
            columns._allocate()
        if view > columns.horizon:
            return False, 1
        views, end = columns._views, k + 1
        if view <= columns.floor or not (
            (views and views[0] < view) or (columns.live & (columns.sent < view)).any()
        ):
            signers = {src}
            stop = min(len(run), k + max(1, _PASS_WISHES // (columns.n - 1)))
            while end < stop:
                sender, message, dsts = run[end]
                wish = getattr(message, "payload", None)
                if (
                    not isinstance(wish, Wish)
                    or wish.view != view
                    or sender in signers
                    or not self._broadcast(sender, message, dsts, wish)
                ):
                    break
                signers.add(sender)
                end += 1
        size = end - k
        return size * (columns.n - 1) >= _PASS_MIN_WISHES, size

    def _walk(self, run, k, extent, probe, advance, took) -> bool:
        """The walk: bucket by bucket from ``run[k]``, recipient by
        recipient, the synchronizer's own ``on_wish`` rules over each
        correct recipient's column (the recipient-independent checks once
        per bucket), each Byzantine recipient's handler, the stop probe
        between deliveries — through walked groups (``extent`` buckets from
        ``run[k]``, then each group the rule finds below the break-even) and
        chains of one-recipient buckets alike, up to the next group the
        pass takes (entered: the driver asks the rule for it again)."""
        syncs, handlers, columns = self._syncs, self._handlers, self.columns
        verify = self._signatures.verify
        others = columns.n - 1
        end = k + extent  # (the rule is not asked inside a walked group)
        src, message, dsts = run[k]
        while True:
            wish = message.payload
            view = wish.view
            valid = self._valid(src, message, wish)
            verified = None
            delivered = 0
            self.walked += 1
            for d in dsts:
                if delivered and probe is not None and probe():
                    took.append(delivered)
                    return False
                delivered += 1
                sync = syncs.get(d)
                if sync is None:
                    handlers[d](src, message)
                elif valid and not sync._stopped and columns.accepts(d, src, view):
                    if verified is None:
                        verified = verify(message)
                    if verified:
                        columns.record(d, src, view)
                        sync._react_to_wishes()
            took.append(delivered)
            k += 1
            # (A router hands over its own slice of the run: a bucket the
            # simulator just appended is not in it.)
            if not advance(k) or k >= len(run):
                return False
            src, message, dsts = run[k]
            if getattr(message, "payload", None).__class__ is not Wish:
                return False  # (entered: the caller's)
            if k >= end and len(dsts) == others:
                passed, extent = self._group(run, k)
                if passed:
                    return True
                end = k + extent

    def _broadcast(self, src, message, dsts, wish) -> bool:
        """Whether a bucket is a valid signed Wish to everyone but its
        sender, in id order: the shape a pass takes (a correct
        synchronizer's broadcast under constant latency).  A correct
        replica sends its wishes only by broadcasting them, and a bucket
        keeps its fan-out's target order, so n-1 recipients of one are
        that shape; anyone else's are compared."""
        everyone = self._everyone
        return (
            len(dsts) == len(everyone) - 1
            and self._valid(src, message, wish)
            and (
                src in self._syncs
                or (dsts[src:] == everyone[src + 1 :] and dsts[:src] == everyone[:src])
            )
        )

    def _valid(self, src, message, wish) -> bool:
        """``on_wish``'s recipient-independent checks but the signature:
        wire type, ``signer == src``, the instance's domain."""
        return (
            conforms(message, Signed, self._signatures.verdicts)
            and message.signer == src
            and wish.domain == self._domain
        )

    def _pass(self, run, pos, size, probe, advance, took) -> bool:
        """The array pass over the ``size`` broadcasts at ``run[pos]``, as a
        ``(bucket, recipient)`` grid: the seen-bit test, each recipient's
        arrival rank (a cumsum down the buckets), one scatter per slot, then
        the stops in (bucket, recipient) order with the probe after each."""
        columns = self.columns
        n = columns.n
        group = run[pos : pos + size]
        view = group[0][1].payload.view
        signers = np.fromiter([bucket[0] for bucket in group], np.intp, size)
        rows = np.arange(size)
        stops = None
        if view > columns.floor:
            words = signers >> 6
            bits = np.uint64(1) << (signers & 63).astype(np.uint64)
            # Who records: running correct recipients that have not seen it.
            fresh = (columns._slot(view).seen[words] & bits[:, None]) == 0
            fresh &= columns.live
            fresh[rows, signers] = False
            verify = self._signatures.verify
            for b in np.flatnonzero(fresh.any(axis=1)).tolist():
                if not verify(group[b][1]):
                    fresh[b] = False
            # (Ranks fit a byte: a group holds at most n buckets and at
            # most ``_PASS_WISHES // (n - 1)``, never more than 129.)
            ranks = np.uint8 if size < 256 else np.int32
            for v in [v for v in columns._views if v <= view]:
                slot = columns._slots[v]
                new = fresh
                if v != view:  # (a group of one bucket: see ``_group``)
                    new = fresh & ((slot.seen[words] & bits[:, None]) == 0)
                # Each delivery's arrival rank at its recipient.  A
                # recipient's stop is the delivery that first brings its
                # count to f+1 while it has not wished ``v``, or to 2f+1
                # while it has not entered ``v``; after it, it reacts to
                # nothing more of the group.
                rank = np.cumsum(new, axis=0, dtype=ranks)
                need = np.minimum(
                    np.where(columns.sent < v, self._relay_at - slot.counts, _NEVER),
                    np.where(columns.cur < v, self._enter_at - slot.counts, _NEVER),
                )
                hit = new & (rank == np.maximum(need, 1))
                stops = hit if stops is None else stops | hit
                slot.counts += rank[-1]
                # (Distinct signers' bits: their sum is their union.)
                for w in set(words.tolist()):
                    mine = words == w
                    slot.seen[w] |= np.dot(bits[mine], new[mine])
        byzantine = ~columns.attached
        if byzantine.any():
            handled = np.repeat(byzantine[None, :], size, axis=0)
            handled[rows, signers] = False
            stops = handled if stops is None else stops | handled

        flat = np.flatnonzero(stops) if stops is not None else np.zeros(0, np.intp)
        recipients = (flat % n).tolist()
        syncs, handlers = self._syncs, self._handlers
        sent = [bucket[:2] for bucket in group]
        reactions = [
            (b, handlers[d], sent[b])  # arbitrary handler
            if (sync := syncs.get(d)) is None
            else (b, sync._react_to_wishes, ())
            for b, d in zip((flat // n).tolist(), recipients)
        ]
        reached, stopped = self._stops(pos, size, reactions, probe, advance)
        took += [n - 1] * (reached - 1)
        if stopped is None:
            took.append(n - 1)
            return reached == size
        d = recipients[stopped]  # (a broadcast's recipients: everyone but its sender)
        took.append(d + (d < group[reached - 1][0]))
        return False
