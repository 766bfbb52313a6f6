"""Columnar (array-backed) replica vote state for large-n trials.

The per-object hot path — one ``_Bucket`` (a Python ``set`` + ``list``) per
(replica, phase, view, value) plus a dict lookup per delivered vote — is what
caps trials near n≈5000: ~n·s live Python objects per trial dominate memory
and cache misses (see ROADMAP).  This module stores the same bookkeeping in
preallocated numpy arrays shared by *all* replicas of a deployment:

* **voter bitmaps** — one packed ``uint64`` plane of shape ``(words, n)``
  per (phase, view, value) slot; bit ``signer`` of column ``dst`` says
  "``dst`` accepted a vote from ``signer``".  The word-major layout keeps a
  whole fan-out's dedup test inside one contiguous n-vector (the signer is
  fixed per coalesced bucket, so only word ``signer >> 6`` is touched).
* **per-slot counters** — ``counts[dst]`` (distinct accepted senders) and
  ``fired[dst]`` (quorum reported), replacing ``len(bucket.senders)`` and
  ``bucket.fired``.
* **arrival order** — prepare slots additionally keep ``order[dst, :q]``
  (the first ``q`` signers in arrival order) plus one shared
  ``signer -> Signed`` map, from which a dst's prepared certificate is
  rebuilt *object-identical* to the dense collector's
  ``quorum_messages`` tuple (each signer contributes exactly one envelope
  per slot).  Commit slots retain no messages at all — the same discipline
  :class:`~repro.core.replica.BulkVoteDispatch` already applies.
* **mirror columns** — ``views``/``blocked``/``decided``/``committed_cur``
  per replica, updated by the replica state machine at its (few) mutation
  points, so the delivery kernel classifies a whole fan-out bucket with
  vectorized gathers instead of attribute chases.

Everything is behind the ``columnar=True`` deployment seam and follows the
same contract as sparse delivery and gossip dissemination: a columnar run's
:class:`~repro.harness.trial.RunResult` is **bit-identical** to the dense
run for the same seed.  The kernel declines (-1) any bucket it cannot prove
equivalent — equivocal views, invalid votes, and deployments with network
duplication (duplicate deliveries break the distinct-recipients invariant)
— which then takes the generic per-recipient path through the same arrays.

This module imports numpy at module level; import it lazily (the deployment
does) so numpy stays an optional dependency.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..errors import QuorumError
from .replica import BulkVoteDispatch, prevalidate_vote

__all__ = [
    "ColumnarVoteState",
    "ColumnarQuorumCollector",
    "ColumnarCollectorTable",
    "ColumnarVoteDispatch",
    "bitmap_from_ids",
    "bitmap_ids",
    "bitmap_popcount",
    "bitmap_merge",
    "bitmap_words",
]


# ----------------------------------------------------------------------
# Packed-bitmap primitives (unit-testable building blocks)
# ----------------------------------------------------------------------

def bitmap_words(n: int) -> int:
    """Number of ``uint64`` words covering ``n`` bit positions."""
    return (n + 63) >> 6


def bitmap_from_ids(ids, n: int) -> np.ndarray:
    """Pack a collection of ids from ``range(n)`` into uint64 words."""
    words = np.zeros(bitmap_words(n), dtype=np.uint64)
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"id {i} out of range [0, {n})")
        words[i >> 6] |= np.uint64(1 << (i & 63))
    return words


def bitmap_ids(words: np.ndarray) -> Tuple[int, ...]:
    """Unpack a word array back into its sorted member ids."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return tuple(np.nonzero(bits)[0].tolist())


def bitmap_popcount(words: np.ndarray) -> int:
    """Total set bits across ``words`` (vectorized popcount)."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    # SWAR fallback for numpy < 2.0.
    v = words.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h = np.uint64(0x0101010101010101)
    v -= (v >> np.uint64(1)) & m1
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return int(((v * h) >> np.uint64(56)).sum())


def bitmap_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two packed bitmaps (new array; inputs untouched)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a | b


# ----------------------------------------------------------------------
# Slot storage
# ----------------------------------------------------------------------

class _Slot:
    """Array-backed accumulator for one (phase, view, value) key.

    The columnar twin of one ``_Bucket`` *per replica*: row/column ``dst``
    of each array is what ``replica._{prepare,commit}_collectors[view].
    _buckets[value]`` holds in dense mode.
    """

    __slots__ = ("counts", "fired", "seen", "order", "msg_by_signer")

    def __init__(self, n: int, words: int, q: int, is_prepare: bool) -> None:
        self.counts = np.zeros(n, dtype=np.int32)
        self.fired = np.zeros(n, dtype=bool)
        # Word-major: seen[w] is the contiguous n-vector of word w across
        # all recipients — one coalesced bucket only ever touches the word
        # of its (fixed) signer.
        self.seen = np.zeros((words, n), dtype=np.uint64)
        if is_prepare:
            self.order = np.zeros((n, q), dtype=np.int32)
            # signer -> first accepted Signed envelope, as a flat list so
            # cert reconstruction (n·q lookups per view) is an index, not a
            # hash, per message.
            self.msg_by_signer: Optional[list] = [None] * n
        else:
            # Commit certificates are never extracted (BulkVoteDispatch
            # discipline): commit slots only ever answer has_quorum.
            self.order = None
            self.msg_by_signer = None


class ColumnarVoteState:
    """Shared columnar vote/quorum state for one deployment.

    Holds the per-replica mirror columns the delivery kernel classifies
    buckets with, plus the lazily-created per-(phase, view, value) slots.
    One instance is shared by every correct replica of a deployment.
    """

    __slots__ = (
        "n",
        "q",
        "words",
        "views",
        "blocked",
        "decided",
        "committed_cur",
        "prepare_active",
        "commit_active",
        "correct",
        "has_byz",
        "any_blocked",
        "_slots",
    )

    def __init__(self, n: int, q: int, correct_ids) -> None:
        self.n = n
        self.q = q
        self.words = bitmap_words(n)
        #: Mirror columns, updated by the replica state machine's guarded
        #: hooks (see ProBFTReplica): current view, lines 23-25 block flag,
        #: decision latch, and "current view is committed" — everything the
        #: per-recipient slow path reads before touching a collector.
        self.views = np.zeros(n, dtype=np.int64)
        self.blocked = np.zeros(n, dtype=bool)
        self.decided = np.zeros(n, dtype=bool)
        self.committed_cur = np.zeros(n, dtype=bool)
        #: Fused eligibility columns: ``prepare_active[r] == v`` iff replica
        #: ``r`` would *count* a view-``v`` Prepare right now — at view
        #: ``v``, not blocked, and ``v`` not already committed (``commit_
        #: active`` likewise, with "not decided").  Folding the view match,
        #: the block flag and the progress pruning into one int compare
        #: turns the kernel's three gathers per bucket into one.
        self.prepare_active = np.zeros(n, dtype=np.int64)
        self.commit_active = np.zeros(n, dtype=np.int64)
        self.correct = np.zeros(n, dtype=bool)
        if correct_ids:
            self.correct[np.fromiter(correct_ids, dtype=np.intp)] = True
        #: Scalar fast-path flags: with no Byzantine replica nothing in a
        #: bucket is a handler stop, and until anyone blocks a view the
        #: blocked gather is a guaranteed all-False.
        self.has_byz = len(correct_ids) < n
        self.any_blocked = False
        self._slots: Dict[Tuple[bool, int, object], _Slot] = {}

    def note_view(self, replica: int, view: int, committed: bool) -> None:
        """Mirror hook for ``_on_new_view`` (lines 1-5)."""
        self.views[replica] = view
        self.blocked[replica] = False
        self.committed_cur[replica] = committed
        self.prepare_active[replica] = 0 if committed else view
        self.commit_active[replica] = 0 if self.decided[replica] else view

    def note_blocked(self, replica: int) -> None:
        """Mirror hook for the lines 23-25 block transition."""
        self.blocked[replica] = True
        self.any_blocked = True
        self.prepare_active[replica] = 0
        self.commit_active[replica] = 0

    def note_committed(self, replica: int) -> None:
        """Mirror hook for lines 18-20: current view committed."""
        self.committed_cur[replica] = True
        self.prepare_active[replica] = 0

    def note_decided(self, replica: int) -> None:
        """Mirror hook for lines 21-22: decision latched."""
        self.decided[replica] = True
        self.commit_active[replica] = 0

    def slot(self, is_prepare: bool, view: int, value) -> _Slot:
        key = (is_prepare, view, value)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot(
                self.n, self.words, self.q, is_prepare
            )
        return slot

    def peek(self, is_prepare: bool, view: int, value) -> Optional[_Slot]:
        return self._slots.get((is_prepare, view, value))


# ----------------------------------------------------------------------
# The collector facade (generic per-recipient path)
# ----------------------------------------------------------------------

class ColumnarQuorumCollector:
    """Quorum-collector API over one replica's columns of the shared state.

    Drop-in for :class:`~repro.quorum.probabilistic.
    ProbabilisticQuorumCollector` in the replica's per-view tables: the
    generic handlers (``_handle_prepare``/``_handle_commit``/
    ``on_sample_message``) call ``add`` per delivered vote, and the quorum
    checks (``has_quorum``/``quorum_messages``) read the same arrays the
    bulk kernel writes — so kernel-delivered and handler-delivered votes
    land in one place.

    Deliberate (unobservable) deviation shared with the bulk kernel: adds
    to an already-fired key are dropped instead of recorded — nothing ever
    reads a bucket's senders/messages past the first ``threshold`` entries.
    """

    __slots__ = ("_state", "_is_prepare", "_view", "_dst")

    def __init__(
        self, state: ColumnarVoteState, is_prepare: bool, view: int, dst: int
    ) -> None:
        self._state = state
        self._is_prepare = is_prepare
        self._view = view
        self._dst = dst

    @property
    def threshold(self) -> int:
        return self._state.q

    def add(self, key, sender: int, message) -> bool:
        """Record a vote; True iff this addition completes the quorum."""
        state = self._state
        slot = state.slot(self._is_prepare, self._view, key)
        dst = self._dst
        if slot.fired[dst]:
            return False
        wi = sender >> 6
        bit = np.uint64(1 << (sender & 63))
        if slot.seen[wi, dst] & bit:
            return False
        slot.seen[wi, dst] |= bit
        c = int(slot.counts[dst])
        slot.counts[dst] = c + 1
        if self._is_prepare:
            slot.order[dst, c] = sender
            if slot.msg_by_signer[sender] is None:
                slot.msg_by_signer[sender] = message
        if c + 1 >= state.q:
            slot.fired[dst] = True
            return True
        return False

    def count(self, key) -> int:
        slot = self._state.peek(self._is_prepare, self._view, key)
        return int(slot.counts[self._dst]) if slot is not None else 0

    def has_quorum(self, key) -> bool:
        slot = self._state.peek(self._is_prepare, self._view, key)
        return bool(slot is not None and slot.fired[self._dst])

    def senders(self, key) -> Set[int]:
        slot = self._state.peek(self._is_prepare, self._view, key)
        if slot is None:
            return set()
        return set(bitmap_ids(np.ascontiguousarray(slot.seen[:, self._dst])))

    def messages(self, key) -> Tuple[object, ...]:
        """The retained messages (first ``threshold`` accepted, in order)."""
        if not self._is_prepare:
            return ()
        slot = self._state.peek(self._is_prepare, self._view, key)
        if slot is None:
            return ()
        count = min(int(slot.counts[self._dst]), self._state.q)
        by_signer = slot.msg_by_signer
        return tuple(
            by_signer[s]
            for s in slot.order[self._dst, :count].tolist()
        )

    def quorum_messages(self, key) -> Tuple[object, ...]:
        slot = self._state.peek(self._is_prepare, self._view, key)
        if slot is None or not slot.fired[self._dst]:
            raise QuorumError(f"no quorum formed for key {key!r}")
        by_signer = slot.msg_by_signer
        return tuple(
            by_signer[s]
            for s in slot.order[self._dst, : self._state.q].tolist()
        )

    def keys(self) -> Tuple[object, ...]:
        state = self._state
        return tuple(
            value
            for (is_prepare, view, value), slot in state._slots.items()
            if is_prepare == self._is_prepare
            and view == self._view
            and slot.counts[self._dst] > 0
        )

    def clear(self) -> None:
        """Reset this replica's columns for every key of the view."""
        state = self._state
        dst = self._dst
        for (is_prepare, view, _value), slot in state._slots.items():
            if is_prepare != self._is_prepare or view != self._view:
                continue
            slot.counts[dst] = 0
            slot.fired[dst] = False
            slot.seen[:, dst] = 0


class ColumnarCollectorTable(dict):
    """Per-view collector table that materializes facades on demand.

    The replica's handlers look collectors up with ``get``/``setdefault``
    before reading quorum state; in columnar mode the underlying arrays
    exist (and may already hold kernel-delivered votes) whether or not this
    replica ever constructed a facade — so lookup *creates* the facade
    instead of reporting absence.  ``setdefault`` ignores the caller's
    dense-collector default for the same reason.
    """

    __slots__ = ("_state", "_is_prepare", "_dst")

    def __init__(
        self, state: ColumnarVoteState, is_prepare: bool, dst: int
    ) -> None:
        super().__init__()
        self._state = state
        self._is_prepare = is_prepare
        self._dst = dst

    def get(self, view, default=None):
        collector = dict.get(self, view)
        if collector is None:
            collector = self[view] = ColumnarQuorumCollector(
                self._state, self._is_prepare, view, self._dst
            )
        return collector

    def setdefault(self, view, default=None):
        return self.get(view)


# ----------------------------------------------------------------------
# The vectorized delivery kernel
# ----------------------------------------------------------------------

class ColumnarVoteDispatch(BulkVoteDispatch):
    """Array-at-a-time twin of :class:`~repro.core.replica.BulkVoteDispatch`.

    Classifies a whole coalesced Prepare/Commit bucket with vectorized
    gathers over the mirror columns, applies the accepted votes as masked
    scatters into the slot arrays, and only drops to scalar code at the
    *stop points* dense mode also serializes on: Byzantine recipients
    (arbitrary handlers) and quorum completions (which can record a
    decision and flip the stop probe).  Between consecutive stop points
    every recipient's update is independent — a fan-out's recipients are
    distinct (VRF samples are drawn without replacement) and a delivery
    only mutates its own recipient's columns — so applying a segment in
    one shot reorders nothing observable.

    Decline rules (return -1, caller runs the generic path over the same
    arrays): non-votes, equivocal-flagged views, and any deployment with
    network duplication enabled — duplicated recipients would appear twice
    in one bucket and break the distinct-recipients invariant the masked
    scatters rely on.  Invalid votes take the inherited per-recipient
    ``_deliver_odd`` loop, exactly like the dense kernel.
    """

    __slots__ = ("_state", "_dup")

    def __init__(
        self,
        config,
        crypto,
        replicas,
        correct_ids,
        handlers,
        policy,
        state: ColumnarVoteState,
        dup_possible: bool = False,
    ) -> None:
        super().__init__(config, crypto, replicas, correct_ids, handlers, policy)
        self._state = state
        self._dup = dup_possible

    def __call__(self, src, message, dsts, probe) -> int:
        if self._dup:
            return -1  # duplicated recipients: distinct-dsts invariant gone
        token = prevalidate_vote(self._config, self._crypto, message)
        if token is None:
            return -1
        view = token.view
        if view in self._policy._equivocal:
            return -1  # dense delivery: any recipient may need the evidence
        if not token.valid:
            return self._deliver_odd(src, message, token, dsts, probe)

        state = self._state
        signer = token.signer
        is_prepare = token.is_prepare
        q = self._q
        slot = state.slot(is_prepare, view, token.value)

        D = np.asarray(dsts, dtype=np.intp)
        if D.shape[0] == 0:
            return 0
        # One gather classifies countability: the active column fuses the
        # view match, the lines 23-25 block flag, and progress pruning
        # (committed view / decision latch) into a single int compare.
        # Byzantine replicas never enter a view, so they are never active
        # either — at-active implies correct.
        active = state.prepare_active if is_prepare else state.commit_active
        elig = active[D] == view
        if not (state.correct[src] and signer == src):
            # Not a correct sender's own-sample multicast: check i ∈ S.
            member = np.zeros(state.n, dtype=bool)
            member[
                np.fromiter(
                    token.members, dtype=np.intp, count=len(token.members)
                )
            ] = True
            elig &= member[D]
        all_elig = bool(elig.all())
        c = slot.counts[D]
        wi = signer >> 6
        bit = np.uint64(1 << (signer & 63))

        if not state.has_byz:
            # No Byzantine replica: no arbitrary-handler stops and no
            # replayed envelopes (a correct sender multicasts each vote
            # exactly once), so the seen-bit dedup test is a guaranteed
            # all-pass and ``counts`` alone encodes fired (latched at q).
            if all_elig and int(c.max()) < q - 1:
                # Ramp-up fast path: every recipient counts, none fires.
                slot.seen[wi, D] |= bit
                slot.counts[D] = c + 1
                if is_prepare:
                    slot.order[D, c] = signer
                    if slot.msg_by_signer[signer] is None:
                        slot.msg_by_signer[signer] = message
                return int(D.shape[0])
            if all_elig:
                new = c < q
                fires = c == q - 1
            else:
                new = elig & (c < q)
                fires = elig & (c == q - 1)
            correct_D = None
            stops = fires
        else:
            col = slot.seen[wi, D]
            new = elig & ((col & bit) == 0) & (c < q)
            fires = new & (c == q - 1)
            correct_D = state.correct[D]
            stops = fires | ~correct_D

        if all_elig:
            future = None
        else:
            # Views stuck at 0 (not started / Byzantine) are neither
            # at-view nor future; at-view-but-pruned is not future either.
            views_D = state.views[D]
            future = (views_D != 0) & (views_D < view)

        replicas = self._replicas
        order = slot.order
        msg_by_signer = slot.msg_by_signer

        stop_idx = np.nonzero(stops)[0]
        if stop_idx.size == 0:
            # No handler runs and no quorum completes: the whole bucket is
            # one segment, applied in one masked scatter.
            idx = np.nonzero(new)[0]
            if idx.size:
                dn = D[idx]
                c_old = c[idx]
                slot.seen[wi, dn] |= bit
                slot.counts[dn] = c_old + 1
                if is_prepare:
                    order[dn, c_old] = signer
                    if msg_by_signer[signer] is None:
                        msg_by_signer[signer] = message
            if all_elig:
                return int(D.shape[0])
            delivered = int(np.count_nonzero(elig))
            if future.any():
                delivered += int(np.count_nonzero(future))
                for d in D[future].tolist():
                    replicas[d]._buffer_future(view, src, message)
            return delivered

        if correct_D is None:
            # No-byz fire path: every stop is a quorum completion whose
            # handler is this kernel's own latch + quorum re-check, and a
            # re-check only reads its *own* replica's column — so all column
            # updates (counting recipients and firing recipients alike; a
            # fire's ``c+1`` lands exactly at q) can land in ONE masked
            # scatter before the scalar re-check loop.  A probe early-exit
            # then leaves later recipients' columns over-applied relative to
            # dense, which is unobservable: the probe mirrors ``stop_when``,
            # so the run ends before anything reads those columns, and the
            # delivered count returned below still follows dense exactly.
            idx = np.nonzero(new)[0]
            dn = D[idx]
            slot.seen[wi, dn] |= bit
            c_old = c[idx]
            slot.counts[dn] = c_old + 1
            if is_prepare:
                order[dn, c_old] = signer
                if msg_by_signer[signer] is None:
                    msg_by_signer[signer] = message
            slot.fired[D[stop_idx]] = True
            delivered = 0
            start = 0
            for si, d in zip(
                stop_idx.tolist(), D[stop_idx].tolist()
            ):
                if all_elig:
                    delivered = si + 1
                else:
                    sl = slice(start, si)
                    delivered += int(np.count_nonzero(elig[sl])) + 1
                    if future[sl].any():
                        delivered += int(np.count_nonzero(future[sl]))
                        for fd in D[sl][future[sl]].tolist():
                            replicas[fd]._buffer_future(view, src, message)
                start = si + 1
                replica = replicas[d]
                if is_prepare:
                    replica._try_form_prepared()
                else:
                    replica._try_decide()
                # Dense probes before the delivery after any stop event; a
                # trailing probe with nothing left returns the same count.
                if probe is not None and probe():
                    return delivered
            if all_elig:
                return int(D.shape[0])
            sl = slice(start, D.shape[0])
            delivered += int(np.count_nonzero(elig[sl]))
            if future[sl].any():
                delivered += int(np.count_nonzero(future[sl]))
                for fd in D[sl][future[sl]].tolist():
                    replicas[fd]._buffer_future(view, src, message)
            return delivered

        def span(a: int, b: int) -> int:
            """Apply one stop-free segment's updates; returns deliveries."""
            if b <= a:
                return 0
            sl = slice(a, b)
            nw = new[sl]
            if nw.any():
                idx = np.nonzero(nw)[0] + a
                dn = D[idx]
                slot.seen[wi, dn] |= bit
                c_old = c[idx]
                slot.counts[dn] = c_old + 1
                if is_prepare:
                    order[dn, c_old] = signer
                    if msg_by_signer[signer] is None:
                        msg_by_signer[signer] = message
            if all_elig:
                return b - a
            n_delivered = int(np.count_nonzero(elig[sl]))
            if future[sl].any():
                n_delivered += int(np.count_nonzero(future[sl]))
                for d in D[sl][future[sl]].tolist():
                    replicas[d]._buffer_future(view, src, message)
            return n_delivered

        handlers = self._handlers
        delivered = 0
        start = 0
        for si in stop_idx.tolist():
            delivered += span(start, si)
            d = int(D[si])
            delivered += 1
            if correct_D is None or correct_D[si]:
                # Quorum completion: latch the slot, then run the quorum
                # re-check — the facade table materializes the collector
                # the replica reads, backed by these same arrays.
                slot.seen[wi, d] |= bit
                slot.counts[d] = q
                if is_prepare:
                    order[d, q - 1] = signer
                    if msg_by_signer[signer] is None:
                        msg_by_signer[signer] = message
                slot.fired[d] = True
                replica = replicas[d]
                if is_prepare:
                    replica._try_form_prepared()
                else:
                    replica._try_decide()
            else:
                handlers[d](src, message)  # arbitrary handler: stop point
            start = si + 1
            # Dense probes before the delivery after any stop event; a
            # trailing probe with nothing left returns the same count.
            if probe is not None and delivered and probe():
                return delivered
        delivered += span(start, D.shape[0])
        return delivered
