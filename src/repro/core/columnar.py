"""Columnar (array-backed) vote state and the one vote-delivery kernel.

A ``_Bucket`` (a Python ``set`` + ``list``) per (replica, phase, view,
value) plus a dict lookup per delivered vote means ~n·s live Python objects
per trial, which dominate memory and cache misses at large n.  Production
ProBFT deployments keep the same bookkeeping in preallocated numpy arrays
shared by *all* replicas of one consensus instance (a single-shot
deployment, or one slot of the SMR service):

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
  rebuilt *object-identical* to the set-based collector's
  ``quorum_messages`` tuple (each signer contributes exactly one envelope
  per slot).  Commit slots retain no messages at all: commit certificates
  are never extracted, commit collectors only ever answer ``has_quorum``.
* **mirror columns** — ``views``/``decided`` and the fused
  ``prepare_active``/``commit_active`` eligibility columns per replica,
  updated by the replica state machine at its (few) mutation points, so the
  delivery kernel classifies a whole fan-out bucket with vectorized gathers
  instead of attribute chases.
:class:`ColumnarVoteDispatch` is the kernel `Network` hands every coalesced
bucket to: wide buckets (constant latency: one bucket per multicast) are
applied array-at-a-time, singleton buckets (continuous latency: one bucket
per recipient) take a scalar branch with the same rules, and any vote
bucket it cannot prove equivalent — equivocal views, deployments with
network duplication — is declined (-1) to the per-recipient loop
(:meth:`ProBFTReplica.on_message`) through the same arrays.  The three
outcomes are counted (:meth:`ColumnarVoteDispatch.stats`).  Whatever the
route, a vote's recipient-independent validation is one lookup in the
instance's verdict table (:func:`~repro.core.replica.prevalidate_vote`):
under continuous latency a vote object arrives in ``s`` buckets and is
validated in the first.  Non-votes are passed on to the deployment's wish
kernel (:class:`repro.sync.columns.WishDispatch`), which takes the Wish
buckets and declines everything else.

The reference semantics stay in :meth:`ProBFTReplica.on_message` over
:class:`~repro.quorum.probabilistic.ProbabilisticQuorumCollector`
(``reference=True`` deployments, Byzantine wrappers); a production run's
result — a single-shot :class:`~repro.harness.trial.RunResult`, or a serving
trial's, where every SMR slot is one such instance with its own state and
kernel — is **bit-identical** to the reference run for the same seed
(``tests/test_reference_identity.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..errors import QuorumError
from ..messages.probft import Commit, Prepare
from .replica import prevalidate_vote

__all__ = [
    "ColumnarVoteState",
    "ColumnarQuorumCollector",
    "ColumnarCollectorTable",
    "ColumnarVoteDispatch",
    "bitmap_ids",
    "bitmap_words",
]


# ----------------------------------------------------------------------
# Packed-bitmap primitives
# ----------------------------------------------------------------------

def bitmap_words(n: int) -> int:
    """Number of ``uint64`` words covering ``n`` bit positions."""
    return (n + 63) >> 6


def bitmap_ids(words: np.ndarray) -> Tuple[int, ...]:
    """Unpack a word array back into its sorted member ids."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return tuple(np.nonzero(bits)[0].tolist())


# ----------------------------------------------------------------------
# Slot storage
# ----------------------------------------------------------------------

class _Slot:
    """Array-backed accumulator for one (phase, view, value) key.

    The columnar twin of one ``_Bucket`` *per replica*: row/column ``dst``
    of each array is what ``replica._{prepare,commit}_collectors[view].
    _buckets[value]`` holds in a reference deployment.
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
            # Commit certificates are never extracted: commit slots only
            # ever answer has_quorum.
            self.order = None
            self.msg_by_signer = None


class ColumnarVoteState:
    """Shared columnar vote/quorum state for one deployment.

    Holds the per-replica mirror columns the delivery kernel classifies
    buckets with, plus the lazily-created per-(phase, view, value) slots.
    One instance is shared by every correct replica of a deployment.
    """

    def __init__(self, n: int, q: int, correct_ids) -> None:
        self.n = n
        self.q = q
        self.words = bitmap_words(n)
        #: Mirror columns, updated by the replica state machine's guarded
        #: hooks (see ProBFTReplica): current view and decision latch.
        self.views = np.zeros(n, dtype=np.int64)
        self.decided = np.zeros(n, dtype=bool)
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
        #: Scalar fast-path flag: with no Byzantine replica nothing in a
        #: bucket is a handler stop.
        self.has_byz = len(correct_ids) < n
        self._slots: Dict[Tuple[bool, int, object], _Slot] = {}

    def note_view(self, replica: int, view: int, committed: bool) -> None:
        """Mirror hook for ``_on_new_view`` (lines 1-5)."""
        self.views[replica] = view
        self.prepare_active[replica] = 0 if committed else view
        self.commit_active[replica] = 0 if self.decided[replica] else view

    def note_blocked(self, replica: int) -> None:
        """Mirror hook for the lines 23-25 block transition."""
        self.prepare_active[replica] = 0
        self.commit_active[replica] = 0

    def note_committed(self, replica: int) -> None:
        """Mirror hook for lines 18-20: current view committed."""
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

    Stands in for :class:`~repro.quorum.probabilistic.
    ProbabilisticQuorumCollector` in the replica's per-view tables: the
    per-recipient handler (``ProBFTReplica._handle_vote``) and the kernel's
    singleton branch call ``add`` per delivered vote, and the quorum
    checks (``has_quorum``/``quorum_messages``) read the same arrays the
    vote kernel writes — so kernel-delivered and handler-delivered votes
    land in one place.

    Deliberate (unobservable) deviation shared with the vote kernel: adds
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

class ColumnarVoteDispatch:
    """One-call-per-bucket delivery kernel for Prepare/Commit fan-outs.

    :meth:`Network._deliver_fanout` hands a whole *raw* coalesced bucket
    here; the kernel looks the vote's token up (validating it if this is
    the object's first delivery), then fuses the observation policy's
    pruning and :meth:`ProBFTReplica._handle_vote`'s per-recipient
    behaviour into array operations: it classifies the
    bucket with vectorized gathers over the mirror columns, applies the
    accepted votes as one masked scatter into the slot arrays, and only
    drops to scalar code at the *stop points* the per-recipient loop also
    serializes on: Byzantine recipients (arbitrary handlers) and quorum
    completions (which can record a decision and flip the stop probe), in
    bucket order.  Every recipient's update is independent — a fan-out's
    recipients are distinct (VRF samples are drawn without replacement), a
    delivery only mutates its own recipient's columns, and no stop reads
    another recipient's — so applying the bucket in one shot reorders
    nothing observable.  A one-recipient bucket takes the scalar branch
    (:meth:`_deliver_one`): same rules, no array temporaries.

    Returns the number of recipients delivered, or -1 to decline the whole
    bucket (the caller filters it and runs its generic per-recipient loop
    over the same arrays).  Decline rules: equivocal-flagged views (any
    recipient may need the evidence), votes that fail prevalidation (they
    never reach a collector, but a conflicting leader statement riding on
    one must still be able to trigger lines 23-25), and any deployment with
    network duplication enabled — duplicated recipients would appear twice
    in one bucket and break the distinct-recipients invariant the masked
    scatter relies on.  Anything that is not a vote is the wish kernel's to
    take or decline.

    ``vectorised``/``singleton``/``declined`` count the vote buckets that
    took each route (non-votes are not counted).
    """

    def __init__(
        self,
        config,
        crypto,
        replicas,
        correct_ids,
        handlers,
        policy,
        state: ColumnarVoteState,
        wishes,
        dup_possible: bool = False,
    ) -> None:
        self._config = config
        self._crypto = crypto
        self._replicas = replicas
        self._correct = frozenset(correct_ids)
        self._handlers = handlers  # Network's plain handlers (Byzantine dsts)
        self._policy = policy
        self._q = config.q
        self._state = state
        self._wishes = wishes  # the deployment's wish kernel
        self._dup = dup_possible
        self.vectorised = 0
        self.singleton = 0
        self.declined = 0

    def stats(self) -> Dict[str, int]:
        return {
            "vectorised": self.vectorised,
            "singleton": self.singleton,
            "declined": self.declined,
        }

    def note_declined(self, message) -> None:
        """Count a bucket the caller had to route around the kernels (the
        SMR router: some recipient has not opened the slot)."""
        if isinstance(getattr(message, "payload", None), (Prepare, Commit)):
            self.declined += 1
        else:
            self._wishes.note_declined(message)

    def __call__(self, src, message, dsts, probe) -> int:
        if self._dup:
            # Declined unparsed (each recipient looks the token up anyway);
            # a payload type test is enough to count the votes.
            if isinstance(getattr(message, "payload", None), (Prepare, Commit)):
                self.declined += 1
                return -1
            return self._wishes(src, message, dsts, probe)
        token = prevalidate_vote(self._config, self._crypto, message)
        if token is None:
            return self._wishes(src, message, dsts, probe)
        if not token.valid or token.view in self._policy._equivocal:
            self.declined += 1
            return -1
        if len(dsts) == 1:
            self.singleton += 1
            return self._deliver_one(src, message, token, dsts[0])
        self.vectorised += 1

        state = self._state
        view = token.view
        signer = token.signer
        is_prepare = token.is_prepare
        q = self._q
        slot = state.slot(is_prepare, view, token.value)

        D = np.asarray(dsts, dtype=np.intp)
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
            member[np.asarray(token.members.sample, dtype=np.intp)] = True
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

        # Every stop is either a quorum completion, whose handler is this
        # kernel's own latch + quorum re-check and only reads its *own*
        # replica's column, or a Byzantine recipient's handler, which holds
        # a transport and nothing else — so everything the bucket writes
        # (counting recipients and firing recipients alike; a fire's ``c+1``
        # lands exactly at q) lands in ONE masked scatter before the scalar
        # loop over the stops.  A probe early-exit then leaves later
        # recipients over-applied relative to dense, which is unobservable:
        # the probe mirrors ``stop_when``, so the run ends before anything
        # reads their state, and the delivered count still follows dense.
        idx = np.nonzero(new)[0]
        if idx.size:
            dn = D[idx]
            c_old = c[idx]
            slot.seen[wi, dn] |= bit
            slot.counts[dn] = c_old + 1
            if is_prepare:
                slot.order[dn, c_old] = signer
                if slot.msg_by_signer[signer] is None:
                    slot.msg_by_signer[signer] = message
            slot.fired[D[fires]] = True
        replicas = self._replicas
        if all_elig:
            counted = None
        else:
            # Views stuck at 0 (not started / Byzantine) are neither
            # at-view nor future; at-view-but-pruned is not future either.
            views_D = state.views[D]
            future = (views_D != 0) & (views_D < view)
            counted = elig | future | stops
            if future.any():
                for d in D[future].tolist():
                    replicas[d]._buffer_future(view, src, message)
        stop_idx = np.nonzero(stops)[0]
        for si, d in zip(stop_idx.tolist(), D[stop_idx].tolist()):
            if correct_D is not None and not correct_D[si]:
                self._handlers[d](src, message)  # arbitrary handler
            elif is_prepare:
                replicas[d]._try_form_prepared()
            else:
                replicas[d]._try_decide()
            # Dense probes before the delivery after any stop event; a
            # trailing probe with nothing left returns the same count.
            if probe is not None and probe():
                if counted is None:
                    return si + 1
                return int(np.count_nonzero(counted[: si + 1]))
        if counted is None:
            return int(D.shape[0])
        return int(np.count_nonzero(counted))

    def _deliver_one(self, src, message, token, d) -> int:
        """The scalar branch: one valid vote, one recipient.

        Exactly the vectorized path's rules in the order a per-recipient
        handler applies them.  No probe: the bucket ends here, and the
        simulator checks ``stop_when`` before the next event.
        """
        if d not in self._correct:
            self._handlers[d](src, message)  # arbitrary handler
            return 1
        state = self._state
        view = token.view
        is_prepare = token.is_prepare
        active = state.prepare_active if is_prepare else state.commit_active
        if active[d] != view or d not in token.members:
            # Not countable: buffer if the recipient is still behind (views
            # stuck at 0 have not started), else the view gate, progress
            # pruning or the i ∈ S precondition drops it.
            behind = state.views[d]
            if behind != 0 and behind < view:
                self._replicas[d]._buffer_future(view, src, message)
                return 1
            return 0
        # Countable: the recipient's collector facade applies the vote (seen
        # bit, count, arrival order) exactly as the per-recipient handler would.
        replica = self._replicas[d]
        if is_prepare:
            if replica._prepare_collectors.get(view).add(
                token.value, token.signer, message
            ):
                replica._try_form_prepared()
        elif replica._commit_collectors.get(view).add(
            token.value, token.signer, message
        ):
            replica._try_decide()
        return 1
