"""Columnar (array-backed) vote state and the one vote-delivery kernel.

A ``_Bucket`` (a Python ``set`` + ``list``) per (replica, phase, view,
value) plus a dict lookup per delivered vote means ~n·s live Python objects
per trial, which dominate memory and cache misses at large n.  Production
ProBFT and PBFT deployments keep the same bookkeeping in preallocated numpy
arrays shared by *all* replicas of one consensus instance (a single-shot
deployment, or one slot of the SMR service), with the protocol's quorum as
``q`` (ProBFT's ``⌈l·√n⌉``, PBFT's ``⌈(n+f+1)/2⌉``):

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
:class:`ColumnarVoteDispatch` is the kernel table's entry for each of the
protocol's vote types (:meth:`Network.use_kernel
<repro.net.network.Network.use_kernel>`), on the run driver every kernel
shares, :class:`RunKernel`.  Its unit of array work is the
*group*: the buckets of one delivery time that vote for one (phase, view,
value) — under constant latency a whole protocol phase, n senders'
buckets.  A group of ``_PASS_MIN_VOTES`` (128) votes or more is applied in
one array pass; anything smaller — a small deployment's phase, or under
continuous latency one bucket per delivery, a *chain* of them per walk —
takes a scalar walk with the same rules, so the work follows the votes,
not a fixed toll per pass.  A vote bucket the kernel cannot prove
equivalent — an equivocal view — is declined to the network's
per-recipient loop (:meth:`ProBFTReplica.on_message`), which delivers it
through the same arrays.  Its ``inspect`` hook sees every send, which is
how it knows a view is equivocal before any of its votes arrive.  Whatever
the route, a vote's recipient-independent validation is one lookup in the
instance's verdict table (the protocol's vote token,
:func:`~repro.core.replica.prevalidate_vote` for ProBFT): under continuous
latency a vote object arrives in ``s`` buckets and is validated in the
first.  A token's ``members`` is the vote's VRF sample, or ``None`` for
PBFT's broadcast votes: every recipient is a member.

The reference semantics stay in :meth:`ProBFTReplica.on_message` over
:class:`~repro.quorum.probabilistic.ProbabilisticQuorumCollector`
(``reference=True`` deployments, Byzantine wrappers); a production run's
result — a single-shot :class:`~repro.harness.trial.RunResult`, or a serving
trial's, where every SMR slot is one such instance with its own state and
kernel — is **bit-identical** to the reference run for the same seed
(``tests/test_reference_identity.py``).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..crypto.signatures import Signed
from ..errors import QuorumError
from ..messages.base import ProposalStatement, conforms
from ..messages.probft import Commit, Prepare, Propose
from .leader import leader_of

__all__ = [
    "ColumnarVoteState",
    "ColumnarQuorumCollector",
    "ColumnarCollectorTable",
    "ColumnarVoteDispatch",
    "RunKernel",
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

    __slots__ = ("counts", "fired", "seen", "order", "msg_by_signer", "_n", "_q", "_scalar")

    def __init__(self, n: int, words: int, q: int, is_prepare: bool) -> None:
        self._n, self._q = n, q
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
        # The same memory as flat memoryviews, for the scalar write: they
        # index to Python ints at about twice the speed of numpy scalars.
        arrays = (self.fired, self.seen, self.counts, self.order)
        self._scalar = [a if a is None else memoryview(a.reshape(-1)) for a in arrays]

    def add(self, dst: int, sender: int, message) -> bool:
        """The scalar write: ``sender``'s vote at ``dst`` (seen bit, count,
        arrival order); True iff it completes the quorum there."""
        fired, seen, counts, order = self._scalar
        if fired[dst]:
            return False
        at = (sender >> 6) * self._n + dst
        bit = 1 << (sender & 63)
        word = seen[at]
        if word & bit:
            return False
        seen[at] = word | bit
        c = counts[dst]
        counts[dst] = c + 1
        q = self._q
        if order is not None:
            order[dst * q + c] = sender
            if self.msg_by_signer[sender] is None:
                self.msg_by_signer[sender] = message
        if c + 1 >= q:
            fired[dst] = True
            return True
        return False


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
    per-recipient handler (``ProBFTReplica._handle_vote``) calls ``add`` per
    delivered vote (the kernel's scalar walk: :meth:`_Slot.add`), and the quorum
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
        slot = self._state.slot(self._is_prepare, self._view, key)
        return slot.add(self._dst, sender, message)

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
# The run driver
# ----------------------------------------------------------------------

class RunKernel:
    """The run driver every kernel of a :meth:`Network.use_kernel
    <repro.net.network.Network.use_kernel>` table runs on — the vote kernel
    below and the wish kernel (:class:`repro.sync.columns.WishDispatch`):
    ``kernel(run, pos, probe, advance)`` delivers ``run[pos]`` and the
    buckets of its :attr:`kinds` after it, unit by unit.

    A kernel supplies three things, and nothing else touches a run:

    * its **group rule**, ``_group(run, k)``: ``None`` declines ``run[k]``
      to the per-recipient loop (the rule counts the decline where it is
      the kernel's to count), else ``(passed, group)`` — the unit that
      starts at ``run[k]``, and whether the array pass takes it;
    * its **array pass**, ``_pass(run, k, group, probe, advance, took)``:
      applies the group's deliveries at once and runs its *stops* (the
      deliveries that run a handler) through :meth:`_stops`;
    * its **chain walk**, ``_walk(run, k, group, probe, advance, took)``:
      bucket by bucket, recipient by recipient, from ``run[k]`` for as far
      as one walk of the kernel goes (entering each bucket after the first
      through ``advance``, the probe after each stop), in one call however
      many buckets that is.

    Both append one delivered count per bucket reached to ``took`` (-1,
    last, declines that bucket) and answer whether the call may go on after
    the last bucket they answered.  The driver owns the rest: the network's
    duplication decline (a recipient may appear twice in one bucket, which
    neither pass nor walk allows: every bucket is delivered whole), the
    ``took`` list, ``advance`` at every boundary between units, the kind of
    the next bucket, and the counts: ``passes`` / ``walks`` per unit,
    ``vectorised`` per bucket a pass reached (counted as it is entered: a
    stop may fold the counters of a retired SMR slot), ``declined`` per
    declined bucket; ``walked`` is the walk's to count.
    """

    #: The payload classes whose buckets the kernel delivers: its entries
    #: in the network's table.
    kinds: tuple = ()
    #: Its names, in :meth:`stats`, for ``vectorised``, ``walked``,
    #: ``declined``, ``passes`` and ``walks``.
    stat_names: tuple = ()

    def __init__(self, handlers, dup_possible: bool) -> None:
        self._handlers = handlers  # the network's plain handlers (Byzantine dsts)
        self._dup = dup_possible
        self.vectorised = self.walked = self.declined = 0
        self.passes = self.walks = 0

    def stats(self) -> Dict[str, int]:
        counts = (self.vectorised, self.walked, self.declined, self.passes, self.walks)
        return dict(zip(self.stat_names, counts))

    def __call__(self, run, pos, probe, advance) -> list:
        if self._dup:
            self.declined += 1
            return [-1]
        took: list = []
        k, kinds = pos, self.kinds
        while True:
            unit = self._group(run, k)
            if unit is None:
                took.append(-1)
                return took
            passed, group = unit
            if passed:
                self.passes += 1
                self.vectorised += 1
                whole = self._pass(run, k, group, probe, advance, took)
            else:
                self.walks += 1
                whole = self._walk(run, k, group, probe, advance, took)
            k = pos + len(took)
            # (A router hands over its own slice of the run: a bucket the
            # simulator just appended is not in it.)
            if not (
                whole
                and advance(k)
                and k < len(run)
                and getattr(run[k][1], "payload", None).__class__ in kinds
            ):
                return took

    def _stops(self, pos, size, stops, probe, advance) -> tuple:
        """Run the stops of a pass over the ``size`` buckets at ``run[pos]``:
        ``stops`` holds ``(bucket, handler, args)`` in (bucket, recipient)
        order, and the per-recipient loop would run each handler at its
        delivery, ask ``stop_when`` at every bucket boundary on the way and
        probe after it.  Answers ``(reached, i)``: the buckets reached, and
        the stop the probe ended on (``None``: the end of the group, or a
        boundary's refusal when ``reached < size``)."""
        cur = 0  # the bucket whose stops are running
        if stops:
            for i, (b, handler, args) in enumerate(stops):
                while cur < b and advance(pos + cur + 1):
                    cur += 1
                    self.vectorised += 1
                if cur < b:
                    return cur + 1, None
                handler(*args)
                # A trailing probe with nothing left answers the same count.
                if probe is not None and probe():
                    return b + 1, i
            if cur + 1 < size and not advance(pos + cur + 1):
                return cur + 1, None
        self.vectorised += size - cur - 1
        return size, None


# ----------------------------------------------------------------------
# The vectorized delivery kernel
# ----------------------------------------------------------------------

#: Votes one array pass takes at most.  A pass holds a dozen temporaries of
#: this many elements, so a whole n=1000 phase (108k votes) in one pass
#: would raise a trial's peak memory by a quarter — and a few thousand votes
#: already run at the speed a pass gets.
_PASS_VOTES = 4096

#: Votes a group needs to take the array pass; a smaller one is walked.  A
#: pass costs ~60 numpy calls (~100 µs) whatever its size, the walk ~0.6 µs
#: a vote: they cross between ~110 (n=300) and ~180 votes (n=40)
#: (DESIGN.md "Break-even").
_PASS_MIN_VOTES = 128


class ColumnarVoteDispatch(RunKernel):
    """The kernel of Prepare/Commit fan-outs: one array pass per group of
    :data:`_PASS_MIN_VOTES` votes or more, one scalar walk for everything
    smaller.

    The pass fuses :meth:`ProBFTReplica._handle_vote`'s per-recipient
    rules (view gate, progress pruning, ``i ∈ S``) into array
    operations over the concatenated recipients: eligibility (one gather
    over the mirror columns) and the seen-bit test once, each countable
    vote's arrival rank at its recipient in bucket order, then one scatter
    each into ``seen`` / ``counts`` / ``order`` / ``fired``.  Its stops are
    Byzantine recipients (arbitrary handlers) and quorum completions (which
    can record a decision and flip the stop probe).  Every (signer,
    recipient) pair occurs once in a group (VRF samples are drawn without
    replacement, a broadcast lists each recipient once), a delivery only
    mutates its own recipient's columns, and no stop reads another
    recipient's, so applying the group in one shot reorders nothing
    observable.  An early end (the probe, a refused boundary) leaves the
    votes behind it over-applied, which is unobservable, and a view flagged
    equivocal from *inside* a group does not cut it: why both are safe, and
    the one statistic that can then differ from a per-bucket walk, is
    DESIGN.md ("Runs and groups"); a walked group needs neither argument.

    Declines equivocal-flagged views (any recipient may need the evidence)
    and ProBFT votes that fail prevalidation (they never reach a collector,
    but a conflicting leader statement riding on one must still be able to
    trigger lines 23-25; PBFT has no such rule, and its token makes an
    invalid vote no vote at all).  A walk is one walked group or one chain.
    """

    stat_names = ("vectorised", "walked", "declined", "vote_passes", "vote_chains")

    def __init__(
        self,
        config,
        crypto,
        replicas,
        correct_ids,
        handlers,
        state: ColumnarVoteState,
        token,
        votes,
        dup_possible: bool = False,
    ) -> None:
        super().__init__(handlers, dup_possible)
        self.kinds = tuple(votes)  # the protocol's vote payload types
        self._config = config
        self._crypto = crypto
        self._token = token  # the protocol's vote token, once per object
        self._replicas = replicas
        self._correct = frozenset(correct_ids)
        self._value_seen: Dict[int, object] = {}  # view -> leader's value
        self._equivocal: Set[int] = set()
        self._last = None  # the statement inspected last
        self._state = state
        table = crypto.verdicts
        if table is not None and table.config is config:
            # The instance's live vote verdicts, looked up inline.
            self._known, self._reused = table.of_kind("vote"), table.counts.reused
        else:
            self._known = self._reused = {}

    def inspect(self, src, message) -> None:
        """Flag a view *equivocal* once two values signed by its leader have
        been sent: from then on any recipient may need to block the view
        and broadcast evidence (lines 23-25), so its vote buckets are
        declined.  Runs on every send, unicasts included, strictly before
        any of its deliveries.  Only a wire-conforming statement signed by
        ``leader(view)`` counts: a flooder's self-signed one can never
        trigger line 23, and one of no ``Value`` is no evidence (replicas
        drop its messages whole)."""
        payload = getattr(message, "payload", None)
        if not isinstance(payload, (Propose, Prepare, Commit)):
            return
        statement = payload.statement
        if statement is self._last:
            return  # (every vote of a view carries its proposal's statement)
        self._last = statement
        inner = getattr(statement, "payload", None)
        if type(inner) is not ProposalStatement or not conforms(
            statement, Signed, self._crypto.verdicts
        ):
            return
        config, view = self._config, inner.view
        if (
            inner.domain != config.seed_domain
            or view in self._equivocal
            or view < 1
            or statement.signer != leader_of(view, config)
        ):
            return
        if self._value_seen.setdefault(view, inner.value) != inner.value:
            self._equivocal.add(view)

    def _group(self, run, k):
        """The group rule: ``(True, (tokens, votes))`` for a group the pass
        takes, ``(False, tokens)`` for one to walk (a one-recipient bucket's
        is its own token), ``None`` for a bucket that is no vote, or an
        invalid or flagged one (counted)."""
        src, message, dsts = run[k]
        config, crypto = self._config, self._crypto
        entry = self._known.get(id(message))  # (as the walk looks up)
        if entry is not None:
            self._reused["vote"] += 1
            token = entry[1]
        else:
            token = self._token(config, crypto, message)
        if not token:  # None, or False from the table: no vote
            return None
        is_prepare, view, value, signer, _, valid, _ = token
        if not valid or view in self._equivocal:
            self.declined += 1
            return None
        tokens = [token]
        if len(dsts) != 1:
            signers, votes = {signer}, len(dsts)
            while k + len(tokens) < len(run):
                _, following, recipients = run[k + len(tokens)]
                token = self._token(config, crypto, following)
                if (
                    token is None
                    or not token.valid
                    or token.view != view
                    or token.is_prepare is not is_prepare
                    or token.value != value
                    or token.signer in signers
                    or len(recipients) == 1
                    or votes + len(recipients) > _PASS_VOTES
                ):
                    break
                tokens.append(token)
                signers.add(token.signer)
                votes += len(recipients)
            if votes >= _PASS_MIN_VOTES:
                return True, (tokens, votes)
        return False, tokens

    def _walk(self, run, pos, tokens, probe, advance, took) -> bool:
        """The walk: a valid, unflagged vote bucket is delivered here,
        scalar, recipient by recipient in ``dsts`` order with the
        per-recipient handler's rules, over state read once per walk — and
        so is every bucket after it that is entered through ``advance``: the
        rest of ``tokens``' group, or a chain of one-recipient buckets (at
        the end of the run, the simulator handing over the queue's next
        entry).  The probe runs after every stop.  A bucket that is not such
        a vote ends it: declined (-1) if an invalid or flagged vote, else
        entered and left to the caller (a bucket with several recipients
        opens the next unit)."""
        config, crypto, known = self._config, self._crypto, self._known
        state, correct, replicas = self._state, self._correct, self._replicas
        equivocal = self._equivocal
        views, prepare_active, commit_active = map(
            memoryview, (state.views, state.prepare_active, state.commit_active)
        )
        src, message, dsts = run[pos]
        end = pos + len(tokens) if len(dsts) != 1 else None  # a group's; a chain has none
        token = tokens[0]
        # Buckets entered / lookups answered, added to ``self.walked`` before
        # every stop (it may retire the slot and fold the counters) and on return.
        k, walked, hits = pos, 0, 0
        slot = at_prepare = at_view = at_value = None  # the slot last written
        try:
            while True:
                is_prepare, view, value, signer, members, _, _ = token
                walked += 1
                active = prepare_active if is_prepare else commit_active
                # (A correct sender multicasts its vote to its own sample; no
                # sample is everyone.)
                own = members is None or (signer == src and src in correct)
                delivered = 0
                for d in dsts:
                    if d not in correct:
                        self.walked += walked
                        walked = 0
                        self._handlers[d](src, message)  # arbitrary handler
                        delivered += 1
                    elif active[d] != view or not (own or d in members):
                        # Not countable: buffer if the recipient is still behind
                        # (views at 0 have not started), else the view gate,
                        # progress pruning or the i ∈ S precondition drops it.
                        if 0 != views[d] < view:
                            replicas[d]._buffer_future(view, src, message)
                            delivered += 1
                        continue
                    else:
                        delivered += 1
                        # Looked up once per change of phase, view or value.
                        if (
                            view != at_view
                            or value != at_value
                            or is_prepare is not at_prepare
                        ):
                            at_prepare, at_view, at_value = is_prepare, view, value
                            slot = state.slot(is_prepare, view, value)
                        if not slot.add(d, signer, message):
                            continue
                        self.walked += walked
                        walked = 0
                        if is_prepare:
                            replicas[d]._try_form_prepared()
                        else:
                            replicas[d]._try_decide()
                    if probe is not None and probe():  # (a stop ran)
                        took.append(delivered)
                        return False
                took.append(delivered)
                k += 1
                if k == end:
                    return True
                # (A router hands over its own slice of the run: a bucket the
                # simulator just appended is not in it.)
                if not advance(k) or k >= len(run):
                    return False
                src, message, dsts = run[k]
                if end is not None:
                    token = tokens[k - pos]
                elif len(dsts) != 1:
                    return True  # opens a group of its own
                else:
                    entry = known.get(id(message))  # (one lookup per bucket)
                    if entry is not None:
                        hits += 1
                        token = entry[1]
                    else:
                        token = self._token(config, crypto, message)
                    if not token:  # None, or False from the table: no vote
                        return False
                if not token.valid or token.view in equivocal:
                    self.declined += 1
                    took.append(-1)
                    return False
        finally:
            self.walked += walked
            if hits:
                self._reused["vote"] += hits

    def _pass(self, run, pos, group, probe, advance, took) -> bool:
        """The array pass over the group of ``tokens`` (``votes`` votes) at
        ``run[pos]``."""
        tokens, votes = group
        state, correct, replicas = self._state, self._correct, self._replicas
        is_prepare, view, value = tokens[0][:3]
        B = len(tokens)
        buckets = run[pos : pos + B]
        q = state.q
        slot = state.slot(is_prepare, view, value)
        lens = [len(bucket[2]) for bucket in buckets]
        recipients = chain.from_iterable([bucket[2] for bucket in buckets])
        D = np.fromiter(recipients, np.intp, votes)
        starts = np.cumsum([0] + lens[:-1])
        bucket_of = np.repeat(np.arange(B), lens)
        signers = [token.signer for token in tokens]
        # Buckets whose recipients are not the signer's own sample.
        foreign = [
            (b, token)
            for b, (token, (src, _, _)) in enumerate(zip(tokens, buckets))
            if not (
                token.members is None or (src in correct and token.signer == src)
            )
        ]

        # One gather classifies countability: the active column fuses the
        # view match, the lines 23-25 block flag, and progress pruning
        # (committed view / decision latch) into a single int compare.
        # Byzantine replicas never enter a view, so they are never active
        # either — at-active implies correct.
        active = state.prepare_active if is_prepare else state.commit_active
        elig = active[D] == view
        for b, token in foreign:
            # Not a correct sender's own-sample multicast: check i ∈ S.
            member = np.zeros(state.n, dtype=bool)
            member[np.asarray(token.members.sample, dtype=np.intp)] = True
            span = slice(starts[b], starts[b] + lens[b])
            elig[span] &= member[D[span]]
        # Each vote's word of the flat seen plane, and its signer's bit in it.
        word_of = np.repeat([(s >> 6) * state.n for s in signers], lens) + D
        bits = np.array([1 << (s & 63) for s in signers], dtype=np.uint64)
        bit_of = np.repeat(bits, lens)
        seen = slot.seen.reshape(-1)
        fresh, byz = elig, None
        if state.has_byz:
            # Replayed envelopes fail the seen-bit test.  (With no Byzantine
            # replica a correct sender multicasts each vote exactly once,
            # and nothing in a bucket is a handler stop.)
            fresh = elig & ((seen[word_of] & bit_of) == 0)
            byz = ~state.correct[D]
        # Arrival rank of every fresh vote at its recipient, in bucket
        # order: the k-th fresh vote for ``d`` lands at ``counts[d] + k``,
        # is new while that is below q (counts latch there) and fires at
        # q - 1.
        idx = np.nonzero(fresh)[0]
        all_count = idx.size == votes
        fire_idx = idx[:0]
        if idx.size:
            r = D[idx]
            place = slot.counts[r].astype(np.intp)
            if B > 1:  # (a bucket's recipients are distinct: all rank 0)
                keys = r.astype(np.uint16) if state.n <= 65536 else r  # radix sort
                by_recipient = np.argsort(keys, kind="stable")
                ranked = r[by_recipient]
                k = np.arange(idx.size)
                first = np.empty(idx.size, dtype=bool)
                first[0] = True
                np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
                place[by_recipient] += k - np.maximum.accumulate(np.where(first, k, 0))
            new = place < q
            if not new.all():
                idx, r, place = idx[new], r[new], place[new]
            # Everything the group writes lands before the first stop: a
            # quorum completion's handler is this kernel's own latch +
            # quorum re-check and only reads its *own* replica's column, a
            # Byzantine recipient's holds a transport and nothing else.
            np.bitwise_or.at(seen, word_of[idx], bit_of[idx])
            slot.counts += np.bincount(r, minlength=state.n).astype(np.int32)
            if is_prepare:
                from_bucket = bucket_of[idx]
                slot.order.reshape(-1)[r * q + place] = np.array(signers)[from_bucket]
                by_signer = slot.msg_by_signer
                for b in np.nonzero(np.bincount(from_bucket, minlength=B))[0].tolist():
                    if by_signer[signers[b]] is None:
                        by_signer[signers[b]] = buckets[b][1]
            fires = place == q - 1
            fire_idx = idx[fires]
            slot.fired[r[fires]] = True

        counted = None  # None: every vote of the group counts as delivered
        if not all_count:
            # Views stuck at 0 (not started / Byzantine) are neither
            # at-view nor future; at-view-but-pruned is not future either.
            views_D = state.views[D]
            future = (views_D != 0) & (views_D < view)
            counted = elig | future
            if byz is not None:
                counted |= byz
            for t in np.nonzero(future)[0].tolist():
                src, message, _ = buckets[bucket_of[t]]
                replicas[D[t]]._buffer_future(view, src, message)
        # The stops, in (bucket, recipient) order.
        stop_idx = fire_idx
        if byz is not None:
            stop_idx = np.sort(np.concatenate((fire_idx, np.nonzero(byz)[0])))
        handlers, sent = self._handlers, [bucket[:2] for bucket in buckets]
        stops = [
            (b, handlers[d], sent[b])  # arbitrary handler
            if d not in correct
            else (
                b,
                replicas[d]._try_form_prepared if is_prepare else replicas[d]._try_decide,
                (),
            )
            for d, b in zip(D[stop_idx].tolist(), bucket_of[stop_idx].tolist())
        ]
        reached, stopped = self._stops(pos, B, stops, probe, advance)
        if stopped is not None:  # the probe, after that stop's vote
            cut = int(stop_idx[stopped]) + 1
        else:  # the end of the group, or a refused boundary
            cut = votes if reached == B else int(starts[reached])
        if B > 1 and fire_idx.size:
            # A recipient whose quorum handler moved it on (committed the
            # view, decided) stops counting from its next vote, as its next
            # bucket would have found it pruned.
            fired = D[fire_idx]
            moved = active[fired] != view
            if moved.any():
                until = np.full(state.n, votes, dtype=np.intp)
                until[fired[moved]] = fire_idx[moved]
                late = np.arange(votes) > until[D]
                counted = ~late if counted is None else counted & ~late
        if counted is None:  # all of them, up to the cut
            took += lens[: reached - 1]
            took.append(cut - int(starts[reached - 1]))
        else:
            took += np.add.reduceat(counted[:cut], starts[:reached], dtype=np.intp).tolist()
        return stopped is None and reached == B
