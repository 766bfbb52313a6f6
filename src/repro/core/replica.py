"""The ProBFT replica state machine (Algorithm 1, line for line).

State (Algorithm 1):

* per-view: ``curView``, ``curVal``, ``voted``, ``blockView``, ``proposal``;
* persistent: ``preparedView``, ``preparedVal``, ``cert`` (the prepared
  certificate), and the decision once made.

Handlers map to the algorithm's "upon" clauses:

* :meth:`_on_new_view`       — lines 1–5 (synchronizer upcall);
* :meth:`_handle_new_leader` — lines 6–12 (leader collects a deterministic
  quorum of NewLeader messages and proposes);
* :meth:`_handle_propose`    — lines 13–16 (vote by multicasting Prepare to a
  VRF sample);
* :meth:`_handle_vote`       — one delivered Prepare or Commit, counted
  towards :meth:`_try_form_prepared` — lines 17–20 (probabilistic prepare
  quorum → prepared certificate → multicast Commit to a fresh VRF sample) —
  or :meth:`_try_decide` — lines 21–22 (probabilistic commit quorum →
  decide);
* :meth:`_check_equivocation`— lines 23–25 (any message carrying a
  leader-signed statement conflicting with ``curVal`` blocks the view and
  broadcasts the evidence).

Messages for future views are buffered (bounded) and replayed on view entry;
messages for past views are dropped — the paper's "a receiver will only
accept a message if its own view matches the view of the sender".

The skeleton is also PBFT's (:class:`repro.baselines.pbft.replica.
PbftReplica`, the paper's §2.3 baseline): what differs between the two is one
class-level hook each — the messages (:attr:`ProBFTReplica.PROPOSE`,
:attr:`~ProBFTReplica.NEW_LEADER`, :meth:`~ProBFTReplica._new_leader_payload`,
:meth:`~ProBFTReplica.vote`), the predicates, the quorum size
(:meth:`~ProBFTReplica.quorum`), the vote token
(:attr:`~ProBFTReplica.vote_token`) and lines 23-25
(:meth:`~ProBFTReplica._check_equivocation`).

:meth:`ProBFTReplica.on_message` is the one delivery entry point: unicasts,
self-deliveries, future-buffer replays and every fan-out bucket
the kernels decline all arrive here.  Over set-based quorum collectors and a
table-free crypto context it is the reference: what ``reference=True``
deployments and Byzantine wrappers run.  Production deployments hand vote
fan-outs to the bucket kernel in :mod:`repro.core.columnar` instead, which
shares the replica's vote token (:func:`prevalidate_vote` for ProBFT) and
its quorum re-checks.  Everything about a message that does not depend on
who receives it — the vote token, ``safeProposal``, ``validNewLeader`` — is
computed once per message object through the instance's verdict table
(:mod:`repro.crypto.verdicts`) and looked up per delivery; only the
per-recipient conditions (the view gate, ``blockView``, ``voted``,
``i ∈ S``) run here every time.  A Wish fan-out never arrives: those go to
the wish kernel (:mod:`repro.sync.columns`), and only unicast wishes reach
:meth:`ProBFTReplica.on_message`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..crypto.vrf import VRFOutput, phase_seed
from ..messages.base import ProposalStatement, conforms
from ..messages.probft import Commit, NewLeader, Prepare, Propose
from ..net.transport import Transport
from .leader import compute_proposal, leader_of
from .predicates import safe_proposal, valid_new_leader
from ..quorum.deterministic import DeterministicQuorumCollector
from ..quorum.probabilistic import ProbabilisticQuorumCollector
from ..sync.synchronizer import ViewSynchronizer, Wish
from ..sync.timeouts import TimeoutPolicy
from ..types import Decision, ReplicaId, TraceEvent, Value, View

#: How far ahead of the current view messages are buffered instead of dropped.
FUTURE_VIEW_WINDOW = 2

DecisionCallback = Callable[[Decision], None]


class _VoteToken(NamedTuple):
    """Recipient-independent validation of one Prepare/Commit vote.

    Computed once per message object (:func:`prevalidate_vote`) and shared
    by every delivery of it.  Everything here is a pure function of the
    message and the instance's shared crypto/config, never of the receiving
    replica.  ``members`` is the vote's :class:`VRFOutput` itself: ``i in
    token.members`` builds its membership set on the first question, so a
    vote nobody asks about builds none — the kernel's own-sample route and
    a sender's delivery to itself (``_send_vote`` makes one only when the
    sender is in its sample) never ask.  ``None`` means every replica
    (PBFT's broadcast votes).
    """

    is_prepare: bool
    view: View
    value: Value
    signer: ReplicaId
    members: Optional[VRFOutput]
    valid: bool
    eq_candidate: bool


def prevalidate_vote(
    config: ProtocolConfig, crypto: CryptoContext, message: object
) -> Optional[_VoteToken]:
    """Recipient-independent validation of a Signed Prepare/Commit.

    Pure function of the message and the instance's shared crypto/config:
    with a verdict table it is computed once per message object and looked
    up on every later delivery.  ``None`` means the message is no vote at
    all, not even evidence: no Prepare or Commit, or one that does not
    conform (:func:`~repro.messages.base.conforms`).  The sample is verified,
    never unpacked: the token carries the :class:`VRFOutput`, and no
    membership set is built.
    """
    table = crypto.verdicts
    if table is not None and table.config is config:
        token = table.get("vote", message)
        if token is not None:
            return token or None  # False: not a well-typed vote
    else:
        table = None
    payload = getattr(message, "payload", None)
    if not isinstance(payload, (Prepare, Commit)):
        return None
    if not conforms(message, Signed, crypto.verdicts):
        if table is not None:
            table.put("vote", message, False)
        return None
    statement = payload.statement
    inner = statement.payload
    view = inner.view
    domain_ok = inner.domain == config.seed_domain
    leader_ok = (
        view >= 1
        and statement.signer == leader_of(view, config)
    )
    is_prepare = isinstance(payload, Prepare)
    valid = (
        crypto.signatures.verify(message)
        and crypto.signatures.verify(statement)
        and domain_ok
        and leader_ok
        and crypto.vrf.verify(
            message.signer,
            phase_seed(
                view,
                "prepare" if is_prepare else "commit",
                config.seed_domain,
            ),
            config.sample_size,
            payload.sample,
        )
    )
    token = _VoteToken(
        is_prepare=is_prepare,
        view=view,
        value=inner.value,
        signer=message.signer,
        members=payload.sample,
        valid=valid,
        eq_candidate=domain_ok and leader_ok,
    )
    if table is not None:
        table.put("vote", message, token)
    return token


class ProBFTReplica:
    """A correct ProBFT replica.

    The class attributes and the methods named in the module docstring are
    the protocol's; a protocol on this skeleton overrides them and nothing
    else.
    """

    #: The proposal and view-change payload types.
    PROPOSE, NEW_LEADER = Propose, NewLeader
    #: The vote payload types (the kernels' type test, never a validation).
    VOTES = (Prepare, Commit)
    #: Cap on buffered messages per future view (DoS guard).
    FUTURE_BUFFER_LIMIT = 4096
    #: ``(config, crypto, message) -> _VoteToken or None``, once per object.
    vote_token = staticmethod(prevalidate_vote)
    safe_proposal = staticmethod(safe_proposal)
    valid_new_leader = staticmethod(valid_new_leader)
    #: The leader's rule, lines 7-12: ``(quorum, my_value) -> (value, v_max)``.
    choose_value = staticmethod(compute_proposal)

    @staticmethod
    def quorum(config: ProtocolConfig) -> int:
        """Votes a prepare or commit quorum takes: the probabilistic q."""
        return config.q

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        my_value: Value,
        timeout_policy: Optional[TimeoutPolicy] = None,
        on_decide: Optional[DecisionCallback] = None,
        trace: bool = False,
        columnar_state=None,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._my_value = my_value
        self._on_decide = on_decide
        self._trace_enabled = trace
        self.trace: List[TraceEvent] = []
        # The delivery fast path reads the quorum size per message: pin it.
        self._q = self.quorum(config)

        self._sync = ViewSynchronizer(
            transport=transport,
            f=config.f,
            signatures=crypto.signatures,
            on_new_view=self._on_new_view,
            timeout_policy=timeout_policy,
            domain=config.seed_domain,
        )

        # --- per-view state (Algorithm 1 line 1) ---
        self._cur_view: View = 0
        self._cur_val: Optional[Value] = None
        self._voted: bool = False
        self._block_view: bool = False
        self._proposal: Optional[Signed] = None  # accepted Signed[Propose]

        # --- persistent state ---
        self._prepared_view: View = 0
        self._prepared_value: Optional[Value] = None
        self._cert: Tuple[Signed, ...] = ()
        self._decision: Optional[Decision] = None

        # --- bookkeeping ---
        # With a shared ColumnarVoteState (every production deployment), the
        # per-view collector tables materialize array-backed facades on
        # lookup (so kernel-delivered votes are visible even before this
        # replica touched the table) and the mirror columns below track the
        # few state transitions the vote kernel classifies on.
        self._cells = columnar_state
        if columnar_state is None:
            self._prepare_collectors: Dict[View, ProbabilisticQuorumCollector] = {}
            self._commit_collectors: Dict[View, ProbabilisticQuorumCollector] = {}
        else:
            from .columnar import ColumnarCollectorTable

            self._prepare_collectors = ColumnarCollectorTable(
                columnar_state, True, replica_id
            )
            self._commit_collectors = ColumnarCollectorTable(
                columnar_state, False, replica_id
            )
        self._new_leader_collectors: Dict[View, DeterministicQuorumCollector] = {}
        self._proposed_views: Set[View] = set()
        self._committed_views: Set[View] = set()
        self._future_buffer: Dict[View, List[Tuple[ReplicaId, Signed]]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def decision(self) -> Optional[Decision]:
        """The replica's decision, if it has decided."""
        return self._decision

    @property
    def _cert(self) -> Tuple[Signed, ...]:
        # Columnar mode defers the quorum_messages gather (see
        # _try_form_prepared): a pending [collector, value] pair — a list,
        # so it can never be confused with a materialized cert tuple — is
        # resolved on first read and cached back as the plain tuple.
        data = self._cert_data
        if type(data) is tuple:
            return data
        collector, value = data
        cert = collector.quorum_messages(value)
        self._cert_data = cert
        return cert

    @_cert.setter
    def _cert(self, value: Tuple[Signed, ...]) -> None:
        self._cert_data = value

    @property
    def current_view(self) -> View:
        return self._cur_view

    @property
    def synchronizer(self) -> ViewSynchronizer:
        return self._sync

    @property
    def prepared_view(self) -> View:
        return self._prepared_view

    @property
    def prepared_value(self) -> Optional[Value]:
        return self._prepared_value

    @property
    def view_blocked(self) -> bool:
        return self._block_view

    def start(self) -> None:
        """Boot the replica: enter view 1 through the synchronizer."""
        self._sync.start()

    def stop(self) -> None:
        self._sync.stop()

    def on_message(self, src: ReplicaId, message: object) -> None:
        """Network delivery entry point."""
        token = self.vote_token(self.config, self._crypto, message)
        if token is not None:
            self._handle_vote(src, message, token)
            return
        payload = getattr(message, "payload", None)
        if isinstance(payload, Wish):
            self._sync.on_wish(src, message)
            return
        if not isinstance(
            payload, (self.PROPOSE, self.NEW_LEADER)
        ) or not conforms(message, Signed, self._crypto.verdicts):
            return  # only signed (§2.1), well-typed messages are processed
        view = payload.view
        if view < self._cur_view or self._cur_view == 0:
            return  # stale (or not yet started)
        if view > self._cur_view:
            self._buffer_future(view, src, message)
            return
        if isinstance(payload, self.PROPOSE):
            self._check_equivocation(message)
            self._handle_propose(src, message)
        else:
            self._handle_new_leader(src, message)

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------
    def _buffer_future(self, view: View, src: ReplicaId, message: Signed) -> None:
        if view > self._cur_view + FUTURE_VIEW_WINDOW:
            return
        bucket = self._future_buffer.setdefault(view, [])
        if len(bucket) < self.FUTURE_BUFFER_LIMIT:
            bucket.append((src, message))

    # ------------------------------------------------------------------
    # Algorithm 1, lines 1-5: newView
    # ------------------------------------------------------------------
    def _on_new_view(self, view: View) -> None:
        self._cur_view = view
        self._cur_val = None
        self._voted = False
        self._block_view = False
        self._proposal = None
        if self._cells is not None:
            self._cells.note_view(self.id, view, view in self._committed_views)
        self._prune(view)
        self._trace("new-view", view=view)

        if view == 1:
            if self.id == self._leader(view):
                self._propose(self._my_value, justification=None)
        else:
            signed = self._sign(self._new_leader_payload(view))
            self._send_or_local(self._leader(view), signed)
        self._replay_buffered(view)

    def _new_leader_payload(self, view: View) -> NewLeader:
        """Line 5: this replica's prepared state, for ``leader(view)``."""
        return NewLeader(
            view=view,
            prepared_view=self._prepared_view,
            prepared_value=self._prepared_value,
            cert=self._cert,
            domain=self.config.seed_domain,
        )

    def _replay_buffered(self, view: View) -> None:
        pending = self._future_buffer.pop(view, [])
        for src, message in pending:
            # Schedule at zero delay so replay happens after the current
            # handler completes (keeps handlers non-reentrant).
            self._transport.schedule(
                0.0, lambda s=src, m=message: self.on_message(s, m)
            )

    def _prune(self, view: View) -> None:
        for table in (
            self._prepare_collectors,
            self._commit_collectors,
            self._new_leader_collectors,
        ):
            for old in [v for v in table if v < view]:
                del table[old]
        # Strictly-older buffers only: the entry for `view` itself is about
        # to be replayed by _replay_buffered.
        for old in [v for v in self._future_buffer if v < view]:
            del self._future_buffer[old]

    # ------------------------------------------------------------------
    # Algorithm 1, lines 6-12: the leader's proposal
    # ------------------------------------------------------------------
    def _handle_new_leader(self, src: ReplicaId, signed: Signed) -> None:
        view = self._cur_view
        if self.id != self._leader(view) or view <= 1:
            return
        if view in self._proposed_views:
            return
        if not self.valid_new_leader(signed, view, self.config, self._crypto):
            return
        collector = self._new_leader_collectors.get(view)
        if collector is None:
            collector = self._new_leader_collectors[view] = (
                DeterministicQuorumCollector(self.config.n, self.config.f)
            )
        if collector.add(view, signed.signer, signed):
            quorum = collector.quorum_messages(view)
            value, _v_max = self.choose_value(quorum, self._my_value)
            self._propose(value, justification=tuple(quorum))

    def _propose(self, value: Value, justification: Optional[Tuple[Signed, ...]]) -> None:
        view = self._cur_view
        self._proposed_views.add(view)
        statement = self._sign(
            ProposalStatement(view=view, value=value, domain=self.config.seed_domain)
        )
        propose = self.PROPOSE(
            view=view, statement=statement, justification=justification
        )
        signed = self._sign(propose)
        self._trace("propose", view=view, value=value)
        self._transport.broadcast(signed)
        self._deliver_local(signed)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 13-16: Propose -> Prepare
    # ------------------------------------------------------------------
    def _handle_propose(self, src: ReplicaId, signed: Signed) -> None:
        if self._block_view or self._voted:
            return
        if not self.safe_proposal(signed, self.config, self._crypto):
            return
        propose: Propose = signed.payload
        value = propose.value
        self._cur_val = value
        self._voted = True
        self._proposal = signed
        self._trace("vote", view=self._cur_view, value=value)
        self._send_vote(True, propose.statement)
        # A prepare quorum may already be sitting in the collector.
        self._try_form_prepared()

    @staticmethod
    def vote(
        config: ProtocolConfig,
        crypto: CryptoContext,
        signer: ReplicaId,
        view: View,
        is_prepare: bool,
        statement: Signed,
    ) -> Tuple[Signed, Optional[Tuple[ReplicaId, ...]]]:
        """Lines 16 and 20: ``signer``'s Prepare or Commit for ``statement``
        and its recipients, a fresh VRF sample (``None`` would mean every
        replica).  Honest seats and Byzantine ones (:mod:`repro.adversary`)
        vote through this one definition."""
        phase, kind = ("prepare", Prepare) if is_prepare else ("commit", Commit)
        sample = crypto.vrf.prove(
            signer, phase_seed(view, phase, config.seed_domain), config.sample_size
        )
        message = crypto.signatures.sign(
            signer, kind(statement=statement, sample=sample)
        )
        return message, sample.sample

    def _send_vote(self, is_prepare: bool, statement: Signed) -> None:
        """Send this replica's vote (:meth:`vote`) to its recipients."""
        message, targets = self.vote(
            self.config, self._crypto, self.id, self._cur_view, is_prepare, statement
        )
        if targets is None:
            self._transport.broadcast(message)
            self._deliver_local(message)
            return
        # Samples are drawn without replacement, so self appears at most
        # once; C-level index + slice beats filtering ~s elements per vote.
        # Each sample is multicast once, by its prover, so nothing is kept.
        try:
            i = targets.index(self.id)
        except ValueError:
            self._transport.multicast(targets, message)
        else:
            self._transport.multicast(targets[:i] + targets[i + 1 :], message)
            self._deliver_local(message)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 17-22: one delivered vote
    # ------------------------------------------------------------------
    def _handle_vote(self, src: ReplicaId, message: Signed, token: _VoteToken) -> None:
        """One delivery of a Prepare (lines 17-20) or Commit (lines 21-22).

        ``token`` carries everything about the vote that is the same for
        every recipient; what is left is this replica's own: the view gate,
        lines 23-25, ``blockView``, ``i ∈ S`` and its quorum collector.
        """
        view = token.view
        cur = self._cur_view
        if view < cur or cur == 0:
            return  # stale (or not yet started)
        if view > cur:
            self._buffer_future(view, src, message)
            return
        if (
            token.eq_candidate
            and self._voted
            and not self._block_view
            and token.value != self._cur_val
        ):
            # A conflicting statement under the leader's name.  Either the
            # leader signed it, which blocks the view (lines 23-25), or it
            # did not, and then the vote is invalid: nothing is counted.
            self._check_equivocation(message)
            return
        if self._block_view or not token.valid:
            return
        members = token.members
        if (
            members is not None
            and not src == self.id == token.signer  # own vote: self ∈ S
            and self.id not in members
        ):
            return  # line 17/21 precondition: i ∈ S
        collectors = (
            self._prepare_collectors
            if token.is_prepare
            else self._commit_collectors
        )
        collector = collectors.get(cur)
        if collector is None:  # array-backed tables build theirs on lookup
            collector = collectors[cur] = ProbabilisticQuorumCollector(self._q)
        # The quorum re-checks are no-ops unless this add completed one.
        if collector.add(token.value, token.signer, message):
            if token.is_prepare:
                self._try_form_prepared()
            else:
                self._try_decide()

    # ------------------------------------------------------------------
    # Algorithm 1, lines 17-20: Prepare quorum -> Commit
    # ------------------------------------------------------------------
    def _try_form_prepared(self) -> None:
        view = self._cur_view
        if self._block_view or not self._voted or view in self._committed_views:
            return
        collector = self._prepare_collectors.get(view)
        if collector is None or not collector.has_quorum(self._cur_val):
            return
        # Lines 18-20: store the prepared certificate, multicast Commit.
        self._prepared_value = self._cur_val
        self._prepared_view = view
        if self._cells is not None:
            # Columnar slots are never reclaimed within a trial and latch at
            # quorum, so cert materialization (a q-wide gather) can wait for
            # an actual read — NewLeader at view change, or the audit.  Most
            # trials decide in view 1 and never pay it.
            self._cert_data = [collector, self._cur_val]
            self._cells.note_committed(self.id)
        else:
            self._cert = collector.quorum_messages(self._cur_val)
        self._committed_views.add(view)
        self._trace("prepared", view=view, value=self._cur_val)
        assert self._proposal is not None
        self._send_vote(False, self._proposal.payload.statement)
        self._try_decide()

    # ------------------------------------------------------------------
    # Algorithm 1, lines 21-22: Commit quorum -> decide
    # ------------------------------------------------------------------
    def _try_decide(self) -> None:
        if self._decision is not None or self._block_view:
            return
        view = self._cur_view
        value = self._prepared_value
        if value is None or self._prepared_view != view:
            return
        collector = self._commit_collectors.get(view)
        if collector is None or not collector.has_quorum(value):
            return
        self._decision = Decision(
            replica=self.id, value=value, view=view, time=self._transport.now
        )
        if self._cells is not None:
            self._cells.note_decided(self.id)
        self._trace("decide", view=view, value=value)
        if self._on_decide is not None:
            self._on_decide(self._decision)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 23-25: equivocation detection
    # ------------------------------------------------------------------
    def _check_equivocation(self, message: Signed) -> None:
        if self._block_view or not self._voted:
            return
        statement = message.payload.statement  # a Propose's, Prepare's or Commit's
        inner = statement.payload
        view = self._cur_view
        if inner.view != view or inner.domain != self.config.seed_domain:
            return
        if statement.signer != self._leader(view):
            return
        if inner.value == self._cur_val:
            return
        if not self._crypto.signatures.verify(statement):
            return
        # The leader provably signed two different values for this view.
        self._block_view = True
        if self._cells is not None:
            self._cells.note_blocked(self.id)
        self._trace(
            "block-view", view=view, ours=self._cur_val, theirs=inner.value
        )
        self._transport.broadcast(message)
        if self._proposal is not None:
            self._transport.broadcast(self._proposal)

    # ------------------------------------------------------------------
    # Validation and plumbing
    # ------------------------------------------------------------------
    def _leader(self, view: View) -> ReplicaId:
        return leader_of(view, self.config)

    def _sign(self, payload: object) -> Signed:
        return self._crypto.signatures.sign(self.id, payload)

    def _send_or_local(self, dst: ReplicaId, message: Signed) -> None:
        if dst == self.id:
            self._deliver_local(message)
        else:
            self._transport.send(dst, message)

    def _deliver_local(self, message: Signed) -> None:
        self._transport.schedule(
            0.0, lambda: self.on_message(self.id, message)
        )

    def _trace(self, kind: str, **detail) -> None:
        if self._trace_enabled:
            self.trace.append(
                TraceEvent(
                    time=self._transport.now,
                    replica=self.id,
                    kind=kind,
                    detail=detail,
                )
            )
