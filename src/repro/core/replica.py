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
* :meth:`_handle_prepare`    — lines 17–20 (probabilistic prepare quorum →
  prepared certificate → multicast Commit to a fresh VRF sample);
* :meth:`_handle_commit`     — lines 21–22 (probabilistic commit quorum →
  decide);
* :meth:`_check_equivocation`— lines 23–25 (any message carrying a
  leader-signed statement conflicting with ``curVal`` blocks the view and
  gossips the evidence).

Messages for future views are buffered (bounded) and replayed on view entry;
messages for past views are dropped — the paper's "a receiver will only
accept a message if its own view matches the view of the sender".

:meth:`ProBFTReplica.on_message` over set-based quorum collectors is the
reference: what ``reference=True`` deployments and Byzantine wrappers
run.  Production deployments hand vote fan-outs to the bucket
kernel in :mod:`repro.core.columnar` instead, which shares this module's
:func:`prevalidate_vote` and the replica's quorum re-checks;
:meth:`ProBFTReplica.on_sample_message` is the per-recipient fallback for
the vote buckets that kernel declines and for other fan-outs (Propose,
evidence).  It never sees a Wish: those fan-outs go to the wish kernel
(:mod:`repro.sync.columns`), and only unicast wishes reach
:meth:`ProBFTReplica.on_message`.  With shared columnar state a Propose's
``safeProposal`` verdict is likewise computed once per envelope and shared
(:meth:`~repro.core.columnar.ColumnarVoteState.safe_proposal`); the
per-recipient conditions of lines 13-16 (``blockView``, ``voted``) stay in
:meth:`_handle_propose`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..crypto.vrf import VRFOutput, phase_seed
from ..messages.base import ProposalStatement
from ..messages.probft import Commit, NewLeader, Prepare, Propose, extract_statement
from ..net.transport import Transport
from .leader import leader_of
from ..quorum.deterministic import DeterministicQuorumCollector
from ..quorum.probabilistic import ProbabilisticQuorumCollector
from ..sync.synchronizer import ViewSynchronizer, Wish
from ..sync.timeouts import TimeoutPolicy
from ..types import Decision, ReplicaId, TraceEvent, Value, View

#: How far ahead of the current view messages are buffered instead of dropped.
FUTURE_VIEW_WINDOW = 2

#: Cap on buffered messages per future view (DoS guard).
FUTURE_BUFFER_LIMIT = 4096

DecisionCallback = Callable[[Decision], None]


class _VoteToken(NamedTuple):
    """Recipient-independent validation of one Prepare/Commit vote.

    Computed once per coalesced fan-out bucket and shared by every recipient
    in it, by the bucket kernel (:class:`~repro.core.columnar.
    ColumnarVoteDispatch`) or, for buckets it declines, by
    :meth:`ProBFTReplica.on_sample_message`.  Everything here is a pure
    function of the message and the deployment's shared crypto/config,
    never of the receiving replica.
    """

    is_prepare: bool
    view: View
    value: Value
    signer: ReplicaId
    members: frozenset
    valid: bool
    eq_candidate: bool


def prevalidate_vote(
    config: ProtocolConfig, crypto: CryptoContext, message: object
) -> Optional[_VoteToken]:
    """Recipient-independent validation of a Signed Prepare/Commit.

    Pure function of the message and the deployment's shared crypto/config;
    computed once per coalesced fan-out and shared by every recipient.
    ``None`` means the message is not a well-formed vote at all.
    """
    if not isinstance(message, Signed):
        return None
    payload = message.payload
    if not isinstance(payload, (Prepare, Commit)):
        return None
    statement = payload.statement
    inner = getattr(statement, "payload", None)
    if not isinstance(inner, ProposalStatement):
        return None
    view = inner.view
    domain_ok = inner.domain == config.seed_domain
    leader_ok = (
        view >= 1
        and getattr(statement, "signer", None) == leader_of(view, config)
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
    return _VoteToken(
        is_prepare=is_prepare,
        view=view,
        value=inner.value,
        signer=message.signer,
        members=payload.sample.members(),
        valid=valid,
        eq_candidate=domain_ok and leader_ok,
    )


class ProBFTReplica:
    """A correct ProBFT replica."""

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
        # The config properties recompute ceil(l*sqrt(n)) per access; the
        # delivery fast path reads them per message, so pin them once.
        self._q = config.q

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
        if not isinstance(message, Signed):
            return  # correct replicas only process signed messages (§2.1)
        payload = message.payload
        if isinstance(payload, Wish):
            self._sync.on_wish(src, message)
            return
        view = self._view_of(payload)
        if view is None:
            return
        if view < self._cur_view or self._cur_view == 0:
            return  # stale (or not yet started)
        if view > self._cur_view:
            self._buffer_future(view, src, message)
            return
        self._process_current(src, message)

    def on_sample_message(self, src: ReplicaId, message: object, shared: dict) -> None:
        """Per-recipient entry point for buckets the vote kernel declines.

        Recipients of one fan-out event share the recipient-independent
        validation work (signatures, leader check, VRF) through a
        :class:`_VoteToken` stashed in ``shared``; each recipient then does
        only its own per-replica steps, replicating :meth:`on_message`'s
        observable behaviour exactly.  Anything that is not a plain
        current-view vote falls back to the generic path.
        """
        token = shared.get("vote", False)
        if token is False:
            token = prevalidate_vote(self.config, self._crypto, message)
            shared["vote"] = token
        if token is None:
            self.on_message(src, message)
            return
        view = token.view
        cur = self._cur_view
        if view < cur or cur == 0:
            return  # stale (or not yet started)
        if view > cur:
            self._buffer_future(view, src, message)
            return
        # Lines 23-25 can only trigger on a conflicting leader-signed
        # statement; defer that rare case to the generic path wholesale.
        if (
            token.eq_candidate
            and self._voted
            and not self._block_view
            and token.value != self._cur_val
        ):
            self._process_current(src, message)
            return
        if self._block_view or not token.valid:
            return
        if self.id not in token.members:
            return  # line 17/21 precondition: i ∈ S
        table = (
            self._prepare_collectors
            if token.is_prepare
            else self._commit_collectors
        )
        # The table is array-backed wherever fan-outs are batched, and builds
        # the collector on lookup.  The quorum re-checks are no-ops unless
        # this add completed one — unlike the generic path we only pay them
        # when it did.
        if table.get(cur).add(token.value, token.signer, message):
            if token.is_prepare:
                self._try_form_prepared()
            else:
                self._try_decide()

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _view_of(payload: object) -> Optional[View]:
        if isinstance(payload, (Propose, NewLeader)):
            return payload.view
        if isinstance(payload, (Prepare, Commit)):
            statement = payload.statement
            inner = getattr(statement, "payload", None)
            if isinstance(inner, ProposalStatement):
                return inner.view
        return None

    def _buffer_future(self, view: View, src: ReplicaId, message: Signed) -> None:
        if view > self._cur_view + FUTURE_VIEW_WINDOW:
            return
        bucket = self._future_buffer.setdefault(view, [])
        if len(bucket) < FUTURE_BUFFER_LIMIT:
            bucket.append((src, message))

    def _process_current(self, src: ReplicaId, message: Signed) -> None:
        self._check_equivocation(message)
        payload = message.payload
        if isinstance(payload, Propose):
            self._handle_propose(src, message)
        elif isinstance(payload, Prepare):
            self._handle_prepare(src, message)
        elif isinstance(payload, Commit):
            self._handle_commit(src, message)
        elif isinstance(payload, NewLeader):
            self._handle_new_leader(src, message)

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
            new_leader = NewLeader(
                view=view,
                prepared_view=self._prepared_view,
                prepared_value=self._prepared_value,
                cert=self._cert,
                domain=self.config.seed_domain,
            )
            signed = self._sign(new_leader)
            self._send_or_local(self._leader(view), signed)
        self._replay_buffered(view)

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
        from .predicates import valid_new_leader

        if not valid_new_leader(signed, view, self.config, self._crypto):
            return
        collector = self._new_leader_collectors.setdefault(
            view, DeterministicQuorumCollector(self.config.n, self.config.f)
        )
        if collector.add(view, signed.signer, signed):
            from .leader import compute_proposal

            quorum = collector.quorum_messages(view)
            value, _v_max = compute_proposal(quorum, self._my_value)
            self._propose(value, justification=tuple(quorum))

    def _propose(self, value: Value, justification: Optional[Tuple[Signed, ...]]) -> None:
        view = self._cur_view
        self._proposed_views.add(view)
        statement = self._sign(
            ProposalStatement(view=view, value=value, domain=self.config.seed_domain)
        )
        propose = Propose(view=view, statement=statement, justification=justification)
        signed = self._sign(propose)
        self._trace("propose", view=view, value=value)
        # Dissemination seam: dense deployments broadcast (the reference
        # semantics, bit-identical to before the seam existed); gossip
        # deployments sample-and-forward instead (O(log n) fan-out per node).
        self._transport.disseminate(signed)
        self._deliver_local(signed)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 13-16: Propose -> Prepare
    # ------------------------------------------------------------------
    def _handle_propose(self, src: ReplicaId, signed: Signed) -> None:
        if self._block_view or self._voted:
            return
        if self._cells is not None:
            # Recipient-independent: evaluated once per envelope, shared.
            safe = self._cells.safe_proposal(signed, self.config, self._crypto)
        else:
            from .predicates import safe_proposal

            safe = safe_proposal(signed, self.config, self._crypto)
        if not safe:
            return
        propose: Propose = signed.payload
        view = self._cur_view
        value = propose.value
        self._cur_val = value
        self._voted = True
        self._proposal = signed
        self._trace("vote", view=view, value=value)

        sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(view, "prepare", self.config.seed_domain),
            self.config.sample_size,
        )
        prepare = Prepare(statement=propose.statement, sample=sample)
        self._multicast_sample(sample, self._sign(prepare))
        # A prepare quorum may already be sitting in the collector.
        self._try_form_prepared()

    # ------------------------------------------------------------------
    # Algorithm 1, lines 17-20: Prepare quorum -> Commit
    # ------------------------------------------------------------------
    def _handle_prepare(self, src: ReplicaId, signed: Signed) -> None:
        if self._block_view:
            return
        prepare = signed.payload
        if not self._verify_vote(signed, prepare, "prepare"):
            return
        view = self._cur_view
        collector = self._prepare_collectors.setdefault(
            view, ProbabilisticQuorumCollector(self.config.q)
        )
        collector.add(prepare.value, signed.signer, signed)
        self._try_form_prepared()

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

        sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(view, "commit", self.config.seed_domain),
            self.config.sample_size,
        )
        assert self._proposal is not None
        commit = Commit(statement=self._proposal.payload.statement, sample=sample)
        self._multicast_sample(sample, self._sign(commit))
        self._try_decide()

    # ------------------------------------------------------------------
    # Algorithm 1, lines 21-22: Commit quorum -> decide
    # ------------------------------------------------------------------
    def _handle_commit(self, src: ReplicaId, signed: Signed) -> None:
        if self._block_view:
            return
        commit = signed.payload
        if not self._verify_vote(signed, commit, "commit"):
            return
        view = self._cur_view
        collector = self._commit_collectors.setdefault(
            view, ProbabilisticQuorumCollector(self.config.q)
        )
        collector.add(commit.value, signed.signer, signed)
        self._try_decide()

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
        statement = extract_statement(message.payload)
        if statement is None:
            return
        inner = statement.payload
        if not isinstance(inner, ProposalStatement):
            return
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
    def _verify_vote(self, signed: Signed, vote: object, phase_tag: str) -> bool:
        """Shared Prepare/Commit validation (signatures, VRF, membership)."""
        if not isinstance(vote, (Prepare, Commit)):
            return False
        if not self._crypto.signatures.verify(signed):
            return False
        statement = vote.statement
        if not self._crypto.signatures.verify(statement):
            return False
        inner = statement.payload
        if not isinstance(inner, ProposalStatement):
            return False
        view = inner.view
        if view != self._cur_view or inner.domain != self.config.seed_domain:
            return False
        if statement.signer != self._leader(view):
            return False
        sample: VRFOutput = vote.sample
        if self.id not in sample.members():
            return False  # line 17/21 precondition: i ∈ S
        seed = phase_seed(view, phase_tag, self.config.seed_domain)
        return self._crypto.vrf.verify(
            signed.signer, seed, self.config.sample_size, sample
        )

    def _leader(self, view: View) -> ReplicaId:
        return leader_of(view, self.config)

    def _sign(self, payload: object) -> Signed:
        return self._crypto.signatures.sign(self.id, payload)

    def _send_or_local(self, dst: ReplicaId, message: Signed) -> None:
        if dst == self.id:
            self._deliver_local(message)
        else:
            self._transport.send(dst, message)

    def _multicast_sample(self, sample: VRFOutput, message: Signed) -> None:
        # Samples are drawn without replacement, so self appears at most
        # once; C-level index + slice beats filtering ~s elements per vote.
        # Each sample is multicast once, by its prover, so nothing is kept.
        targets = sample.sample
        try:
            i = targets.index(self.id)
        except ValueError:
            has_self = False
        else:
            targets = targets[:i] + targets[i + 1 :]
            has_self = True
        self._transport.multicast(targets, message)
        if has_self:
            self._deliver_local(message)

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
