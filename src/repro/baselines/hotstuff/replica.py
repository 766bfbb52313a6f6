"""Single-shot basic HotStuff replica.

Basic HotStuff [58] runs four leader-driven phases per view::

    NewView  : replicas -> leader   (carry highest prepare-QC)
    PREPARE  : leader proposal -> all ; votes -> leader
    PRE-COMMIT: leader QC -> all     ; votes -> leader
    COMMIT   : leader QC -> all      ; votes -> leader (replicas lock)
    DECIDE   : leader QC -> all      ; replicas decide

Message complexity is linear (~8(n−1) per view including NewView) but the
good case takes ~8 communication steps versus PBFT/ProBFT's 3 — the exact
trade-off Figure 1 visualises.

Quorum certificates here are tuples of ``n − f`` signed votes; a production
implementation would aggregate them with threshold signatures, which changes
bit complexity but not the message counts the paper compares.

What every recipient of a broadcast proposal checks alike — its signature,
its sender being the leader, its phase, its justifying QC and the n − f
votes in it — is evaluated once per proposal (and once per QC object)
through the instance's verdict table (:meth:`CryptoContext.validated
<repro.crypto.context.CryptoContext.validated>`); only the lock rule is the
recipient's own.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ...config import ProtocolConfig
from ...crypto.context import CryptoContext
from ...crypto.signatures import Signed
from ...core.leader import leader_of
from ...messages.base import conforms
from ...messages.hotstuff import (
    HsNewView,
    HsPhase,
    HsProposal,
    HsQuorumCert,
    HsVote,
    HsVotePayload,
)
from ...net.transport import Transport
from ...quorum.probabilistic import QuorumCollector
from ...sync.synchronizer import ViewSynchronizer, Wish
from ...sync.timeouts import TimeoutPolicy
from ...types import Decision, ReplicaId, Value, View

DecisionCallback = Callable[[Decision], None]

FUTURE_VIEW_WINDOW = 2
FUTURE_BUFFER_LIMIT = 8192


class HotStuffReplica:
    """A correct single-shot HotStuff replica."""

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        my_value: Value,
        timeout_policy: Optional[TimeoutPolicy] = None,
        on_decide: Optional[DecisionCallback] = None,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._my_value = my_value
        self._on_decide = on_decide

        self._sync = ViewSynchronizer(
            transport=transport,
            f=config.f,
            signatures=crypto.signatures,
            on_new_view=self._on_new_view,
            timeout_policy=timeout_policy,
        )

        self._cur_view: View = 0
        self._decision: Optional[Decision] = None
        #: Highest prepare-QC this replica has seen (its "safety" anchor).
        self._prepare_qc: Optional[HsQuorumCert] = None
        #: Locked QC (set in COMMIT phase); single-shot: informational.
        self._locked_qc: Optional[HsQuorumCert] = None
        #: Votes this replica already cast, keyed by (view, phase).
        self._voted: Set[Tuple[View, str]] = set()

        # Leader-side state.
        self._new_view_collector: Dict[View, QuorumCollector] = {}
        self._vote_collectors: Dict[Tuple[View, str], QuorumCollector] = {}
        self._leader_value: Dict[View, Value] = {}
        self._phase_driven: Set[Tuple[View, str]] = set()

        self._future_buffer: Dict[View, List[Tuple[ReplicaId, Signed]]] = {}

    # ------------------------------------------------------------------
    @property
    def decision(self) -> Optional[Decision]:
        return self._decision

    @property
    def current_view(self) -> View:
        return self._cur_view

    @property
    def synchronizer(self) -> ViewSynchronizer:
        return self._sync

    def start(self) -> None:
        self._sync.start()

    def stop(self) -> None:
        self._sync.stop()

    @property
    def quorum(self) -> int:
        """HotStuff quorum: ``n − f`` votes (≥ 2f+1 under n=3f+1)."""
        return self.config.n - self.config.f

    def on_message(self, src: ReplicaId, message: object) -> None:
        payload = getattr(message, "payload", None)
        if isinstance(payload, Wish):
            self._sync.on_wish(src, message)
            return
        if not isinstance(payload, (HsNewView, HsProposal, HsVote)) or not conforms(
            message, Signed, self._crypto.verdicts
        ):
            return  # only signed, well-typed protocol messages are processed
        view = payload.view
        if self._cur_view == 0 or view < self._cur_view:
            return  # stale (or not yet started)
        if view > self._cur_view:
            if view <= self._cur_view + FUTURE_VIEW_WINDOW:
                bucket = self._future_buffer.setdefault(view, [])
                if len(bucket) < FUTURE_BUFFER_LIMIT:
                    bucket.append((src, message))
            return
        if isinstance(payload, HsNewView):
            self._handle_new_view_msg(src, message)
        elif isinstance(payload, HsProposal):
            self._handle_proposal(src, message)
        elif isinstance(payload, HsVote):
            self._handle_vote(src, message)

    # ------------------------------------------------------------------
    def _on_new_view(self, view: View) -> None:
        self._cur_view = view
        # Strictly older: a skipped view's buffer is never replayed.
        for table in (self._new_view_collector, self._future_buffer):
            for old in [v for v in table if v < view]:
                del table[old]
        for old in [k for k in self._vote_collectors if k[0] < view]:
            del self._vote_collectors[old]
        # Every replica reports to the new leader (including in view 1 —
        # the leader needs n−f NewView messages to know the high QC).
        msg = HsNewView(view=view, prepare_qc=self._prepare_qc)
        self._send_or_local(self._leader(view), self._sign(msg))
        for src, message in self._future_buffer.pop(view, []):
            self._transport.schedule(
                0.0, lambda s=src, m=message: self.on_message(s, m)
            )

    def _handle_new_view_msg(self, src: ReplicaId, signed: Signed) -> None:
        view = self._cur_view
        if self.id != self._leader(view):
            return
        if (view, HsPhase.PREPARE.value) in self._phase_driven:
            return
        if not self._crypto.signatures.verify(signed):
            return
        msg: HsNewView = signed.payload
        if msg.prepare_qc is not None and not self._verify_qc(msg.prepare_qc):
            return
        collector = self._new_view_collector.get(view)
        if collector is None:
            collector = self._new_view_collector[view] = QuorumCollector(self.quorum)
        if collector.add(view, signed.signer, signed):
            quorum = collector.quorum_messages(view)
            high_qc = self._highest_qc(quorum)
            value = high_qc.value if high_qc is not None else self._my_value
            self._leader_value[view] = value
            self._drive_phase(view, HsPhase.PREPARE, value, high_qc)

    @staticmethod
    def _highest_qc(new_view_msgs) -> Optional[HsQuorumCert]:
        best: Optional[HsQuorumCert] = None
        for signed in new_view_msgs:
            qc = signed.payload.prepare_qc
            if qc is not None and (best is None or qc.view > best.view):
                best = qc
        return best

    def _drive_phase(
        self,
        view: View,
        phase: HsPhase,
        value: Value,
        justify: Optional[HsQuorumCert],
    ) -> None:
        """Leader: broadcast the proposal that starts ``phase``."""
        self._phase_driven.add((view, phase.value))
        proposal = HsProposal(
            view=view, value=value, phase=phase.value, justify=justify
        )
        signed = self._sign(proposal)
        self._transport.broadcast(signed)
        self._deliver_local(signed)

    # ------------------------------------------------------------------
    def _handle_proposal(self, src: ReplicaId, signed: Signed) -> None:
        if not self._crypto.validated(
            self.config, "proposal", signed, lambda: self._valid_proposal(signed)
        ):
            return
        proposal: HsProposal = signed.payload
        view = proposal.view
        phase = HsPhase(proposal.phase)
        justify = proposal.justify
        locked = self._locked_qc
        if phase is HsPhase.PREPARE and locked is not None:
            # Unlock rule: no justification is acceptable only to unlocked
            # replicas (nobody proved anything was prepared earlier), and a
            # justification must be at least as recent as our lock.
            if justify is None or justify.view < locked.view:
                return

        if phase is HsPhase.PRE_COMMIT and justify is not None:
            self._prepare_qc = justify
        if phase is HsPhase.COMMIT and justify is not None:
            self._locked_qc = justify
        if phase is HsPhase.DECIDE:
            self._decide(view, proposal.value)
            return

        key = (view, phase.value)
        if key in self._voted:
            return
        self._voted.add(key)
        vote_payload = self._sign(
            HsVotePayload(view=view, value=proposal.value, phase=phase.value)
        )
        vote = HsVote(vote=vote_payload)
        self._send_or_local(self._leader(view), self._sign(vote))

    def _valid_proposal(self, signed: Signed) -> bool:
        """Everything about a (well-typed) proposal that is the same for
        every recipient: signed by its view's leader, a known phase, and a
        justify QC that matches the proposal the way the phase demands."""
        if not self._crypto.signatures.verify(signed):
            return False
        proposal: HsProposal = signed.payload
        if signed.signer != self._leader(proposal.view):
            return False
        try:
            phase = HsPhase(proposal.phase)
        except ValueError:
            return False
        justify = proposal.justify
        if phase is HsPhase.PREPARE:
            return justify is None or (
                self._verify_qc(justify)
                and justify.phase == HsPhase.PREPARE.value
                and proposal.value == justify.value
            )
        if justify is None:
            return False
        expected_prev = {
            HsPhase.PRE_COMMIT: HsPhase.PREPARE,
            HsPhase.COMMIT: HsPhase.PRE_COMMIT,
            HsPhase.DECIDE: HsPhase.COMMIT,
        }[phase]
        return self._verify_qc(justify) and justify.matches(
            proposal.view, proposal.value, expected_prev
        )

    def _handle_vote(self, src: ReplicaId, signed: Signed) -> None:
        view = self._cur_view
        if self.id != self._leader(view):
            return
        if not self._crypto.signatures.verify(signed):
            return
        vote_msg: HsVote = signed.payload
        inner = vote_msg.vote
        if not self._crypto.signatures.verify(inner) or inner.signer != signed.signer:
            return
        payload: HsVotePayload = inner.payload
        if payload.view != view:
            return
        try:
            phase = HsPhase(payload.phase)
        except ValueError:
            return
        if payload.value != self._leader_value.get(view):
            return
        key = (view, phase.value)
        collector = self._vote_collectors.get(key)
        if collector is None:
            collector = self._vote_collectors[key] = QuorumCollector(self.quorum)
        if collector.add(payload.value, inner.signer, inner):
            votes = collector.quorum_messages(payload.value)
            qc = HsQuorumCert(
                view=view, value=payload.value, phase=phase.value, votes=votes
            )
            next_phase = phase.next_phase()
            if next_phase is not None:
                self._drive_phase(view, next_phase, payload.value, qc)

    def _verify_qc(self, qc: HsQuorumCert) -> bool:
        return self._crypto.validated(
            self.config, "qc", qc, lambda: self._quorum_signed(qc)
        )

    def _quorum_signed(self, qc: HsQuorumCert) -> bool:
        seen = set()
        for vote in qc.votes:
            if not self._crypto.signatures.verify(vote):
                return False
            payload = vote.payload
            if (
                payload.view != qc.view
                or payload.value != qc.value
                or payload.phase != qc.phase
            ):
                return False
            if vote.signer in seen:
                return False
            seen.add(vote.signer)
        return len(seen) >= self.quorum

    def _decide(self, view: View, value: Value) -> None:
        if self._decision is not None:
            return
        self._decision = Decision(
            replica=self.id, value=value, view=view, time=self._transport.now
        )
        if self._on_decide is not None:
            self._on_decide(self._decision)

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
        self._transport.schedule(0.0, lambda: self.on_message(self.id, message))
