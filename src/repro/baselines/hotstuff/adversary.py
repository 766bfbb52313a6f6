"""HotStuff analogues of the ProBFT equivocation and flooding attacks.

HotStuff is leader-driven: replicas vote *to* the leader, so an equivocating
view leader is strictly stronger here than in the broadcast protocols — it
both sends the conflicting proposals *and* privately tallies the resulting
votes, trying to mint two conflicting quorum certificates.

* :class:`EquivocatingHsLeader` — the view-1 leader sends a conflicting
  PREPARE-phase :class:`~repro.messages.hotstuff.HsProposal` per split group
  (correctly signed; ``justify=None`` is legal in view 1), collects the
  returned votes, and drives conflicting PRE-COMMITs only if *every* plan
  value reaches a valid QC.  With honest majority that never happens: the
  groups' vote counts sum to ``n + f < 2(n − f)``, so at most one value can
  reach the ``n − f`` quorum — the leader stalls instead, degrading
  liveness but never safety.  It also broadcasts a forged DECIDE proposal
  whose certificate carries only the ``f`` colluder votes; replicas must
  reject it in ``_verify_qc``.
* :class:`HsDoubleVoter` — colluding followers voting for *every* plan value
  (votes go only to the Byzantine leader, so no evidence ever reaches a
  correct replica).
* :class:`HsFloodingReplica` — sprays proposals from a non-leader, forged
  single-vote certificates, fake-value votes, and duplicates of one valid
  vote; leader checks and vote collectors must reject or dedup all of it.

These stay HotStuff's own (DESIGN.md, "One attack per dialect"): its votes
are unicasts to the leader, and its leader tallies them and forges a
colluder-only DECIDE certificate, which no hook of the ProBFT skeleton
describes.  The seats, the split, the attack view and the flood value are
the shared ones (:func:`~repro.adversary.equivocation.attack_seats`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Sequence, Tuple

from ...adversary.equivocation import (
    ATTACK_VALUES,
    ATTACK_VIEW,
    SplitStrategy,
    attack_seats,
    optimal_split,
)
from ...adversary.flooding import FLOOD_VALUE
from ...config import ProtocolConfig
from ...crypto.context import CryptoContext
from ...crypto.signatures import Signed
from ...messages.hotstuff import (
    HsPhase,
    HsProposal,
    HsQuorumCert,
    HsVote,
    HsVotePayload,
)
from ...net.transport import Transport
from ...types import ReplicaId, Value, View


class EquivocatingHsLeader:
    """A Byzantine view-1 leader proposing a different value per split group."""

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        strategy: SplitStrategy,
        colluders: Sequence[ReplicaId] = (),
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._strategy = strategy
        self._colluders = tuple(colluders)
        self._quorum = config.n - config.f
        #: Valid PREPARE votes received, per plan value, keyed by signer.
        self._votes: Dict[Value, Dict[ReplicaId, Signed]] = {}
        self._escalated = False

    def start(self) -> None:
        view = ATTACK_VIEW
        for value, targets in self._strategy.assignments:
            proposal = HsProposal(
                view=view, value=value, phase=HsPhase.PREPARE.value, justify=None
            )
            signed = self._crypto.signatures.sign(self.id, proposal)
            for dst in sorted(targets):
                if dst != self.id:
                    self._transport.send(dst, signed)
        self._send_forged_decide(view)

    def _send_forged_decide(self, view: View) -> None:
        """A DECIDE proposal certified by the colluders alone (f < n − f
        votes): every correct replica must reject it in ``_verify_qc``."""
        value = self._strategy.values[0]
        votes = [
            self._sign_as(
                signer,
                HsVotePayload(
                    view=view, value=value, phase=HsPhase.COMMIT.value
                ),
            )
            for signer in (self.id, *self._colluders)
        ]
        qc = HsQuorumCert(
            view=view, value=value, phase=HsPhase.COMMIT.value, votes=tuple(votes)
        )
        decide = HsProposal(
            view=view, value=value, phase=HsPhase.DECIDE.value, justify=qc
        )
        signed = self._crypto.signatures.sign(self.id, decide)
        for dst in range(self.config.n):
            if dst != self.id:
                self._transport.send(dst, signed)

    def _sign_as(self, signer: ReplicaId, payload: object) -> Signed:
        """Sign with a corrupted replica's key (faulty replicas share keys)."""
        key = self._crypto.registry.key_pair(signer).private_key
        return self._crypto.signatures.sign_with(key, signer, payload)

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._escalated or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, HsVote):
            return
        inner = payload.vote
        vote: HsVotePayload = inner.payload
        if not isinstance(vote, HsVotePayload):
            return
        if vote.view != ATTACK_VIEW or vote.phase != HsPhase.PREPARE.value:
            return
        if not self._crypto.signatures.verify(inner):
            return
        self._votes.setdefault(vote.value, {})[inner.signer] = inner
        self._try_escalate()

    def _try_escalate(self) -> None:
        """Drive conflicting PRE-COMMITs iff *every* value has a valid QC.

        The quorum arithmetic (pinned by ``tests/test_split_properties.py``)
        makes this unreachable with an honest majority; the branch exists so
        the attack is complete, not because it can fire under f < n/3.
        """
        if any(
            len(self._votes.get(value, {})) < self._quorum
            for value in self._strategy.values
        ):
            return
        self._escalated = True
        for value, targets in self._strategy.assignments:
            votes = tuple(list(self._votes[value].values())[: self._quorum])
            qc = HsQuorumCert(
                view=ATTACK_VIEW,
                value=value,
                phase=HsPhase.PREPARE.value,
                votes=votes,
            )
            proposal = HsProposal(
                view=ATTACK_VIEW,
                value=value,
                phase=HsPhase.PRE_COMMIT.value,
                justify=qc,
            )
            signed = self._crypto.signatures.sign(self.id, proposal)
            for dst in sorted(targets):
                if dst != self.id:
                    self._transport.send(dst, signed)


class HsDoubleVoter:
    """A colluding follower voting for every plan value (to the leader only)."""

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        strategy: SplitStrategy,
        leader_id: ReplicaId,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._strategy = strategy
        self._leader_id = leader_id
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, HsProposal):
            return
        if payload.view != ATTACK_VIEW:
            return
        if payload.phase != HsPhase.PREPARE.value:
            return
        if message.signer != self._leader_id:
            return
        self._fired = True
        for value in self._strategy.values:
            inner = self._crypto.signatures.sign(
                self.id,
                HsVotePayload(
                    view=ATTACK_VIEW,
                    value=value,
                    phase=HsPhase.PREPARE.value,
                ),
            )
            vote = self._crypto.signatures.sign(self.id, HsVote(vote=inner))
            self._transport.send(self._leader_id, vote)


class HsFloodingReplica:
    """Sends a burst of invalid HotStuff traffic on the first proposal.

    Attack vectors exercised:

    * non-leader proposals (``signed.signer != leader(view)`` rejects them);
    * a forged DECIDE whose certificate holds one self-vote;
    * fake-value votes to the leader (``value != leader_value`` rejects them);
    * duplicates of one valid vote (the collector counts a sender once).
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        burst: int = 3,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._burst = burst
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, HsProposal):
            return
        self._fired = True
        self._flood(payload.view, message.signer, payload.value)

    def _flood(self, view: View, leader_id: ReplicaId, real_value: Value) -> None:
        fake_proposal = self._crypto.signatures.sign(
            self.id,
            HsProposal(
                view=view,
                value=FLOOD_VALUE,
                phase=HsPhase.PREPARE.value,
                justify=None,
            ),
        )
        self_vote = self._crypto.signatures.sign(
            self.id,
            HsVotePayload(
                view=view, value=FLOOD_VALUE, phase=HsPhase.COMMIT.value
            ),
        )
        forged_decide = self._crypto.signatures.sign(
            self.id,
            HsProposal(
                view=view,
                value=FLOOD_VALUE,
                phase=HsPhase.DECIDE.value,
                justify=HsQuorumCert(
                    view=view,
                    value=FLOOD_VALUE,
                    phase=HsPhase.COMMIT.value,
                    votes=(self_vote,),
                ),
            ),
        )
        fake_vote_inner = self._crypto.signatures.sign(
            self.id,
            HsVotePayload(
                view=view, value=FLOOD_VALUE, phase=HsPhase.PREPARE.value
            ),
        )
        fake_vote = self._crypto.signatures.sign(
            self.id, HsVote(vote=fake_vote_inner)
        )
        valid_vote_inner = self._crypto.signatures.sign(
            self.id,
            HsVotePayload(
                view=view, value=real_value, phase=HsPhase.PREPARE.value
            ),
        )
        valid_vote = self._crypto.signatures.sign(
            self.id, HsVote(vote=valid_vote_inner)
        )
        for _ in range(self._burst):
            for dst in range(self.config.n):
                if dst == self.id:
                    continue
                self._transport.send(dst, fake_proposal)
                self._transport.send(dst, forged_decide)
            # Votes only mean anything at the leader; duplicate them there.
            self._transport.send(leader_id, fake_vote)
            self._transport.send(leader_id, valid_vote)


def hotstuff_equivocation_map(
    config: ProtocolConfig,
) -> Tuple[Dict[ReplicaId, object], SplitStrategy]:
    """The conflicting-leader attack as a HotStuff ``byzantine=`` map.

    The seats are the Figure-4c ones
    (:func:`~repro.adversary.equivocation.attack_seats`): replica 0
    equivocates, the colluders double-vote for both values.
    """
    leader_id, colluders = attack_seats(config)
    plan = optimal_split(config.n, [leader_id] + colluders, *ATTACK_VALUES)

    byzantine: Dict[ReplicaId, object] = {
        leader_id: partial(EquivocatingHsLeader, strategy=plan, colluders=colluders)
    }
    voter = partial(HsDoubleVoter, strategy=plan, leader_id=leader_id)
    byzantine.update(dict.fromkeys(colluders, voter))
    return byzantine, plan


def hotstuff_flooding_factory(burst: int = 3):
    """Deployment factory for :class:`HsFloodingReplica`."""
    return partial(HsFloodingReplica, burst=burst)
