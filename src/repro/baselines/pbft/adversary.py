"""PBFT analogues of the ProBFT equivocation and flooding attacks.

The paper's cross-protocol comparison (Figures 4-5) is only apples-to-apples
if the deterministic baselines face the *same* adversary strategies as
ProBFT.  This module ports them to PBFT's message dialect:

* :class:`EquivocatingPbftLeader` — the Figure-4c split, spoken in PBFT: the
  view-1 leader sends a distinct, correctly signed pre-prepare
  (:class:`~repro.messages.pbft.PbftPropose`) per split group, and backs each
  with its own conflicting ``PbftPrepare``/``PbftCommit`` votes delivered
  only inside that group.
* :class:`PbftDoubleVoter` — colluding followers casting Prepare *and*
  Commit votes for every plan value, each delivered only to that value's
  group (faulty replicas share keys, §2.1, so the voter re-creates the
  leader-signed statements locally).
* :class:`PbftFloodingReplica` — sprays votes whose statements are not
  leader-signed, votes for a fabricated value, and duplicates of one valid
  vote; deterministic quorum collectors must reject or dedup all of it.

Why PBFT survives: with quorums of ``⌈(n+f+1)/2⌉``, the two split groups'
supports sum to ``n + f < 2·quorum``, so at most one value can ever gather a
prepare (or commit) quorum — quorum intersection in code form.  The attack
can therefore only stall view 1 (liveness degradation) or hand one group a
decision that the view-change certificate then forces on everyone else;
``tests/test_baseline_adversaries.py`` pins both outcomes on golden seeds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...adversary.equivocation import SplitStrategy, optimal_split
from ...config import ProtocolConfig
from ...crypto.context import CryptoContext
from ...crypto.signatures import Signed
from ...messages.base import ProposalStatement
from ...messages.pbft import PbftCommit, PbftPrepare, PbftPropose
from ...net.transport import Transport
from ...types import ReplicaId, Value, View


class EquivocatingPbftLeader:
    """A Byzantine view-1 leader sending one pre-prepare per split group.

    Every message is correctly signed — the only defences are deterministic
    quorum intersection and the view-change certificate rule.  In later
    views the leader stays silent.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        strategy: SplitStrategy,
        attack_view: View = 1,
        support_own_proposals: bool = True,
    ) -> None:
        if attack_view != 1:
            # A later-view pre-prepare needs a valid NewLeader justification
            # quorum, which cannot be forged; view 1 needs none.
            raise ValueError("EquivocatingPbftLeader only attacks view 1")
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._strategy = strategy
        self._attack_view = attack_view
        self._support = support_own_proposals
        self._attacked = False

    def start(self) -> None:
        self._attack()

    def _attack(self) -> None:
        if self._attacked:
            return
        self._attacked = True
        view = self._attack_view
        for value, targets in self._strategy.assignments:
            statement = self._crypto.signatures.sign(
                self.id, ProposalStatement(view=view, value=value)
            )
            propose = PbftPropose(
                view=view, statement=statement, justification=None
            )
            signed = self._crypto.signatures.sign(self.id, propose)
            for dst in sorted(targets):
                if dst != self.id:
                    self._transport.send(dst, signed)
            if self._support:
                # Conflicting Prepare/Commit votes, but only inside the
                # value's own group — no cross-group evidence.
                prepare = self._crypto.signatures.sign(
                    self.id, PbftPrepare(statement=statement)
                )
                commit = self._crypto.signatures.sign(
                    self.id, PbftCommit(statement=statement)
                )
                for dst in sorted(targets):
                    if dst != self.id:
                        self._transport.send(dst, prepare)
                        self._transport.send(dst, commit)

    def on_message(self, src: ReplicaId, message: object) -> None:
        # The attack fires from start(); later views: silence.
        pass


class PbftDoubleVoter:
    """A colluding follower voting Prepare and Commit for every plan value.

    Each value's votes go only to that value's group, so correct replicas
    outside the group never see the conflicting support from this replica.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        strategy: SplitStrategy,
        leader_id: ReplicaId,
        attack_view: View = 1,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._strategy = strategy
        self._leader_id = leader_id
        self._attack_view = attack_view
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, PbftPropose):
            return
        if payload.view != self._attack_view:
            return
        if payload.statement.signer != self._leader_id:
            return
        self._fired = True
        self._vote_all(self._attack_view)

    def _vote_all(self, view: View) -> None:
        leader_key = self._crypto.registry.key_pair(
            self._leader_id
        ).private_key  # colluders share keys (paper §2.1)
        for value, targets in self._strategy.assignments:
            statement = self._crypto.signatures.sign_with(
                leader_key,
                self._leader_id,
                ProposalStatement(view=view, value=value),
            )
            prepare = self._crypto.signatures.sign(
                self.id, PbftPrepare(statement=statement)
            )
            commit = self._crypto.signatures.sign(
                self.id, PbftCommit(statement=statement)
            )
            for dst in sorted(targets):
                if dst != self.id:
                    self._transport.send(dst, prepare)
                    self._transport.send(dst, commit)


class PbftFloodingReplica:
    """Sends a burst of invalid PBFT votes to everyone on the first proposal.

    Attack vectors exercised:

    * non-leader statements: Prepare/Commit whose inner statement the flooder
      signed itself (``statement.signer == leader`` check fails);
    * fake value injection: votes for a value the leader never proposed;
    * vote duplication: one *valid* Prepare repeated ``burst`` times (the
      deterministic collector counts each sender at most once).
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        burst: int = 3,
        fake_value: Value = b"flood-value",
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._burst = burst
        self._fake_value = fake_value
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, PbftPropose):
            return
        self._fired = True
        self._flood(payload.view, payload.statement)

    def _flood(self, view: View, leader_statement: Signed) -> None:
        fake_statement = self._crypto.signatures.sign(
            self.id, ProposalStatement(view=view, value=self._fake_value)
        )
        forged_prepare = self._crypto.signatures.sign(
            self.id, PbftPrepare(statement=fake_statement)
        )
        forged_commit = self._crypto.signatures.sign(
            self.id, PbftCommit(statement=fake_statement)
        )
        valid_prepare = self._crypto.signatures.sign(
            self.id, PbftPrepare(statement=leader_statement)
        )
        for _ in range(self._burst):
            for dst in range(self.config.n):
                if dst == self.id:
                    continue
                self._transport.send(dst, forged_prepare)
                self._transport.send(dst, forged_commit)
                # Duplicate a *valid* vote: must count once per sender.
                self._transport.send(dst, valid_prepare)


def pbft_equivocation_map(
    config: ProtocolConfig,
    val1: Value = b"attack-A",
    val2: Value = b"attack-B",
    n_byzantine: Optional[int] = None,
    strategy: Optional[SplitStrategy] = None,
    support_own_proposals: bool = True,
) -> Tuple[Dict[ReplicaId, object], SplitStrategy]:
    """The Figure-4c attack as a PBFT ``byzantine=`` map, plus the split used.

    Mirrors :func:`repro.adversary.equivocation.equivocation_byzantine_map`:
    replica 0 (leader of view 1) equivocates; the remaining Byzantine
    replicas come from the end of the ID range (so the view-2 leader is
    correct) and double-vote for both values.
    """
    n_byz = n_byzantine if n_byzantine is not None else config.f
    if n_byz < 1:
        raise ValueError("the attack needs at least the leader Byzantine")
    leader_id: ReplicaId = 0
    colluders = list(range(config.n - (n_byz - 1), config.n))
    byz_ids = [leader_id] + colluders

    plan = strategy or optimal_split(config.n, byz_ids, val1, val2)

    def leader_factory(replica_id, config, crypto, transport):
        return EquivocatingPbftLeader(
            replica_id,
            config,
            crypto,
            transport,
            plan,
            support_own_proposals=support_own_proposals,
        )

    byzantine: Dict[ReplicaId, object] = {leader_id: leader_factory}
    for replica in colluders:
        byzantine[replica] = pbft_double_voter_factory(plan, leader_id)
    return byzantine, plan


def pbft_double_voter_factory(
    strategy: SplitStrategy, leader_id: ReplicaId, attack_view: View = 1
):
    """Deployment factory for :class:`PbftDoubleVoter`."""

    def build(replica_id, config, crypto, transport):
        return PbftDoubleVoter(
            replica_id,
            config,
            crypto,
            transport,
            strategy,
            leader_id,
            attack_view=attack_view,
        )

    return build


def pbft_flooding_factory(burst: int = 3, fake_value: Value = b"flood-value"):
    """Deployment factory for :class:`PbftFloodingReplica`."""

    def build(replica_id, config, crypto, transport):
        return PbftFloodingReplica(
            replica_id, config, crypto, transport, burst=burst, fake_value=fake_value
        )

    return build
