"""Equivocating-leader attacks (paper §4.3, Figure 4) and colluding voters,
written once for every protocol on the ProBFT skeleton.

Three leader strategies are implemented:

* **general** (Fig. 4a) — ``m ≥ 2`` proposals to arbitrary, possibly
  overlapping subsets, some replicas receiving nothing;
* **sub-optimal** (Fig. 4b) — two proposals to two halves of *all* replicas;
* **optimal** (Fig. 4c) — the provably strongest strategy: correct replicas
  split into two equal halves ``Π¹_C`` and ``Π²_C``; proposal ``val₁`` goes
  to ``Π¹_C ∪ Π_F`` and ``val₂`` to ``Π²_C ∪ Π_F``.

Colluding followers (:class:`DoubleVoterReplica`) support the leader by
casting Prepare **and** Commit votes for *both* values — but deliver each
value's votes only inside that value's group (to its sample members, under
ProBFT), so they never hand correct replicas equivocation evidence.  Note the VRF still constrains
them: votes only count for receivers inside their VRF-chosen samples
(paper §3.1 benefit 1), which is exactly why the attack's success probability
decays as ``exp(−Θ(√n))``.

The seats speak the dialect of the replica class they are given
(:class:`~repro.core.replica.ProBFTReplica` or PBFT's subclass): the
proposal type is its ``PROPOSE`` and every vote, with its recipients, comes
from its :meth:`~repro.core.replica.ProBFTReplica.vote` hook — a VRF sample
for ProBFT, every replica (``None``) for PBFT.  Latency is drawn once per
send, so the order of sends is behaviour and follows those recipients (see
:meth:`SeatVotes.inside` and :meth:`EquivocatingLeader.start`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..config import ProtocolConfig
from ..core.replica import ProBFTReplica
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..messages.base import ProposalStatement
from ..net.transport import Transport
from ..types import ReplicaId, Value, View

#: The one view an attack fires in.  Equivocating in a later view would also
#: need a justification no Byzantine seat can forge (a NewLeader quorum, or
#: HotStuff's justify QC); view 1 needs none (Algorithm 1 line 3), and it is
#: the case the paper's §4.3 analysis covers.
ATTACK_VIEW: View = 1

#: The two values of the Figure-4c split.
ATTACK_VALUES: Tuple[Value, Value] = (b"attack-A", b"attack-B")

Send = Tuple[ReplicaId, Signed]


@dataclass(frozen=True)
class SplitStrategy:
    """An equivocation plan: which replicas receive which proposal.

    ``assignments`` maps each proposed value to the set of replicas the
    leader sends it to.  Replicas in no set are ignored (the Π₀ of Fig. 4a).
    """

    assignments: Tuple[Tuple[Value, FrozenSet[ReplicaId]], ...]

    @property
    def values(self) -> Tuple[Value, ...]:
        return tuple(v for v, _targets in self.assignments)

    def group_of(self, replica: ReplicaId) -> Optional[Value]:
        """First value assigned to ``replica`` (None if in Π₀)."""
        for value, targets in self.assignments:
            if replica in targets:
                return value
        return None

    def supporters(
        self, value: Value, byzantine_ids: Sequence[ReplicaId]
    ) -> FrozenSet[ReplicaId]:
        """Replicas that could vote for ``value``: its target group plus
        every Byzantine replica (colluders vote for all plan values)."""
        byz = frozenset(byzantine_ids)
        for v, targets in self.assignments:
            if v == value:
                return frozenset(targets) | byz
        raise KeyError(f"value {value!r} is not part of this split")

    def max_support(self, byzantine_ids: Sequence[ReplicaId]) -> int:
        """Largest vote count any single plan value can attract.

        The quorum-safety argument for the deterministic baselines
        (``tests/test_split_properties.py``) bounds this against the
        protocols' quorum sizes.
        """
        return max(
            len(self.supporters(v, byzantine_ids)) for v in self.values
        )


def optimal_split(
    n: int, byzantine_ids: Sequence[ReplicaId], val1: Value, val2: Value
) -> SplitStrategy:
    """Figure 4c: split correct replicas in half; Byzantine replicas get both."""
    byz = frozenset(byzantine_ids)
    correct = [r for r in range(n) if r not in byz]
    half = len(correct) // 2
    group1 = frozenset(correct[:half]) | byz
    group2 = frozenset(correct[half:]) | byz
    return SplitStrategy(assignments=((val1, group1), (val2, group2)))


def suboptimal_split(n: int, val1: Value, val2: Value) -> SplitStrategy:
    """Figure 4b: split *all* replicas into two equal halves."""
    half = n // 2
    group1 = frozenset(range(half))
    group2 = frozenset(range(half, n))
    return SplitStrategy(assignments=((val1, group1), (val2, group2)))


def general_split(
    n: int,
    values: Sequence[Value],
    seed: int = 0,
    omit_fraction: float = 0.1,
) -> SplitStrategy:
    """Figure 4a: ``m`` proposals to random, possibly overlapping subsets.

    About ``omit_fraction`` of replicas land in Π₀ and receive nothing.
    """
    if len(values) < 2:
        raise ValueError("general split needs at least two proposals")
    rng = random.Random(f"general-split:{seed}")
    replicas = list(range(n))
    rng.shuffle(replicas)
    omitted = set(replicas[: int(n * omit_fraction)])
    eligible = [r for r in replicas if r not in omitted]
    assignments: List[Tuple[Value, FrozenSet[ReplicaId]]] = []
    for value in values:
        size = rng.randint(max(1, len(eligible) // len(values)), len(eligible))
        members = frozenset(rng.sample(eligible, size))
        assignments.append((value, members))
    return SplitStrategy(assignments=tuple(assignments))


class SeatVotes:
    """One Byzantine seat's votes in one view, in its protocol's dialect.

    The first vote of each phase comes from the protocol's ``vote`` hook —
    for ProBFT that proves the phase's VRF sample — and a vote for any other
    statement reuses its payload and recipients, so a seat proves each
    phase once however many values it votes for.
    """

    def __init__(
        self,
        protocol: type,
        config: ProtocolConfig,
        crypto: CryptoContext,
        signer: ReplicaId,
        view: View,
    ) -> None:
        self._protocol = protocol
        self._config = config
        self._crypto = crypto
        self.signer = signer
        self._view = view
        self._first: Dict[bool, Tuple[Signed, Optional[Sequence[ReplicaId]]]] = {}

    def __call__(
        self, is_prepare: bool, statement: Signed
    ) -> Tuple[Signed, Optional[Sequence[ReplicaId]]]:
        """The seat's Prepare or Commit for ``statement`` and its recipients
        (``None``: every replica)."""
        first = self._first.get(is_prepare)
        if first is None:
            first = self._first[is_prepare] = self._protocol.vote(
                self._config, self._crypto, self.signer, self._view,
                is_prepare, statement,
            )
            return first
        message, recipients = first
        payload = replace(message.payload, statement=statement)
        return self._crypto.signatures.sign(self.signer, payload), recipients

    @property
    def broadcast(self) -> bool:
        """Whether the dialect's votes go to every replica (no vote made
        yet counts as broadcast: there is nothing to order)."""
        return all(recipients is None for _m, recipients in self._first.values())

    def inside(self, statement: Signed, group: FrozenSet[ReplicaId]) -> List[Send]:
        """The Prepare and Commit for ``statement``, addressed inside
        ``group`` only, so no correct replica outside it sees them.

        Broadcast votes go in one pass over the group (Prepare, Commit per
        member, in replica order); sampled ones to the Prepare sample ∩
        group, then to the Commit sample ∩ group, in sample order.
        """
        me = self.signer
        prepare, to_prepare = self(True, statement)
        commit, to_commit = self(False, statement)
        if to_prepare is None:
            return [
                (dst, vote)
                for dst in sorted(group)
                if dst != me
                for vote in (prepare, commit)
            ]
        return [
            (dst, vote)
            for vote, recipients in ((prepare, to_prepare), (commit, to_commit))
            for dst in recipients
            if dst != me and dst in group
        ]


class EquivocatingLeader:
    """A Byzantine view-1 leader executing a :class:`SplitStrategy`.

    It sends a distinct, correctly signed proposal per assignment —
    signatures verify, so the *only* defences are the quorums (probabilistic
    for ProBFT, deterministic for PBFT) and, for ProBFT, the equivocation
    detector — and backs each with its own votes inside that group.  In
    later views it stays silent (forcing a view change if it leads again).
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        strategy: SplitStrategy,
        support_own_proposals: bool = True,
        protocol: type = ProBFTReplica,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._strategy = strategy
        self._support = support_own_proposals
        self._protocol = protocol

    def start(self) -> None:
        sign = self._crypto.signatures.sign
        votes = SeatVotes(
            self._protocol, self.config, self._crypto, self.id, ATTACK_VIEW
        )
        rounds = []
        for value, group in self._strategy.assignments:
            statement = sign(
                self.id,
                ProposalStatement(
                    view=ATTACK_VIEW, value=value, domain=self.config.seed_domain
                ),
            )
            propose = sign(
                self.id,
                self._protocol.PROPOSE(
                    view=ATTACK_VIEW, statement=statement, justification=None
                ),
            )
            # The leader equivocates *per partition*, one ordered send each.
            proposals = [(dst, propose) for dst in sorted(group) if dst != self.id]
            support = votes.inside(statement, group) if self._support else []
            rounds.append((proposals, support))
        # Broadcast votes follow their group's proposal; sampled votes wait
        # until every proposal is out.
        if votes.broadcast:
            sends = [s for proposals, support in rounds for s in proposals + support]
        else:
            sends = [s for proposals, _ in rounds for s in proposals]
            sends += [s for _, support in rounds for s in support]
        for dst, message in sends:
            self._transport.send(dst, message)

    def on_message(self, src: ReplicaId, message: object) -> None:
        # The attack fires from start(); later views: silence.
        pass


class DoubleVoterReplica:
    """A colluding Byzantine follower supporting an equivocating leader.

    Upon the leader's (first) view-1 proposal it votes Prepare and Commit
    for *every* value in the plan, delivering each value's votes only inside
    that value's group (:meth:`SeatVotes.inside`) — correct replicas outside
    the group never see the conflicting value from this replica, so no
    evidence leaks.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        strategy: SplitStrategy,
        leader_id: ReplicaId,
        protocol: type = ProBFTReplica,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._strategy = strategy
        self._leader_id = leader_id
        self._protocol = protocol
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, self._protocol.PROPOSE):
            return
        if payload.view != ATTACK_VIEW:
            return
        if payload.statement.signer != self._leader_id:
            return
        self._fired = True
        # Colluders share keys (paper §2.1: faulty replicas may know each
        # other's private keys), so the voter can reproduce the leader-signed
        # statements without waiting to receive both of them.
        leader_key = self._crypto.registry.key_pair(self._leader_id).private_key
        votes = SeatVotes(
            self._protocol, self.config, self._crypto, self.id, ATTACK_VIEW
        )
        sends: List[Send] = []
        for value, group in self._strategy.assignments:
            statement = self._crypto.signatures.sign_with(
                leader_key, self._leader_id,
                ProposalStatement(
                    view=ATTACK_VIEW, value=value, domain=self.config.seed_domain
                ),
            )
            sends += votes.inside(statement, group)
        for dst, vote in sends:
            self._transport.send(dst, vote)


def attack_seats(config: ProtocolConfig) -> Tuple[ReplicaId, List[ReplicaId]]:
    """The Figure-4c seats: replica 0 (leader of view 1) and, as colluders,
    the other ``f − 1`` Byzantine replicas from the *end* of the ID range
    (so view 2's leader is correct and the run terminates quickly)."""
    if config.f < 1:
        raise ValueError("the attack needs at least the leader Byzantine")
    return 0, list(range(config.n - (config.f - 1), config.n))


def equivocation_byzantine_map(
    config: ProtocolConfig,
    strategy: Optional[SplitStrategy] = None,
    support_own_proposals: bool = True,
    protocol: type = ProBFTReplica,
) -> Tuple[Dict[ReplicaId, Callable], SplitStrategy]:
    """The Figure-4c attack as a ``byzantine=`` map, plus the split used.

    The leader (:func:`attack_seats`) equivocates with
    :data:`ATTACK_VALUES`; the colluders double-vote, all in ``protocol``'s
    dialect.  The map composes with any latency, GST or timeout settings:
    pass it as ``byzantine=`` to the protocol's deployment or a
    :class:`~repro.harness.trial.DeploymentSpec`.
    """
    leader_id, colluders = attack_seats(config)
    plan = strategy or optimal_split(
        config.n, [leader_id] + colluders, *ATTACK_VALUES
    )
    byzantine: Dict[ReplicaId, Callable] = {
        leader_id: partial(
            EquivocatingLeader,
            strategy=plan,
            support_own_proposals=support_own_proposals,
            protocol=protocol,
        )
    }
    voter = partial(
        DoubleVoterReplica, strategy=plan, leader_id=leader_id, protocol=protocol
    )
    for replica in colluders:
        byzantine[replica] = voter
    return byzantine, plan
