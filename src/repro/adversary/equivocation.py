"""Equivocating-leader attacks (paper §4.3, Figure 4) and colluding voters.

Three leader strategies are implemented:

* **general** (Fig. 4a) — ``m ≥ 2`` proposals to arbitrary, possibly
  overlapping subsets, some replicas receiving nothing;
* **sub-optimal** (Fig. 4b) — two proposals to two halves of *all* replicas;
* **optimal** (Fig. 4c) — the provably strongest strategy: correct replicas
  split into two equal halves ``Π¹_C`` and ``Π²_C``; proposal ``val₁`` goes
  to ``Π¹_C ∪ Π_F`` and ``val₂`` to ``Π²_C ∪ Π_F``.

Colluding followers (:class:`DoubleVoterReplica`) support the leader by
casting Prepare **and** Commit votes for *both* values — but deliver each
value's votes only to sample members of that value's group, so they never
hand correct replicas equivocation evidence.  Note the VRF still constrains
them: votes only count for receivers inside their VRF-chosen samples
(paper §3.1 benefit 1), which is exactly why the attack's success probability
decays as ``exp(−Θ(√n))``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..crypto.vrf import phase_seed
from ..messages.base import ProposalStatement
from ..messages.probft import Commit, Prepare, Propose
from ..net.transport import Transport
from ..types import ReplicaId, Value, View


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


class EquivocatingLeader:
    """A Byzantine leader executing a :class:`SplitStrategy` in its view.

    In ``attack_view`` (default 1) it sends a distinct, correctly signed
    Propose per assignment — signatures verify, so the *only* defences are
    the probabilistic quorums and the equivocation detector.  In other views
    it stays silent (forcing a view change if it leads again).
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
            # Equivocating in a later view would additionally require forging
            # a safeProposal justification; view 1 needs none (Algorithm 1
            # line 3) and is the case the paper's §4.3 analysis covers.
            raise ValueError("EquivocatingLeader only attacks view 1")
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
        statements: Dict[Value, Signed] = {}
        for value, targets in self._strategy.assignments:
            statement = self._crypto.signatures.sign(
                self.id,
                ProposalStatement(
                    view=view, value=value, domain=self.config.seed_domain
                ),
            )
            statements[value] = statement
            propose = Propose(view=view, statement=statement, justification=None)
            signed = self._crypto.signatures.sign(self.id, propose)
            # The leader equivocates *per partition*, one ordered send each.
            for dst in sorted(targets):
                if dst != self.id:
                    self._transport.send(dst, signed)
        if self._support:
            self._vote_both_sides(view, statements)

    def _vote_both_sides(self, view: View, statements: Dict[Value, Signed]) -> None:
        """Send per-group Prepare and Commit votes (leader is also a replica)."""
        prepare_sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(view, "prepare", self.config.seed_domain),
            self.config.sample_size,
        )
        commit_sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(view, "commit", self.config.seed_domain),
            self.config.sample_size,
        )
        for value, targets in self._strategy.assignments:
            statement = statements[value]
            prepare = self._crypto.signatures.sign(
                self.id, Prepare(statement=statement, sample=prepare_sample)
            )
            commit = self._crypto.signatures.sign(
                self.id, Commit(statement=statement, sample=commit_sample)
            )
            for dst in prepare_sample.sample:
                if dst != self.id and dst in targets:
                    self._transport.send(dst, prepare)
            for dst in commit_sample.sample:
                if dst != self.id and dst in targets:
                    self._transport.send(dst, commit)

    def on_message(self, src: ReplicaId, message: object) -> None:
        # The attack fires from start(); later views: silence.
        pass


class DoubleVoterReplica:
    """A colluding Byzantine follower supporting an equivocating leader.

    Upon the leader's (first) proposals it votes Prepare and Commit for
    *every* value in the plan, delivering each value's votes only to sample
    members inside that value's group — correct replicas outside the group
    never see the conflicting value from this replica, so no evidence leaks.
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
        if not isinstance(payload, Propose):
            return
        if payload.view != self._attack_view:
            return
        if payload.statement.signer != self._leader_id:
            return
        self._fired = True
        self._vote_all(self._attack_view)

    def _vote_all(self, view: View) -> None:
        prepare_sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(view, "prepare", self.config.seed_domain),
            self.config.sample_size,
        )
        commit_sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(view, "commit", self.config.seed_domain),
            self.config.sample_size,
        )
        for value, targets in self._strategy.assignments:
            statement = self._crypto.signatures.sign_with(
                self._leader_key(), self._leader_id,
                ProposalStatement(
                    view=view, value=value, domain=self.config.seed_domain
                ),
            )
            prepare = self._crypto.signatures.sign(
                self.id, Prepare(statement=statement, sample=prepare_sample)
            )
            commit = self._crypto.signatures.sign(
                self.id, Commit(statement=statement, sample=commit_sample)
            )
            for dst in prepare_sample.sample:
                if dst != self.id and dst in targets:
                    self._transport.send(dst, prepare)
            for dst in commit_sample.sample:
                if dst != self.id and dst in targets:
                    self._transport.send(dst, commit)

    def _leader_key(self) -> bytes:
        """Colluders share keys (paper §2.1: faulty replicas may know each
        other's private keys), so the voter can reproduce the leader-signed
        statements without waiting to receive both of them."""
        return self._crypto.registry.key_pair(self._leader_id).private_key


def equivocating_leader_factory(
    strategy: SplitStrategy,
    attack_view: View = 1,
    support_own_proposals: bool = True,
):
    """Deployment factory for :class:`EquivocatingLeader`."""

    def build(replica_id, config, crypto, transport):
        return EquivocatingLeader(
            replica_id,
            config,
            crypto,
            transport,
            strategy,
            attack_view=attack_view,
            support_own_proposals=support_own_proposals,
        )

    return build


def double_voter_factory(
    strategy: SplitStrategy, leader_id: ReplicaId, attack_view: View = 1
):
    """Deployment factory for :class:`DoubleVoterReplica`."""

    def build(replica_id, config, crypto, transport):
        return DoubleVoterReplica(
            replica_id,
            config,
            crypto,
            transport,
            strategy,
            leader_id,
            attack_view=attack_view,
        )

    return build


def equivocation_byzantine_map(
    config: ProtocolConfig,
    val1: Value = b"attack-A",
    val2: Value = b"attack-B",
    n_byzantine: Optional[int] = None,
    strategy: Optional[SplitStrategy] = None,
    support_own_proposals: bool = True,
) -> Tuple[Dict[ReplicaId, Callable], SplitStrategy]:
    """The Figure-4c attack as a ``byzantine=`` map, plus the split used.

    Replica 0 (leader of view 1) equivocates with ``val1``/``val2``; the
    remaining Byzantine replicas are taken from the *end* of the ID range
    (so view 2's leader is correct and the run terminates quickly) and act
    as colluding double-voters.  The map composes with any latency, GST or
    timeout settings: pass it as ``byzantine=`` to
    :class:`~repro.core.protocol.ProBFTDeployment` or a
    :class:`~repro.harness.trial.DeploymentSpec`.
    """
    n_byz = n_byzantine if n_byzantine is not None else config.f
    if n_byz < 1:
        raise ValueError("the attack needs at least the leader Byzantine")
    leader_id: ReplicaId = 0
    colluders = list(range(config.n - (n_byz - 1), config.n))
    plan = strategy or optimal_split(config.n, [leader_id] + colluders, val1, val2)
    byzantine: Dict[ReplicaId, Callable] = {
        leader_id: equivocating_leader_factory(
            plan, attack_view=1, support_own_proposals=support_own_proposals
        )
    }
    for replica in colluders:
        byzantine[replica] = double_voter_factory(plan, leader_id, attack_view=1)
    return byzantine, plan
