"""Whole-attack deployment builders.

These assemble the pieces (equivocating leader + colluding double-voters +
honest replicas) into ready-to-run deployments for tests, examples, and the
Monte-Carlo agreement experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import ProtocolConfig
from ..core.deployment import ByzantineFactory
from ..core.protocol import ProBFTDeployment
from ..net.latency import LatencyModel
from ..sync.timeouts import TimeoutPolicy
from ..types import ReplicaId, Value
from .equivocation import (
    SplitStrategy,
    double_voter_factory,
    equivocating_leader_factory,
    optimal_split,
)


def equivocation_byzantine_map(
    config: ProtocolConfig,
    val1: Value = b"attack-A",
    val2: Value = b"attack-B",
    n_byzantine: Optional[int] = None,
    strategy: Optional[SplitStrategy] = None,
    support_own_proposals: bool = True,
) -> Tuple[Dict[ReplicaId, ByzantineFactory], SplitStrategy]:
    """The Figure-4c attack as a ``byzantine=`` map, plus the split used.

    Replica 0 (leader of view 1) equivocates with ``val1``/``val2``; the
    remaining Byzantine replicas are taken from the *end* of the ID range
    (so view 2's leader is correct and the run terminates quickly) and act
    as colluding double-voters.  Returning a plain map lets the attack
    compose with any latency/GST/timeout settings via
    :class:`~repro.harness.trial.DeploymentSpec`.
    """
    n_byz = n_byzantine if n_byzantine is not None else config.f
    if n_byz < 1:
        raise ValueError("the attack needs at least the leader Byzantine")
    leader_id: ReplicaId = 0
    colluders = list(range(config.n - (n_byz - 1), config.n))
    byz_ids = [leader_id] + colluders

    plan = strategy or optimal_split(config.n, byz_ids, val1, val2)

    byzantine: Dict[ReplicaId, ByzantineFactory] = {
        leader_id: equivocating_leader_factory(
            plan, attack_view=1, support_own_proposals=support_own_proposals
        )
    }
    for replica in colluders:
        byzantine[replica] = double_voter_factory(plan, leader_id, attack_view=1)
    return byzantine, plan


def equivocation_attack_deployment(
    config: ProtocolConfig,
    seed: int = 0,
    val1: Value = b"attack-A",
    val2: Value = b"attack-B",
    n_byzantine: Optional[int] = None,
    latency: Optional[LatencyModel] = None,
    timeout_policy: Optional[TimeoutPolicy] = None,
    strategy: Optional[SplitStrategy] = None,
    support_own_proposals: bool = True,
    trace: bool = False,
) -> Tuple[ProBFTDeployment, SplitStrategy]:
    """Build the paper's optimal within-view attack (Figure 4c).

    Replica 0 (leader of view 1) equivocates with ``val1``/``val2``; the
    remaining Byzantine replicas are taken from the *end* of the ID range
    (so view 2's leader is correct and the run terminates quickly) and act
    as colluding double-voters.

    Returns the deployment and the split used, so callers can check which
    group each decision belongs to.
    """
    byzantine, plan = equivocation_byzantine_map(
        config,
        val1=val1,
        val2=val2,
        n_byzantine=n_byzantine,
        strategy=strategy,
        support_own_proposals=support_own_proposals,
    )

    deployment = ProBFTDeployment(
        config,
        seed=seed,
        latency=latency,
        timeout_policy=timeout_policy,
        byzantine=byzantine,
        trace=trace,
    )
    return deployment, plan
