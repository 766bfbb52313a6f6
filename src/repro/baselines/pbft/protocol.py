"""PBFT deployment wiring: ProBFT's stack over PBFT's replicas."""

from __future__ import annotations

from ...core.deployment import Deployment
from ...core.protocol import ProBFTStack
from .replica import PbftReplica


class PbftStack(ProBFTStack):
    """PBFT's votes on the one vote kernel: a deterministic quorum over the
    shared columnar state, and PBFT's vote token."""

    replica_class = PbftReplica


class PbftDeployment(Deployment):
    """One single-shot PBFT consensus instance on a simulated network."""

    replica_class = PbftReplica
    pool_label = "pbft-deployment"
    stack_class = PbftStack
