"""PBFT deployment wiring."""

from __future__ import annotations

from ...core.deployment import Deployment
from .replica import PbftReplica


class PbftDeployment(Deployment):
    """One single-shot PBFT consensus instance on a simulated network."""

    replica_class = PbftReplica
    pool_label = "pbft-deployment"
