"""HotStuff deployment wiring."""

from __future__ import annotations

from ...core.deployment import Deployment
from .replica import HotStuffReplica


class HotStuffDeployment(Deployment):
    """One single-shot HotStuff consensus instance on a simulated network."""

    replica_class = HotStuffReplica
    pool_label = "hotstuff-deployment"
