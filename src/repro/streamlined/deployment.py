"""Deployment wiring for streamlined ProBFT."""

from __future__ import annotations

from ..core.deployment import Deployment
from .replica import StreamReplica


class StreamDeployment(Deployment):
    """One streamlined chain on a simulated network.

    A streamlined replica has no synchronizer and no skeleton vote, so the
    deployment has no instance stack: delivery is per recipient, as the
    oracle's.  A run decides at height 1 (:class:`StreamReplica`);
    :meth:`run_until` drives the chain further.
    """

    replica_class = StreamReplica
    pool_label = "stream-deployment"
    stack_class = None

    def min_finalized_height(self) -> int:
        return min(r.finalized_height for r in self.correct_replicas().values())

    def chains_consistent(self) -> bool:
        """Every pair of finalized chains is prefix-compatible."""
        chains = [
            tuple(b.hash() for b in replica.finalized_chain)
            for replica in self.correct_replicas().values()
        ]
        for a in chains:
            for b in chains:
                shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
                if longer[: len(shorter)] != shorter:
                    return False
        return True
