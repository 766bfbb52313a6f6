"""Deployment wiring: run a ProBFT consensus instance on a simulated network.

:class:`ProBFTDeployment` is the shared :class:`~repro.core.deployment.
Deployment` with ProBFT's stack on top: votes reach only the recipients
that can observe them (:class:`~repro.core.observation.
SampleObservationPolicy`), whole vote buckets are applied by one kernel
over array-backed quorum state (:mod:`repro.core.columnar`), which passes
Wish buckets on to the shared wish kernel, a Propose is validated once per
message object, and the leader's proposal optionally travels by gossip.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import ProtocolConfig
from ..net.network import DeliveryHandler
from ..net.transport import Transport
from ..types import ReplicaId
from .columnar import ColumnarVoteDispatch, ColumnarVoteState
from .deployment import Deployment
from .observation import SampleObservationPolicy
from .replica import ProBFTReplica


class ProBFTDeployment(Deployment):
    """One ProBFT consensus instance: n replicas, a network, and a clock.

    Takes :class:`~repro.core.deployment.Deployment`'s arguments plus
    ``trace`` (replicas record :class:`~repro.types.TraceEvent`\\ s) and the
    proposal-dissemination knobs.

    Example:
        >>> from repro.config import ProtocolConfig
        >>> dep = ProBFTDeployment(ProtocolConfig(n=20, f=3))
        >>> result = dep.run()
        >>> dep.agreement_ok and dep.all_correct_decided()
        True
    """

    replica_class = ProBFTReplica
    pool_label = "deployment"

    def __init__(
        self,
        config: ProtocolConfig,
        seed: int = 0,
        *,
        trace: bool = False,
        dissemination: str = "dense",
        gossip_fanout: Optional[int] = None,
        gossip_rounds: Optional[int] = None,
        **deployment_kwargs,
    ) -> None:
        if dissemination not in ("dense", "gossip"):
            raise ValueError(
                f"dissemination must be 'dense' or 'gossip', got {dissemination!r}"
            )
        self._trace = trace
        self.dissemination = dissemination
        self._gossip_fanout = gossip_fanout
        self._gossip_rounds = gossip_rounds
        self.disseminator: Optional[object] = None
        self._kernel: Optional[ColumnarVoteDispatch] = None
        super().__init__(config, seed, **deployment_kwargs)

    def _replica_kwargs(self) -> dict:
        config = self.config
        # Shared columnar vote state: one set of arrays for every correct
        # replica; the per-replica collector tables become facades over it.
        self._columnar_state = (
            None
            if self.reference
            else ColumnarVoteState(config.n, config.q, self._correct_ids)
        )
        if self.dissemination == "gossip":
            from ..net.gossip import GossipDisseminator

            self.disseminator = GossipDisseminator(
                self.network,
                config.n,
                self.seed,
                fanout=self._gossip_fanout,
                rounds=self._gossip_rounds,
                byzantine_ids=self.byzantine_ids,
            )
        return {"trace": self._trace, "columnar_state": self._columnar_state}

    def _transport(self, replica: ReplicaId) -> Transport:
        transport = Transport(self.network, replica)
        if self.disseminator is not None:
            transport.use_disseminator(self.disseminator)
        return transport

    def _handler(self, replica_id: ReplicaId, replica) -> DeliveryHandler:
        handler = replica.on_message
        if self.disseminator is not None:
            # Gossip hops travel as unicast envelopes and therefore hit the
            # registered handler directly, coalesced delivery or not; the
            # wrapper unwraps (and, for correct recipients, relays) before
            # the protocol sees the payload.
            handler = self.disseminator.wrap_handler(replica_id, handler)
        return handler

    def _install_stack(self) -> None:
        policy = SampleObservationPolicy(
            self.config, self.byzantine_ids, self.replicas
        )
        network = self.network
        network.use_delivery_policy(policy)
        # Buckets the kernel declines fall back to the batched per-recipient
        # handler (one shared prevalidation per bucket).
        for r in self._correct_ids:
            network.register_batch(r, self.replicas[r].on_sample_message)
        self._kernel = ColumnarVoteDispatch(
            self.config,
            self.crypto,
            self.replicas,
            self._correct_ids,
            network._handlers,
            policy,
            self._columnar_state,
            self._install_wish_kernel(),
            dup_possible=self.duplicate_prob > 0.0,
        )
        network.use_bulk_handler(self._kernel)

    def vote_kernel_stats(self) -> Dict[str, int]:
        stats = super().vote_kernel_stats()
        if self._kernel is not None:
            stats.update(self._kernel.stats())
            stats["propose_validations"] = self._columnar_state.propose_validations
        return stats
