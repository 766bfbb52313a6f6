"""Deployment wiring: run a ProBFT consensus instance on a simulated network.

:class:`ProBFTStack` is what one ProBFT instance puts on the network: votes
reach only the recipients that can observe them (:class:`~repro.core.
observation.SampleObservationPolicy`), whole vote buckets are applied by
one kernel over array-backed quorum state (:mod:`repro.core.columnar`),
which passes Wish buckets on to the shared wish kernel, and every message
is validated once per object through the instance's verdict table.
:class:`ProBFTDeployment` is the shared
:class:`~repro.core.deployment.Deployment` over one such stack (the SMR
service holds one per open slot), with the leader's proposal optionally
travelling by gossip.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import ProtocolConfig
from ..net.network import DeliveryHandler
from ..net.transport import Transport
from ..types import ReplicaId
from .columnar import ColumnarVoteDispatch, ColumnarVoteState
from .deployment import Deployment, InstanceStack
from .observation import SampleObservationPolicy
from .replica import ProBFTReplica


class ProBFTStack(InstanceStack):
    """One ProBFT instance: shared columnar vote state (one set of arrays for
    every correct replica, whose collector tables become facades over it),
    the observation policy, and the vote kernel in front of the wish kernel."""

    def __init__(
        self, config, crypto, correct_ids, byzantine_ids, handlers, dup_possible=False
    ) -> None:
        super().__init__(
            config, crypto, correct_ids, byzantine_ids, handlers, dup_possible
        )
        self.state = ColumnarVoteState(config.n, config.q, correct_ids)
        self.replica_kwargs = {"columnar_state": self.state}
        self.policy = SampleObservationPolicy(config, byzantine_ids, self.replicas)
        self.kernel = ColumnarVoteDispatch(
            config,
            crypto,
            self.replicas,
            correct_ids,
            handlers,
            self.policy,
            self.state,
            self.wishes,
            dup_possible=dup_possible,
        )

    def stats(self) -> Dict[str, int]:
        return {**self.wishes.stats(), **self.kernel.stats()}


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
    stack_class = ProBFTStack

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
        super().__init__(config, seed, **deployment_kwargs)

    def _replica_kwargs(self) -> dict:
        if self.dissemination == "gossip":
            from ..net.gossip import GossipDisseminator

            self.disseminator = GossipDisseminator(
                self.network,
                self.config.n,
                self.seed,
                fanout=self._gossip_fanout,
                rounds=self._gossip_rounds,
                byzantine_ids=self.byzantine_ids,
            )
        return {"trace": self._trace, **super()._replica_kwargs()}

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
