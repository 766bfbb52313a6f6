"""Deployment wiring: run a ProBFT consensus instance on a simulated network.

:class:`ProBFTStack` is what one instance of a protocol on the ProBFT
skeleton (ProBFT, or PBFT through
:class:`repro.baselines.pbft.protocol.PbftStack`) puts on the network: its
votes' entries in the kernel table, the vote kernel over array-backed
quorum state (:mod:`repro.core.columnar`), whose ``inspect`` hook sees
every send (to flag equivocal ProBFT views), beside the shared wish
kernel's ``Wish`` entry; every message is validated once per object
through the instance's verdict table.  The stack's
:attr:`~ProBFTStack.replica_class` sizes the state (its quorum) and feeds
the kernel (its vote token and vote types).
:class:`ProBFTDeployment` is the shared
:class:`~repro.core.deployment.Deployment` over one such stack (the SMR
service holds one per open slot).
"""

from __future__ import annotations

from ..config import ProtocolConfig
from .columnar import ColumnarVoteDispatch, ColumnarVoteState
from .deployment import Deployment, InstanceStack
from .replica import ProBFTReplica


class ProBFTStack(InstanceStack):
    """One instance of a protocol on the ProBFT skeleton: shared columnar
    vote state (one set of arrays for every correct replica, whose collector
    tables become facades over it) and the vote kernel, the table entry of
    each of :attr:`replica_class`'s vote types beside the wish kernel's,
    sized and fed by :attr:`replica_class` (its quorum, its vote token and
    vote types)."""

    replica_class = ProBFTReplica

    def __init__(self, config, crypto, correct_ids, handlers) -> None:
        super().__init__(config, crypto, correct_ids, handlers)
        protocol = self.replica_class
        self.state = ColumnarVoteState(
            config.n, protocol.quorum(config), correct_ids
        )
        self.replica_kwargs = {"columnar_state": self.state}
        self.votes = ColumnarVoteDispatch(
            config,
            crypto,
            self.replicas,
            correct_ids,
            handlers,
            self.state,
            protocol.vote_token,
            protocol.VOTES,
        )
        self.kernels.update(dict.fromkeys(protocol.VOTES, self.votes))
        self.inspect = self.votes.inspect


class ProBFTDeployment(Deployment):
    """One ProBFT consensus instance: n replicas, a network, and a clock.

    Takes :class:`~repro.core.deployment.Deployment`'s arguments plus
    ``trace`` (replicas record :class:`~repro.types.TraceEvent`\\ s).

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
        **deployment_kwargs,
    ) -> None:
        self._trace = trace
        super().__init__(config, seed, **deployment_kwargs)

    def _replica_kwargs(self) -> dict:
        return {"trace": self._trace, **super()._replica_kwargs()}
