"""Deployment wiring for streamlined ProBFT."""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.hashing import digest
from ..net.latency import ConstantLatency, LatencyModel
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.transport import Transport
from ..types import ReplicaId
from .block import Block
from .replica import StreamReplica


class StreamDeployment:
    """n streamlined replicas; Byzantine members are silent (wasted epochs)."""

    def __init__(
        self,
        config: ProtocolConfig,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        epoch_duration: float = 3.0,
        max_epochs: int = 30,
        byzantine_ids: Sequence[ReplicaId] = (),
        crypto: Optional[CryptoContext] = None,
    ) -> None:
        self.config = config
        self.max_epochs = max_epochs
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            config.n,
            latency=latency if latency is not None else ConstantLatency(1.0),
        )
        # One instance for the whole chain: each block proposal and vote is
        # verified once per object, not once per recipient.
        self.crypto = crypto if crypto is not None else CryptoContext.pooled(
            config.n, master_seed=digest("stream-deployment", seed)
        ).instance(config)
        if len(byzantine_ids) > config.f:
            raise ValueError("too many Byzantine replicas")
        self.byzantine_ids: FrozenSet[ReplicaId] = frozenset(byzantine_ids)
        self.finalizations: Dict[ReplicaId, List[Block]] = {}

        self.replicas: Dict[ReplicaId, StreamReplica] = {}
        for r in range(config.n):
            if r in self.byzantine_ids:
                self.network.register(r, lambda _s, _m: None)
                continue
            transport = Transport(self.network, r)
            replica = StreamReplica(
                replica_id=r,
                config=config,
                crypto=self.crypto,
                transport=transport,
                epoch_duration=epoch_duration,
                max_epochs=max_epochs,
                on_finalize=self._record_finalize,
            )
            self.network.register(r, replica.on_message)
            self.replicas[r] = replica
        self._started = False

    def _record_finalize(self, replica: ReplicaId, chain: List[Block]) -> None:
        self.finalizations[replica] = chain

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for replica in self.replicas.values():
            replica.start()

    def run(
        self,
        min_finalized_height: int = 1,
        max_time: Optional[float] = None,
        max_events: int = 20_000_000,
    ) -> "StreamDeployment":
        """Run until every correct replica finalized at least the given
        height (or the epoch/time budget runs out)."""
        self.start()

        def done() -> bool:
            return all(
                r.finalized_height >= min_finalized_height
                for r in self.replicas.values()
            )

        self.sim.run(until=max_time, max_events=max_events, stop_when=done)
        return self

    # ------------------------------------------------------------------
    @property
    def correct_ids(self) -> FrozenSet[ReplicaId]:
        return frozenset(self.replicas)

    def min_finalized_height(self) -> int:
        return min(r.finalized_height for r in self.replicas.values())

    def chains_consistent(self) -> bool:
        """Every pair of finalized chains is prefix-compatible."""
        chains = [
            tuple(b.hash() for b in replica.finalized_chain)
            for replica in self.replicas.values()
        ]
        for a in chains:
            for b in chains:
                shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
                if longer[: len(shorter)] != shorter:
                    return False
        return True
