"""Deployment wiring: run a ProBFT consensus instance on a simulated network.

:class:`ProBFTDeployment` builds the simulator, network, crypto context and
``n`` replicas (honest by default; Byzantine replicas are supplied as
factories from :mod:`repro.adversary`), then drives the run until all correct
replicas decide (or a time/event budget runs out).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.hashing import digest
from ..net.faults import ChaosPolicy
from ..net.latency import LatencyModel
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.transport import Transport
from ..sync.timeouts import TimeoutPolicy
from ..types import Decision, ReplicaId, Value
from .replica import ProBFTReplica

#: Factory building a Byzantine replica endpoint.  The returned object must
#: expose ``start()`` and ``on_message(src, message)``.
ByzantineFactory = Callable[[ReplicaId, ProtocolConfig, CryptoContext, Transport], object]


def default_value(replica: ReplicaId) -> Value:
    """Distinct per-replica proposal used when the caller supplies none."""
    return f"value-{replica}".encode()


def _is_pure_constant(latency: Optional[LatencyModel]) -> bool:
    """Exactly the default/ConstantLatency model (no subclass surprises)."""
    from ..net.latency import ConstantLatency

    return latency is None or type(latency) is ConstantLatency


def _is_no_chaos(chaos: Optional[ChaosPolicy]) -> bool:
    from ..net.faults import NoChaos

    return chaos is None or type(chaos) is NoChaos


class ProBFTDeployment:
    """One consensus instance: n replicas, a network, and a clock.

    Example:
        >>> from repro.config import ProtocolConfig
        >>> dep = ProBFTDeployment(ProtocolConfig(n=20, f=3))
        >>> result = dep.run()
        >>> dep.agreement_ok and dep.all_correct_decided()
        True
    """

    def __init__(
        self,
        config: ProtocolConfig,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        gst: float = 0.0,
        chaos: Optional[ChaosPolicy] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        values: Optional[Dict[ReplicaId, Value]] = None,
        byzantine: Optional[Dict[ReplicaId, ByzantineFactory]] = None,
        trace: bool = False,
        duplicate_prob: float = 0.0,
        track_bytes: bool = False,
        crypto: Optional[CryptoContext] = None,
        sparse: bool = False,
        dissemination: str = "dense",
        gossip_fanout: Optional[int] = None,
        gossip_rounds: Optional[int] = None,
        columnar: bool = False,
    ) -> None:
        if dissemination not in ("dense", "gossip"):
            raise ValueError(
                f"dissemination must be 'dense' or 'gossip', got {dissemination!r}"
            )
        self.config = config
        self.seed = seed
        self.columnar = columnar
        if columnar:
            try:
                from . import columnar as _columnar_mod
            except ImportError as exc:  # pragma: no cover - env-dependent
                raise RuntimeError(
                    "columnar=True requires numpy, which is not installed; "
                    "install numpy or build the deployment without columnar"
                ) from exc
        else:
            _columnar_mod = None
        # Pure-model fast path: with constant latency, no chaos and no
        # duplication the event stream is the one _sparse_dispatch already
        # single-buckets, so the columnar deployment also swaps in the
        # structured-array ring queue (fire order identical to heap/bucket).
        if columnar and (
            duplicate_prob == 0.0
            and _is_pure_constant(latency)
            and _is_no_chaos(chaos)
        ):
            self.sim = Simulator(queue="ring")
        else:
            self.sim = Simulator()
        self.network = Network(
            self.sim,
            config.n,
            latency=latency,
            gst=gst,
            chaos=chaos,
            duplicate_prob=duplicate_prob,
            duplicate_seed=seed,
            track_bytes=track_bytes,
        )
        # Same-seed trials share one pooled (immutable) key registry instead
        # of re-deriving n key pairs; pass ``crypto=`` to override.
        self.crypto = crypto if crypto is not None else CryptoContext.pooled(
            config.n, master_seed=digest("deployment", seed)
        )
        self.decisions: Dict[ReplicaId, Decision] = {}

        byzantine = byzantine or {}
        if len(byzantine) > config.f:
            raise ValueError(
                f"{len(byzantine)} Byzantine replicas exceeds f={config.f}"
            )
        self.byzantine_ids: FrozenSet[ReplicaId] = frozenset(byzantine)
        self._correct_ids: FrozenSet[ReplicaId] = (
            frozenset(range(config.n)) - self.byzantine_ids
        )
        values = values or {}

        # Shared columnar vote state: one set of arrays for every correct
        # replica; the per-replica collector tables become facades over it.
        if columnar:
            self._columnar_state = _columnar_mod.ColumnarVoteState(
                config.n, config.q, self._correct_ids
            )
        else:
            self._columnar_state = None

        self.dissemination = dissemination
        if dissemination == "gossip":
            from ..net.gossip import GossipDisseminator

            self.disseminator: Optional[object] = GossipDisseminator(
                self.network,
                config.n,
                seed,
                fanout=gossip_fanout,
                rounds=gossip_rounds,
                byzantine_ids=self.byzantine_ids,
            )
        else:
            self.disseminator = None

        self.replicas: Dict[ReplicaId, object] = {}
        for r in range(config.n):
            transport = Transport(self.network, r)
            if self.disseminator is not None:
                transport.use_disseminator(self.disseminator)
            if r in byzantine:
                replica = byzantine[r](r, config, self.crypto, transport)
            else:
                replica = ProBFTReplica(
                    replica_id=r,
                    config=config,
                    crypto=self.crypto,
                    transport=transport,
                    my_value=values.get(r, default_value(r)),
                    timeout_policy=timeout_policy,
                    on_decide=self._record_decision,
                    trace=trace,
                    columnar_state=self._columnar_state,
                )
            handler = replica.on_message
            if self.disseminator is not None:
                # Gossip hops travel as unicast envelopes and therefore hit
                # the registered handler directly in both dense and sparse
                # delivery modes; the wrapper unwraps (and, for correct
                # recipients, relays) before the protocol sees the payload.
                handler = self.disseminator.wrap_handler(r, handler)
            self.network.register(r, handler)
            self.replicas[r] = replica
        self.sparse = sparse
        if sparse:
            from .observation import SampleObservationPolicy
            from .replica import BulkVoteDispatch

            policy = SampleObservationPolicy(
                config, self.byzantine_ids, self.replicas
            )
            self.network.use_delivery_policy(policy)
            for r in self._correct_ids:
                self.network.register_batch(
                    r, self.replicas[r].on_sample_message
                )
            if columnar:
                # BulkVoteDispatch reaches into dense collector internals
                # the facades don't have; columnar deployments must install
                # the array-at-a-time kernel instead.
                self.network.use_bulk_handler(
                    _columnar_mod.ColumnarVoteDispatch(
                        config,
                        self.crypto,
                        self.replicas,
                        self._correct_ids,
                        self.network._handlers,
                        policy,
                        self._columnar_state,
                        dup_possible=duplicate_prob > 0.0,
                    )
                )
            else:
                self.network.use_bulk_handler(
                    BulkVoteDispatch(
                        config,
                        self.crypto,
                        self.replicas,
                        self._correct_ids,
                        self.network._handlers,
                        policy,
                    )
                )
        self._started = False

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for replica in self.replicas.values():
            replica.start()

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: int = 5_000_000,
        stop_when_decided: bool = True,
    ) -> "ProBFTDeployment":
        """Run until every correct replica decides (or a budget runs out)."""
        self.start()
        stop = self.all_correct_decided if stop_when_decided else None
        # Sparse fan-outs probe this between coalesced deliveries so they
        # keep dense mode's per-delivery stop granularity.
        self.network.stop_probe = stop
        self.sim.run(until=max_time, max_events=max_events, stop_when=stop)
        return self

    def _record_decision(self, decision: Decision) -> None:
        self.decisions[decision.replica] = decision

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def correct_ids(self) -> FrozenSet[ReplicaId]:
        return self._correct_ids

    def correct_replicas(self) -> Dict[ReplicaId, ProBFTReplica]:
        return {
            r: replica
            for r, replica in self.replicas.items()
            if r in self.correct_ids
        }

    def all_correct_decided(self) -> bool:
        # Decisions are recorded by correct replicas only, so a length check
        # suffices — this runs between every pair of deliveries (stop_when /
        # stop_probe) and must be O(1), not O(n).
        return len(self.decisions) >= len(self._correct_ids)

    def decided_values(self) -> Set[Value]:
        """Distinct values decided by *correct* replicas."""
        return {
            d.value for r, d in self.decisions.items() if r in self.correct_ids
        }

    @property
    def agreement_ok(self) -> bool:
        """True iff correct replicas decided at most one distinct value."""
        return len(self.decided_values()) <= 1

    @property
    def max_decision_view(self) -> int:
        views = [
            d.view for r, d in self.decisions.items() if r in self.correct_ids
        ]
        return max(views, default=0)
