"""The deployment base every protocol — and the SMR service — subclasses.

:class:`Deployment` builds the simulator, network, crypto context and ``n``
replicas (honest by default; Byzantine replicas are supplied as factories
from :mod:`repro.adversary`), then drives the run until its stop condition
holds (or a time/event budget runs out).  A protocol supplies its honest
replica class, a key-pool label and its :class:`InstanceStack`; the SMR
service (:class:`repro.smr.service.SMRDeployment`) supplies replicas that
host one consensus instance per slot and a router over one stack per slot.

Every deployment with a :attr:`~Deployment.stack_class` (all but
streamlined ProBFT, which has no synchronizer) gives the network its
instance's kernel table
(:meth:`Network.use_kernel <repro.net.network.Network.use_kernel>`), the one
seam between the two: fan-outs are delivered coalesced (one simulator
event per distinct delivery time), each bucket goes to the kernel of its
message kind, and a kind with no kernel — a proposal, a NewLeader — and a
bucket a kernel declines are delivered whole, per recipient.  Every stack
maps ``Wish`` to the one wish kernel over synchronizer columns shared by
the instance's correct replicas (:mod:`repro.sync.columns`); ProBFT and
PBFT map their votes to the vote kernel, whose ``inspect`` hook sees every
send (:class:`repro.core.protocol.ProBFTStack`; HotStuff's votes are
unicasts to the leader and stay with its handlers).  ``reference=True``
builds the test oracle instead: per-recipient delivery, per-message
handlers, per-replica wish ledgers, set-based quorum collectors — Algorithm
1 with nothing batched, and a table-free crypto context, so every check is
recomputed for every recipient.  The identity suite
(``tests/test_reference_identity.py``) pins the two to equal results, for
single-shot trials and for serving; :meth:`Deployment.vote_kernel_stats`
says which route each bucket took.

Every production instance validates through one verdict table
(:mod:`repro.crypto.verdicts`): whatever a recipient checks about a message
that does not depend on the recipient is computed once per message object.
The table lives as long as the instance — a single-shot deployment's is
cleared in :meth:`Deployment.close`, an SMR slot's when the slot retires.

A deployment owns its replica graph and takes it apart
(:meth:`Deployment.close`) when its last holder lets go of it, so every
trial frees its own memory at its own end instead of leaving a reference
cycle for some later trial's full collection.  Nothing inside the graph may
therefore point at the deployment itself — and a caller who wants to look at
replicas, handlers or pending events keeps the deployment, not a part of it.
"""

from __future__ import annotations

from functools import partial
from operator import not_
from typing import Callable, Dict, FrozenSet, Optional, Set

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.hashing import digest
from ..net.faults import ChaosPolicy
from ..net.latency import LatencyModel
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.transport import Transport
from ..sync.columns import WishDispatch
from ..sync.synchronizer import Wish
from ..sync.timeouts import TimeoutPolicy
from ..types import Decision, ReplicaId, Value
from .columnar import ColumnarVoteDispatch

#: Factory building a Byzantine replica endpoint.  The returned object must
#: expose ``start()`` and ``on_message(src, message)``.
ByzantineFactory = Callable[[ReplicaId, ProtocolConfig, CryptoContext, Transport], object]


#: The keys of :meth:`Deployment.vote_kernel_stats`: each kernel's route
#: counters, then the verdict table's.
KERNEL_STATS = (
    ColumnarVoteDispatch.stat_names
    + WishDispatch.stat_names
    + ("propose_validations", "validated", "validated_reused")
)


def default_value(replica: ReplicaId) -> Value:
    """Distinct per-replica proposal used when the caller supplies none."""
    return f"value-{replica}".encode()


class InstanceStack:
    """One consensus instance's share of a coalescing network: the correct
    replicas that have joined it, its kernel table and its ``inspect`` hook
    (the network's :meth:`~repro.net.network.Network.use_kernel`; here
    ``Wish`` -> the wish kernel, and no hook).

    A single-shot deployment holds one, joined by every correct replica at
    construction; the SMR service holds one per open slot, joined by each
    replica as it opens the slot.  ``handlers`` are the instance's plain
    handlers (what its Byzantine seats are handed); ``crypto`` is the
    instance's view of the deployment's keys, with the instance's verdict
    table.
    """

    #: Extra constructor arguments of the instance's honest replicas.
    replica_kwargs: dict = {}

    def __init__(self, config, crypto, correct_ids, handlers) -> None:
        self.config = config
        self.crypto = crypto
        self.replicas: Dict[ReplicaId, object] = {}
        self.wishes = WishDispatch(config.n, config.f, crypto.signatures, {}, handlers)
        self.kernels: Dict[type, Callable] = {Wish: self.wishes}
        self.inspect: Optional[Callable] = None

    def join(self, replica_id: ReplicaId, replica) -> None:
        """A correct replica (not yet started) joins: its synchronizer moves
        onto the instance's shared columns."""
        self.replicas[replica_id] = replica
        self.wishes.attach(replica_id, replica.synchronizer)

    def stats(self) -> Dict[str, int]:
        stats: Dict[str, int] = {}
        for kernel in self.kernels.values():
            stats.update(kernel.stats())
        return stats

    def retire(self) -> None:
        """The instance is over: stop pinning what it validated, and cut
        the edge that keeps the stack in a reference cycle (safe from
        inside one of the stack's own kernel calls)."""
        self.crypto.verdicts.clear()
        self.wishes.detach()

    def detach(self) -> None:
        """Forget the replicas (teardown): they point at the network, whose
        kernel table points here."""
        self.replicas.clear()
        self.retire()


class Deployment:
    """n replicas, a network, and a clock — by default one consensus instance.

    Subclasses set :attr:`replica_class` (constructed with ``replica_id``,
    ``config``, ``crypto``, ``transport``, ``my_value``, ``timeout_policy``,
    ``on_decide`` plus :meth:`_replica_kwargs`), :attr:`pool_label` and
    :attr:`stack_class`.
    """

    replica_class: type
    #: Domain label of the pooled key registry (distinct per protocol).
    pool_label: str
    #: ``None``: no instance stack, so delivery is per recipient, as the
    #: oracle's (a protocol with no synchronizer for the wish kernel).
    stack_class: Optional[type] = InstanceStack

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
        duplicate_prob: float = 0.0,
        track_bytes: bool = False,
        crypto: Optional[CryptoContext] = None,
        *,
        reference: bool = False,
    ) -> None:
        self.config = config
        self.seed = seed
        self.reference = reference
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
        # Same-seed deployments alive at once share one pooled (immutable)
        # key registry instead of re-deriving n key pairs; ``crypto=``
        # overrides.  The production stack validates through its own verdict
        # table; the oracle's context stays table-free.
        if crypto is None:
            crypto = CryptoContext.pooled(
                config.n, master_seed=digest(self.pool_label, seed)
            )
        self.crypto = crypto if reference else crypto.instance(config)
        self.decisions: Dict[ReplicaId, Decision] = {}
        self.replicas: Dict[ReplicaId, object] = {}

        byzantine = byzantine or {}
        if len(byzantine) > config.f:
            raise ValueError(
                f"{len(byzantine)} Byzantine replicas exceeds f={config.f}"
            )
        self.byzantine_ids: FrozenSet[ReplicaId] = frozenset(byzantine)
        self._correct_ids: FrozenSet[ReplicaId] = (
            frozenset(range(config.n)) - self.byzantine_ids
        )
        self._undecided: Set[ReplicaId] = set(self._correct_ids)
        self.stack = self._new_stack()
        build = self._replica_factory(values or {}, timeout_policy)
        for r in range(config.n):
            transport = Transport(self.network, r)
            if r in byzantine:
                replica = byzantine[r](r, config, self.crypto, transport)
            else:
                replica = build(r, transport)
            self.network.register(r, replica.on_message)
            self.replicas[r] = replica
        if not reference and self.stack_class is not None:
            self._install_stack()
        self._started = False

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _new_stack(self) -> Optional[InstanceStack]:
        """The production stack the replicas are built against (``None`` for
        the oracle and without a ``stack_class``); called once network and
        crypto exist."""
        if self.reference or self.stack_class is None:
            return None
        return self.stack_class(
            self.config, self.crypto, self._correct_ids, self.network._handlers
        )

    def _replica_factory(self, values, timeout_policy) -> Callable:
        """``build(replica_id, transport)`` for the honest replicas."""
        # Nothing a replica holds may point back at the deployment (see
        # ``close``), so decisions are recorded through the dict and set alone.
        decisions, undecided = self.decisions, self._undecided

        def record_decision(decision: Decision) -> None:
            decisions[decision.replica] = decision
            undecided.discard(decision.replica)

        replica_kwargs = self._replica_kwargs()
        return lambda r, transport: self.replica_class(
            replica_id=r,
            config=self.config,
            crypto=self.crypto,
            transport=transport,
            my_value=values.get(r, default_value(r)),
            timeout_policy=timeout_policy,
            on_decide=record_decision,
            **replica_kwargs,
        )

    def _replica_kwargs(self) -> dict:
        """Extra keyword arguments for every honest replica (called once,
        after network, crypto and stack exist, before any replica is built)."""
        return dict(self.stack.replica_kwargs) if self.stack is not None else {}

    def _install_stack(self) -> None:
        """Put the production stack on the network (skipped by the oracle)."""
        for r in self._correct_ids:
            self.stack.join(r, self.replicas[r])
        self.network.use_kernel(self.stack.kernels, self.stack.inspect)

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
    ) -> "Deployment":
        """Run until every correct replica is done (or a budget runs out)."""
        stop = self.all_correct_decided if stop_when_decided else None
        return self.run_until(stop, max_time, max_events)

    def run_until(
        self,
        stop: Optional[Callable[[], bool]],
        max_time: Optional[float] = None,
        max_events: int = 5_000_000,
    ) -> "Deployment":
        """Run until ``stop()`` holds (or a budget runs out)."""
        self.start()
        # Coalesced fan-outs probe this between deliveries, which keeps the
        # per-delivery stop granularity of the per-recipient loop.
        self.network.stop_probe = stop
        try:
            self.sim.run(until=max_time, max_events=max_events, stop_when=stop)
        finally:
            self.network.stop_probe = None
        return self

    def close(self) -> None:
        """Take the replica graph apart; the deployment cannot run again.

        Replicas, synchronizers, transports, the network's handler tables
        and pending timers all point at one another, so a finished
        deployment is one big reference cycle that only a full collection
        frees: a sweep then piles up dead deployments until the collector
        stops some later trial for as long as it takes to free them all.
        Cutting the few edges that close the cycles lets plain reference
        counting free everything as the deployment goes away.  What a
        caller may still hold stays readable: decisions, ``network.stats``,
        the simulator's clock and counters, :meth:`vote_kernel_stats`, and
        each (stopped) replica's own state.
        """
        for replica in self.replicas.values():
            stop = getattr(replica, "stop", None)
            if stop is not None:
                stop()
        self.replicas.clear()
        self.sim.clear()
        self.network.disconnect()
        if self.stack is not None:
            self.stack.detach()

    def __del__(self) -> None:
        # Nothing inside points at the deployment, so this runs as soon as
        # the last caller lets go of it — not whenever the collector gets
        # round to it.
        if "_started" in self.__dict__:  # fully constructed
            self.close()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def vote_kernel_stats(self) -> Dict[str, int]:
        """Which route each bucket took (all zero for the oracle).

        ``vectorised`` / ``walked`` / ``declined``: vote buckets applied
        by the vote kernel's array pass or its scalar walk, or declined to
        the per-recipient loop; ``vote_passes``: the array
        passes that applied the ``vectorised`` ones, a group of same-time
        buckets each; ``vote_chains``: the scalar walks that applied the
        ``walked`` ones, whatever their recipient count.  ``wish_vectorised`` / ``wish_scalar`` / ``wish_declined``:
        Wish buckets applied by the wish kernel's array pass or its
        scalar walk, or declined to the per-recipient loop (only by the
        SMR router, for a recipient that has not opened the slot);
        ``wish_passes`` / ``wish_walks``: the passes and walks that applied
        them.  A network's copies ride the kernels like any vote or Wish: a
        repeated one fails the recipient's seen-bit test.
        ``validated`` / ``validated_reused``: recipient-independent checks
        (signatures, VRF proofs, vote tokens, proposals, NewLeaders,
        certificates) that were computed / answered from the verdict table,
        summed over every instance of the deployment;
        ``propose_validations`` is the ``safeProposal`` share of
        ``validated`` (one per distinct Propose object).  The per-kind
        split is ``deployment.crypto.verdicts.counts``.
        """
        stats = dict.fromkeys(KERNEL_STATS, 0)
        if self.stack is not None:
            stats.update(self.stack.stats())
        table = self.crypto.verdicts
        if table is not None:
            stats["validated"], stats["validated_reused"] = table.counts.totals()
            stats["propose_validations"] = table.counts.computed.get("propose", 0)
        return stats

    @property
    def correct_ids(self) -> FrozenSet[ReplicaId]:
        return self._correct_ids

    def correct_replicas(self) -> Dict[ReplicaId, object]:
        return {
            r: replica
            for r, replica in self.replicas.items()
            if r in self.correct_ids
        }

    @property
    def all_correct_decided(self) -> Callable[[], bool]:
        """``all_correct_decided()``: what :meth:`run` stops on, at every
        delivery boundary; a call with no Python frame."""
        return partial(not_, self._undecided)

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
