"""SMR deployment wiring and client helpers.

:class:`SMRDeployment` is the shared :class:`~repro.core.deployment.
Deployment` — simulator, coalescing network, crypto, ``run`` / ``close``
and the ``reference=True`` oracle switch — over replicas that host one
consensus instance per slot.  Its stack is the slot router
(:class:`~repro.smr.replica.SlotStacks`; :mod:`repro.smr.replica` has the
slot lifecycle: open, kernel-served, decided, retired), and its
``protocol`` is a registered protocol name: every slot instance is that
deployment's stack's ``replica_class`` (:func:`slot_stack_class`), in the
oracle too.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..config import ProtocolConfig
from ..core.deployment import ByzantineFactory, Deployment
from ..crypto.hashing import stable_encode
from ..errors import ConfigError
from ..net.latency import LatencyModel
from ..sync.timeouts import FixedTimeout, TimeoutPolicy
from ..types import ReplicaId, Value
from .app import StateMachine
from .replica import ByzantineSlotMultiplexer, SlotEnvelope, SlotStacks, SMRReplica

AppFactory = Callable[[], StateMachine]


def slot_stack_class(protocol: str) -> type:
    """The stack every slot of a ``protocol`` deployment runs: the registered
    deployment's ``stack_class``, whose ``replica_class`` is the slot
    protocol.  A protocol whose stack names no replica class cannot serve."""
    from ..harness.trial import deployment_factory

    try:
        stack_class = getattr(deployment_factory(protocol), "stack_class", None)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    if getattr(stack_class, "replica_class", None) is None:
        raise ConfigError(
            f"protocol {protocol!r} cannot serve slots: its stack names no "
            "replica class"
        )
    return stack_class


class SMRDeployment(Deployment):
    """A replicated state machine over ``n`` SMR replicas.

    The workload is client commands submitted to every replica (simulating
    clients that broadcast their requests, the standard BFT client
    behaviour); the deployment runs until every correct replica has applied
    ``num_slots`` slots (or a time/event bound is hit).

    ``byzantine`` is every deployment's seat map, ``{seat:
    factory(r, config, crypto, transport)}`` (the registered behaviours'
    :meth:`~repro.adversary.registry.ByzantineBehavior.byzantine_map`),
    each seat hosted by a :class:`~repro.smr.replica.ByzantineSlotMultiplexer`
    that calls its factory once per slot.  It must not exceed ``f`` members.
    ``protocol`` names the slot protocol (:func:`slot_stack_class`).

    ``batch_size`` / ``pipeline`` / ``max_pending`` are the serving hot-path
    knobs: commands per slot, concurrent slots in flight, and the pending
    backlog bound past which :meth:`submit_to_all` reports backpressure.
    """

    pool_label = "smr-deployment"

    def __init__(
        self,
        config: ProtocolConfig,
        app_factory: AppFactory,
        num_slots: int,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        byzantine: Optional[Mapping[ReplicaId, ByzantineFactory]] = None,
        pipeline: int = 1,
        batch_size: int = 1,
        max_pending: Optional[int] = None,
        eager_slots: bool = True,
        rotate_leaders: bool = False,
        protocol: str = "probft",
        *,
        reference: bool = False,
    ) -> None:
        if num_slots < 1:
            raise ConfigError(f"num_slots must be >= 1, got {num_slots}")
        self.num_slots = num_slots
        self.rotate_leaders = rotate_leaders
        self._slot_stack_class = slot_stack_class(protocol)
        self.applied: Dict[ReplicaId, List[Tuple[int, Value]]] = {}
        self._next_client_id = 0
        # Request-apply watchers by client id, held weakly (a client points
        # at its deployment): O(1) dispatch per applied command.
        self._apply_watchers: Dict[int, List[weakref.WeakMethod]] = {}
        self._app_factory = app_factory
        self._serving = dict(
            pipeline=pipeline,
            batch_size=batch_size,
            max_pending=max_pending,
            eager_slots=eager_slots,
        )

        def host(seat):
            return lambda r, config, crypto, transport: ByzantineSlotMultiplexer(
                r, crypto, transport, seat, pipeline, self.stack
            )

        super().__init__(
            config,
            seed,
            latency=latency,
            timeout_policy=timeout_policy or FixedTimeout(30.0),
            byzantine={r: host(seat) for r, seat in (byzantine or {}).items()},
            reference=reference,
        )
        # Correct replicas start before the Byzantine seats: both may send
        # at time 0, and ties go to whoever scheduled first.
        self.replicas = {**self.correct_replicas(), **self.replicas}

    # ------------------------------------------------------------------
    # Deployment hooks
    # ------------------------------------------------------------------
    def _new_stack(self) -> SlotStacks:
        # Nothing the router holds may point back at the deployment.
        return SlotStacks(
            self.config, self.num_slots, self.rotate_leaders, self.byzantine_ids,
            self._slot_stack_class, None if self.reference else self.crypto,
        )

    def _replica_factory(self, values, timeout_policy) -> Callable:
        # Nothing a replica holds may point back at the deployment, so
        # applies are recorded through a closure over these alone.
        applied, watchers, decode = self.applied, self._apply_watchers, self.stack.decode

        def record_apply(replica: ReplicaId, slot: int, value: Value) -> None:
            applied.setdefault(replica, []).append((slot, value))
            if not watchers:
                return
            for command, request in decode(value):
                if request is not None:
                    for ref in watchers.get(request[0], ()):
                        watcher = ref()
                        if watcher is not None:
                            watcher(replica, slot, command, request)

        self._record_apply = record_apply
        return lambda r, transport: SMRReplica(
            r,
            self.crypto,
            transport,
            self._app_factory(),
            stacks=self.stack,
            timeout_policy=timeout_policy,
            on_apply=record_apply,
            **self._serving,
        )

    def _install_stack(self) -> None:
        self.network.use_kernel({SlotEnvelope: self.stack}, self.stack.inspect)

    def watch_applies(
        self,
        client_id: int,
        watcher: Callable[[ReplicaId, int, Value, Tuple[int, int, Value]], None],
    ) -> None:
        """Subscribe to applies of requests enveloped for ``client_id``.

        ``watcher(replica, slot, command, (client_id, seq, payload))`` — a
        bound method, held weakly — fires once per replica apply of each
        matching request for as long as its object lives.
        """
        self._apply_watchers.setdefault(client_id, []).append(
            weakref.WeakMethod(watcher)
        )

    # ------------------------------------------------------------------
    def allocate_client_id(self) -> int:
        """Hand out the next unused client id (deployment-scoped)."""
        cid = self._next_client_id
        self._next_client_id += 1
        return cid

    def submit_to_all(self, command: Value) -> bool:
        """A client broadcasts one command to every replica.

        Returns ``False`` — and submits to *no* replica — when any replica's
        pending queue is full (``max_pending``).  All-or-nothing matters:
        partial submission would leave replica queues divergent, so
        backpressure rejects the request wholesale and the client retries.
        """
        replicas = self.correct_replicas().values()
        if any(
            replica.max_pending is not None
            and replica.pending_commands >= replica.max_pending
            for replica in replicas
        ):
            for replica in replicas:
                replica._rejected_submits += 1
            return False
        for replica in replicas:
            accepted = replica.submit(command)
            assert accepted, "per-replica submit cannot fail after the gate"
        return True

    # ------------------------------------------------------------------
    def all_applied(self) -> bool:
        """Every correct replica has applied every slot (what ``run`` runs
        until): the retirement watermark has reached the last slot."""
        return self.stack.retired >= self.num_slots

    all_correct_decided = all_applied

    def logs_consistent(self) -> bool:
        """All correct replicas applied identical command *prefixes*.

        Replicas stopped mid-run (a serving workload halts when its request
        budget completes, not at ``all_applied``) may lag each other in how
        far they have applied — that is liveness, not a safety violation.
        The agreement property is that the applied sequences agree on their
        common prefix; after a full run (equal lengths) this is the original
        whole-log comparison.
        """
        logs = [
            tuple(
                replica.log.value_of(s)
                for s in range(1, replica.log.applied_up_to + 1)
            )
            for replica in self.correct_replicas().values()
        ]
        if not logs:
            return True
        shortest = min(len(log) for log in logs)
        return len({log[:shortest] for log in logs}) <= 1

    def snapshots(self) -> Dict[ReplicaId, object]:
        return {
            r: rep.log.app.snapshot() for r, rep in self.correct_replicas().items()
        }

    def snapshots_consistent(self) -> bool:
        """All correct replicas' app snapshots are semantically equal.

        Compares canonical encodings (:func:`~repro.crypto.hashing.
        stable_encode`), not ``repr`` — two equal snapshots that differ
        only in container iteration order (dict insertion order, set
        ordering) must compare equal.
        """
        encodings = {
            stable_encode(snapshot) for snapshot in self.snapshots().values()
        }
        return len(encodings) <= 1
