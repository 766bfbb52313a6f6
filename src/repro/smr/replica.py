"""The SMR replica: per-slot consensus instances multiplexed over one transport.

Each slot runs the deployment's slot protocol — the honest replica class
of its stack (:attr:`SlotStacks.protocol`: ProBFT, or PBFT on the same
skeleton).  Every outbound message of slot ``k``'s instance is wrapped in a
:class:`SlotEnvelope`; inbound envelopes are routed to the right slot
instance (creating it on demand, within a bounded look-ahead window).  Each
slot instance runs with ``seed_domain = "slot-k"`` so its signed statements,
VRF samples, and synchronizer wishes are useless in any other slot.

A slot is a consensus *instance* on the deployment's one stack
(:class:`SlotStacks`), and goes through four states:

* **open** — the first replica (or Byzantine seat) to touch slot ``k``
  builds its :class:`~repro.core.deployment.InstanceStack`, with the
  slot's own view of the deployment's crypto and so its own verdict table;
  every replica that opens the slot joins it (shared vote columns, shared
  synchronizer columns) with a fresh instance.
* **kernel-served** — a coalesced fan-out for the slot is unwrapped once and
  handed to the kernel of its kind in the slot's table as a bucket.  A
  bucket with a recipient that has not opened the slot is *declined and
  counted*: it takes the per-recipient loop, where each replica applies its
  own look-ahead window.
* **decided** — a replica that decides the slot stops its instance (no more
  view timers) and applies the value in slot order.
* **retired** — once every correct replica has applied the slot, its stack
  is dropped, its verdict table emptied (a retired slot pins none of its
  messages) and each replica keeps only a :class:`SlotRecord` record; a
  late envelope for it is dropped, as the stopped instances dropped it.

Proposal values come from a local pending-command queue; a leader with an
empty queue proposes :data:`~repro.smr.app.NOOP`.  With ``batch_size > 1``
a proposal packs up to that many queued commands into one slot value
(:func:`~repro.smr.encoding.encode_batch`) — leader-side aggregation, the
lever that amortizes a full consensus instance over many client requests.
Decided commands are applied strictly in slot order through
:class:`~repro.smr.log.DecisionLog`.

With ``pipeline > 1`` a replica keeps that many slots in flight at once —
the latency of consecutive slots overlaps, trading memory and message burst
for throughput (each slot remains an independent consensus instance, so
safety is untouched).  ``max_pending`` bounds the pending-command queue:
once the backlog exceeds what the open slot window can drain, ``submit``
reports backpressure instead of queueing unboundedly — closed-loop clients
back off and retry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Set

from ..config import ProtocolConfig
from ..core.deployment import KERNEL_STATS, InstanceStack
from ..crypto.context import CryptoContext
from ..messages.base import CanonicalMessage, conforms
from ..net.transport import Transport
from ..sync.timeouts import TimeoutPolicy
from ..types import Decision, ReplicaId, Value
from .app import NOOP, StateMachine
from .encoding import SlotValueDecoder, encode_batch
from .log import DecisionLog

#: How many slots ahead of the last locally decided slot we are willing to
#: instantiate (guards memory against Byzantine far-future envelopes).
SLOT_WINDOW = 4


def slot_leader_offset(slot: int, n: int, rotate_leaders: bool) -> int:
    """The ``leader_offset`` carried by slot ``slot``'s protocol config.

    Fixed mode (the default) gives every slot offset 0 — replica 0 leads
    view 1 of every slot, the historical behaviour.  Rotating mode gives
    slot ``s`` offset ``(s + 1) mod n`` so its view-``v`` leader is
    ``(v + s) mod n``: slot leadership round-robins and a Byzantine seat
    only leads ~1/n of the slots.
    """
    return (slot + 1) % n if rotate_leaders else 0


@dataclass(frozen=True)
class SlotEnvelope(CanonicalMessage):
    """Wraps one slot's protocol message for transport-level multiplexing."""

    TYPE = "SlotEnvelope"

    slot: int
    inner: object  # checked by the slot's instance, against its own types


class SlotRecord(NamedTuple):
    """What a replica keeps of a decided slot once it lets go of the
    instance (retirement, or deployment teardown)."""

    config: ProtocolConfig
    decision: Decision


def _drop(slot: int, src: ReplicaId, message: object) -> None:
    """A silent Byzantine seat's share of a slot's traffic."""


class SlotStacks:
    """The slots of one SMR deployment, and the router in front of them.

    Shared by the deployment's replicas and Byzantine seats: it hands out
    slot configs and the slot protocol, holds one ``stack_class`` instance
    per open slot over a per-slot view of ``crypto`` (``None`` — the
    oracle — means per-message instances and no stacks), and retires a
    slot when its last correct replica has applied it.  As the network's
    kernel for :class:`SlotEnvelope` it unwraps the send or the bucket and
    routes it through the slot stack's own table and hook, as the network
    routes a single-shot instance's.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        num_slots: int,
        rotate_leaders: bool,
        byzantine_ids,
        stack_class: type,
        crypto: Optional[CryptoContext],
    ) -> None:
        self.config = config
        self.num_slots = num_slots
        self.rotate_leaders = rotate_leaders
        #: The honest replica class every slot instance is built from (its
        #: Byzantine seats speak the same dialect).
        self.protocol = stack_class.replica_class
        #: Every slot up to here has been applied by every correct replica.
        self.retired = 0
        self.stacks: Dict[int, InstanceStack] = {}
        #: Byzantine seat -> ``deliver(slot, src, inner)`` (absent: silent).
        self.seats: Dict[ReplicaId, Callable] = {}
        #: One decoded tuple per distinct slot value, for every replica.
        self.decode = SlotValueDecoder()
        self._byzantine = frozenset(byzantine_ids)
        self._correct_ids = frozenset(range(config.n)) - self._byzantine
        self._correct = len(self._correct_ids)
        self._stack_class = stack_class
        self._crypto = crypto
        self._applied: Dict[int, int] = {}  # slot -> correct replicas done
        self._stats = dict.fromkeys(KERNEL_STATS, 0)  # of stacks let go of

    def slot_of(self, message: object) -> Optional[int]:
        """The slot of an envelope a host should still look at."""
        if conforms(message, SlotEnvelope):
            slot = message.slot
            if self.retired < slot <= self.num_slots:
                return slot
        return None

    def slot_config(self, slot: int) -> ProtocolConfig:
        return self.config.with_params(
            seed_domain=f"slot-{slot}",
            leader_offset=slot_leader_offset(slot, self.config.n, self.rotate_leaders),
        )

    def open(self, slot: int) -> Optional[InstanceStack]:
        """The stack of a (live) slot, built by whoever asks first."""
        stack = self.stacks.get(slot)
        if stack is None and self._crypto is not None:
            seats = self.seats
            handlers = {b: partial(seats.get(b, _drop), slot) for b in self._byzantine}
            config = self.slot_config(slot)
            # Each slot validates through its own table, which goes when the
            # slot retires.
            stack = self.stacks[slot] = self._stack_class(
                config, self._crypto.instance(config), self._correct_ids, handlers
            )
        return stack

    def seat(self, slot: int, crypto: CryptoContext):
        """``(stack, config, crypto)`` one seat of slot ``slot`` runs on: the
        stack's own config and crypto view (and so its verdict table) when
        there are stacks, a slot config over the seat's ``crypto`` if not."""
        stack = self.open(slot)
        if stack is None:
            return None, self.slot_config(slot), crypto
        return stack, stack.config, stack.crypto

    def note_applied(self, slot: int) -> None:
        """One more correct replica applied ``slot`` (each applies in slot
        order, so slots fill up in order too); the last one retires it."""
        count = self._applied.get(slot, 0) + 1
        if count < self._correct:
            self._applied[slot] = count
            return
        self._applied.pop(slot, None)
        self.retired = slot
        stack = self.stacks.pop(slot, None)
        if stack is not None:
            # Possibly from inside one of the stack's own kernel calls.
            self._fold(stack, self._stats)
            stack.retire()

    def sweep(self, slots: Dict[int, object]) -> None:
        """Drop the retired slots' entries from one host's slot table."""
        for slot in [s for s in slots if s <= self.retired]:
            del slots[slot]

    @staticmethod
    def _fold(stack: InstanceStack, total: Dict[str, int]) -> None:
        for key, value in stack.stats().items():
            total[key] += value

    def stats(self) -> Dict[str, int]:
        """Route counters summed over every slot, retired ones included."""
        total = dict(self._stats)
        for stack in self.stacks.values():
            self._fold(stack, total)
        return total

    def detach(self) -> None:
        """Deployment teardown: let go of stacks (their handlers point at
        the seats, which point here), seats and decoded values."""
        for stack in self.stacks.values():
            self._fold(stack, self._stats)
            stack.detach()
        self.stacks.clear()
        self.seats.clear()
        self.decode.clear()

    # The router: the network's one kernel, for every SlotEnvelope.
    def inspect(self, src: ReplicaId, message: object) -> None:
        slot = self.slot_of(message)
        if slot is not None:
            inspect = self.open(slot).inspect
            if inspect is not None:
                inspect(src, message.inner)

    def __call__(self, run, pos, probe, advance) -> tuple:
        src, message, dsts = run[pos]
        slot = self.slot_of(message)
        if slot is None:
            return (0,)  # retired or malformed: every recipient drops it
        stack = self.open(slot)
        # (``message_kind`` of the unwrapped message, inline: asked per call.)
        kind = getattr(message.inner, "payload", message.inner).__class__
        kernel = stack.kernels.get(kind)
        if kernel is None:
            return (-1,)  # delivered whole, as the slot's own table says
        joined, byzantine = stack.replicas, self._byzantine
        everyone = len(joined) == self._correct
        # The slot's consecutive buckets, unwrapped, for its kernel to group:
        # up to the first with a recipient that has not opened the slot (it
        # may be outside that replica's window), which is declined at its
        # turn — the replica decides for itself.
        inner = []
        while everyone or all(d in joined or d in byzantine for d in dsts):
            inner.append((src, message.inner, dsts))
            if pos + len(inner) == len(run):
                break
            src, message, dsts = run[pos + len(inner)]
            if self.slot_of(message) != slot:
                break
        if not inner:
            kernel.declined += 1
            return (-1,)
        # A stop may retire the slot (its last replica applied it): the
        # buckets after that one are the retired-slot case above.
        return kernel(
            inner, 0, probe, lambda k: slot > self.retired and advance(pos + k)
        )


class _SlotTransport(Transport):
    """A replica's transport as one slot sees it: everything outbound is
    wrapped in a :class:`SlotEnvelope`."""

    def __init__(self, base: Transport, slot: int) -> None:
        super().__init__(base._network, base.replica)
        self._slot = slot

    def send(self, dst: ReplicaId, message: object) -> None:
        super().send(dst, SlotEnvelope(self._slot, message))

    def multicast(self, targets, message: object) -> None:
        super().multicast(targets, SlotEnvelope(self._slot, message))

    def broadcast(self, message: object, include_self: bool = False) -> None:
        super().broadcast(SlotEnvelope(self._slot, message), include_self)


class SMRReplica:
    """A replica of the replicated state machine: one instance of
    ``stacks.protocol`` per slot it opens."""

    def __init__(
        self,
        replica_id: ReplicaId,
        crypto: CryptoContext,
        transport: Transport,
        app: StateMachine,
        stacks: SlotStacks,
        timeout_policy: Optional[TimeoutPolicy] = None,
        on_apply: Optional[Callable[[ReplicaId, int, Value], None]] = None,
        pipeline: int = 1,
        batch_size: int = 1,
        max_pending: Optional[int] = None,
        eager_slots: bool = True,
    ) -> None:
        self.id = replica_id
        self._crypto = crypto
        self._transport = transport
        self._timeout_policy = timeout_policy
        #: ``on_apply(replica, slot, value)``, once per applied slot.
        self._on_apply = on_apply
        if pipeline < 1:
            raise ValueError(f"pipeline must be >= 1, got {pipeline}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        #: The deployment's slot budget (the slot configs come from
        #: ``stacks`` too).
        self.num_slots = stacks.num_slots
        self.pipeline = pipeline
        self.batch_size = batch_size
        self.max_pending = max_pending
        #: Eager mode (the default) keeps ``pipeline`` slots open at all
        #: times, proposing NOOP when idle — right for fixed-workload runs
        #: driven to ``all_applied``.  Demand-driven mode (the serving
        #: setting) opens a slot only when there are pending commands (or
        #: inbound traffic for it): an idle deployment burns no slots.
        self.eager_slots = eager_slots
        self._stacks = stacks
        self.log = DecisionLog(app, stacks.decode)
        self._pending: Deque[Value] = deque()
        self._slots: Dict[int, object] = {}
        self._records: Dict[int, SlotRecord] = {}
        self._slot_values: Dict[int, Value] = {}
        # Commands already ordered by some decided slot.
        self._ordered: Set[Value] = set()
        self._rejected_submits = 0
        self._highest_opened = 0
        self._open_undecided = 0
        self._started = False

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------
    def submit(self, command: Value) -> bool:
        """Queue a command for ordering (call on any/every replica).

        Returns ``False`` — backpressure — when ``max_pending`` is set and
        the pending queue is full; the command is *not* queued and the
        caller should retry later.
        """
        if (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        ):
            self._rejected_submits += 1
            return False
        self._pending.append(command)
        if self._started and not self.eager_slots:
            self._open_window()
        return True

    @property
    def pending_commands(self) -> int:
        return len(self._pending)

    @property
    def rejected_submits(self) -> int:
        """Submissions refused by backpressure since construction."""
        return self._rejected_submits

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.eager_slots:
            for slot in range(1, min(self.pipeline, self.num_slots) + 1):
                self._ensure_slot(slot)
        else:
            self._open_window()

    def stop(self) -> None:
        """Stop and let go of every open instance (an instance and this
        replica point at each other)."""
        for replica in self._slots.values():
            replica.stop()
        self._slots.clear()

    def on_message(self, src: ReplicaId, message: object) -> None:
        replica = self._instance(message)
        if replica is not None:
            replica.on_message(src, message.inner)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _instance(self, message: object):
        """The slot instance an inbound envelope is for (opened on demand
        inside the look-ahead window); None for anything to be dropped."""
        slot = self._stacks.slot_of(message)
        if slot is None:
            return None
        replica = self._slots.get(slot)
        if replica is None:
            window = max(SLOT_WINDOW, self.pipeline + 1)
            if slot > self.log.applied_up_to + window:
                return None  # too far ahead; re-driven by view changes
            replica = self._ensure_slot(slot)
        return replica

    def _ensure_slot(self, slot: int):
        """Slot ``slot``'s instance, opened (never past ``num_slots``: every
        caller checks) if this replica has not yet."""
        if slot in self._slots:
            return self._slots[slot]
        stacks = self._stacks
        stacks.sweep(self._slots)
        my_value = self._next_proposal(slot)
        stack, config, crypto = stacks.seat(slot, self._crypto)
        replica = stacks.protocol(
            replica_id=self.id,
            config=config,
            crypto=crypto,
            transport=_SlotTransport(self._transport, slot),
            my_value=my_value,
            timeout_policy=self._timeout_policy,
            on_decide=lambda decision, s=slot: self._on_slot_decided(s, decision),
            **(stack.replica_kwargs if stack is not None else {}),
        )
        if stack is not None:
            stack.join(self.id, replica)
        self._slots[slot] = replica
        self._slot_values[slot] = my_value
        self._highest_opened = max(self._highest_opened, slot)
        self._open_undecided += 1
        replica.start()
        return replica

    def _open_window(self) -> None:
        """Demand-driven slot opening: one new slot per pending batch, up to
        ``pipeline`` concurrently open undecided slots."""
        while (
            self._pending
            and self._open_undecided < self.pipeline
            and self._highest_opened < self.num_slots
        ):
            self._ensure_slot(self._highest_opened + 1)

    def _next_proposal(self, slot: int) -> Value:
        """Pick this replica's proposal for ``slot``.

        Pops up to ``batch_size`` commands not already ordered in earlier
        slots; proposes NOOP when the queue is empty.
        """
        batch: List[Value] = []
        while self._pending and len(batch) < self.batch_size:
            command = self._pending.popleft()
            if command not in self._ordered:
                batch.append(command)
        if not batch:
            return NOOP
        return encode_batch(batch)

    def _on_slot_decided(self, slot: int, decision: Decision) -> None:
        self._open_undecided -= 1
        # Cancel the instance's view timers: a decided slot must stop
        # generating synchronizer traffic (one live timer wheel per past
        # slot drowns a serving deployment in wish/view-change spam).
        instance = self._slots.get(slot)
        if instance is not None:
            instance.stop()
            self._records[slot] = SlotRecord(instance.config, decision)
        stacks = self._stacks
        self._ordered.update(c for c, _request in stacks.decode(decision.value))
        for s in self.log.record(slot, decision.value):
            if self._on_apply is not None:
                self._on_apply(self.id, s, self.log.value_of(s))
            stacks.note_applied(s)
        # Requeue our proposal's unordered commands if another value won.
        mine = self._slot_values.pop(slot, None)
        if mine is not None and mine != NOOP and mine != decision.value:
            losers = [
                c
                for c, _request in stacks.decode(mine)
                if c != NOOP and c not in self._ordered
            ]
            for command in reversed(losers):
                self._pending.appendleft(command)
        # Open the next slots: eagerly past the decided slot, or only as
        # far as pending demand reaches.
        if self.eager_slots:
            top = min(self.num_slots, slot + self.pipeline)
            for nxt in range(slot + 1, top + 1):
                self._ensure_slot(nxt)
        else:
            self._open_window()

    def slot_replica(self, slot: int):
        """The slot's live instance, or the record kept of it."""
        return self._slots.get(slot) or self._records.get(slot)


class ByzantineSlotMultiplexer:
    """Hosts a Byzantine behaviour in every slot of an SMR deployment.

    The faulty twin of :class:`SMRReplica`: inbound :class:`SlotEnvelope`\\ s
    route to per-slot endpoints built by ``slot_factory(slot, slot_config,
    crypto, slot_transport, protocol)`` — any of the single-shot Byzantine
    seats from :mod:`repro.adversary` (equivocating leaders, flooders, ...)
    slots in unchanged, speaking the slot protocol's dialect and attacking
    each consensus instance with slot-scoped keys and transports.  Slots are
    instantiated on demand (plus the first ``pipeline`` at start, mirroring
    honest replicas), bounded by ``num_slots``, and let go of once retired.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        crypto: CryptoContext,
        transport: Transport,
        slot_factory: Callable[..., object],
        pipeline: int,
        stacks: SlotStacks,
    ) -> None:
        self.id = replica_id
        self._crypto = crypto
        self._transport = transport
        self.pipeline = max(1, pipeline)
        self._slot_factory = slot_factory
        self._stacks = stacks
        stacks.seats[replica_id] = self.deliver
        self._slots: Dict[int, object] = {}

    def start(self) -> None:
        for slot in range(1, min(self.pipeline, self._stacks.num_slots) + 1):
            self._endpoint(slot)

    def on_message(self, src: ReplicaId, message: object) -> None:
        slot = self._stacks.slot_of(message)
        if slot is not None:
            self.deliver(slot, src, message.inner)

    def deliver(self, slot: int, src: ReplicaId, message: object) -> None:
        """Hand slot ``slot``'s endpoint one unwrapped message (what the
        slot's kernels call for this seat)."""
        endpoint = self._endpoint(slot)
        if endpoint is not None:
            endpoint.on_message(src, message)

    def _endpoint(self, slot: int):
        """The slot's endpoint, built and started on first use; None once
        the slot is retired."""
        endpoint = self._slots.get(slot)
        stacks = self._stacks
        if endpoint is None and slot > stacks.retired:
            stacks.sweep(self._slots)
            _stack, config, crypto = stacks.seat(slot, self._crypto)
            endpoint = self._slots[slot] = self._slot_factory(
                slot, config, crypto, _SlotTransport(self._transport, slot),
                stacks.protocol,
            )
            endpoint.start()
        return endpoint
