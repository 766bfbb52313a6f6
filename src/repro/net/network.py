"""The partially synchronous network.

Enforces the paper's model (§2.1): before GST, the scheduler (latency model +
chaos policy) may delay messages arbitrarily; every message sent at time
``t`` is delivered no later than ``max(t, GST) + Δ`` where ``Δ`` is the
latency model's bound.  Correct-to-correct messages are never lost.

The network also keeps :class:`MessageStats` — per-type send counters used to
reproduce Figure 1b (number of exchanged messages).

A network given a kernel table (:meth:`Network.use_kernel`; every
production deployment gives its instance's) coalesces fan-outs: one event
per distinct delivery time instead of one per recipient, which is what
tames the per-event cost of O(n^2) broadcast storms, and the whole fan-out
waits in the simulator's queue as one entry (:meth:`Simulator.post_all`).
The table maps a message kind (:func:`message_kind`) to the kernel that
delivers its buckets; a kind with no entry is delivered per recipient.
Without a table the network is the dense oracle the identity tests compare
against.  Coalesced and dense runs are bit-identical because

* **RNG order** — latency, chaos and duplication draws are made per target
  in exactly dense's target order;
* **event order** — buckets are created in first-seen order, deliver their
  recipients in target order and keep their queue order inside a run, and
  the simulator breaks time ties by scheduling order;
* **stop granularity** — dense checks ``stop_when`` between deliveries, so
  the kernel and the per-recipient loop probe ``Network.stop_probe``
  between recipients and the simulator's loop asks ``stop_when`` between
  buckets.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, Iterable, Optional, Sequence

from ..crypto.hashing import stable_encode
from ..errors import NotRegisteredError
from ..types import ReplicaId
from .faults import ChaosPolicy, NoChaos
from .latency import ConstantLatency, LatencyModel
from .simulator import Simulator

#: Handler invoked on delivery: ``handler(src, message)``.
DeliveryHandler = Callable[[ReplicaId, object], None]


def message_kind(message: object) -> type:
    """What a kernel table is keyed by: the payload class of a signed
    envelope, else the message class."""
    return getattr(message, "payload", message).__class__


def message_type_name(message: object) -> str:
    """Stable type label for accounting (``TYPE`` attr or class name).

    Signed envelopes are unwrapped so stats reflect protocol message types.
    """
    # Probes ``signer``, never ``signature``: reading a tag computes it.
    if hasattr(message, "payload") and hasattr(message, "signer"):
        message = message.payload
    label = getattr(message, "TYPE", None)
    if isinstance(label, str):
        return label
    return type(message).__name__


class MessageStats:
    """Message accounting for one network instance.

    Summary-first: the per-kind counters live in flat slot-indexed arrays
    (:class:`~repro.harness.metrics.IndexedCounter`) sharing one name→slot
    registry, and the classic ``Counter`` views (``sent_by_type`` …) are
    rebuilt on read — every reported value is identical to what per-message
    ``Counter`` bumps would produce, at a fraction of the hot-path dict
    traffic.  Byte counts use the canonical encoding of each message (the
    same bytes signatures cover) and are tracked only when the network was
    created with ``track_bytes=True`` — encoding every message has a
    measurable cost.
    """

    __slots__ = (
        "_sent",
        "_delivered",
        "_delivered_kinds",
        "_bytes",
        "sent_by_replica",
        "sent_total",
        "delivered_total",
        "bytes_total",
    )

    def __init__(self) -> None:
        # Imported lazily: repro.harness pulls in the trial layer, which
        # imports this module — a module-level import would be circular.
        from ..harness.metrics import IndexedCounter

        index: Dict[str, int] = {}
        self._sent = IndexedCounter(index)
        self._delivered = IndexedCounter(index)
        # (message class, payload class) -> slot, once delivered.
        self._delivered_kinds: Dict[tuple, int] = {}
        self._bytes = IndexedCounter(index)
        self.sent_by_replica: Counter = Counter()
        self.sent_total = 0
        self.delivered_total = 0
        self.bytes_total = 0

    @property
    def sent_by_type(self) -> Counter:
        """Per-kind send counts (a rebuilt view; record via ``record_*``)."""
        return self._sent.as_counter()

    @property
    def delivered_by_type(self) -> Counter:
        return self._delivered.as_counter()

    @property
    def bytes_by_type(self) -> Counter:
        return self._bytes.as_counter()

    def record_send(
        self, src: ReplicaId, message: object, size: Optional[int] = None
    ) -> None:
        self.record_multicast(src, message, 1, size)

    def record_multicast(
        self,
        src: ReplicaId,
        message: object,
        count: int,
        size: Optional[int] = None,
    ) -> None:
        """Record ``count`` sends of one message (a whole fan-out at once:
        Figure-1b accounting is unchanged by coalescing)."""
        if count <= 0:
            return
        name = message_type_name(message)
        self._sent.bump(name, count)
        self.sent_by_replica[src] += count
        self.sent_total += count
        if size is not None:
            self._bytes.bump(name, count * size)
            self.bytes_total += count * size

    def record_delivery(self, message: object) -> None:
        self.record_run(((None, message, None),), (1,))

    def record_run(self, buckets: Sequence[tuple], counts: Sequence[int]) -> None:
        """Record ``counts[i]`` deliveries of ``buckets[i]``'s message, for
        every ``i`` of ``counts``: one counter update per kind and run (so
        the delivery counters are exact between runs, not inside one)."""
        known, tally = self._delivered_kinds, {}
        for (_, message, _), count in zip(buckets, counts):
            if count > 0:  # (a kind is touched by a delivery, never by a 0)
                kind = (message.__class__, getattr(message, "payload", None).__class__)
                slot = known.get(kind)
                if slot is None:
                    slot = known[kind] = self._delivered.slot(message_type_name(message))
                tally[slot] = tally.get(slot, 0) + count
        for slot, count in tally.items():
            self._delivered.add(slot, count)
            self.delivered_total += count

    def sent(self, type_name: str) -> int:
        return self._sent.get(type_name)

    def summary(self) -> Dict[str, int]:
        out = dict(sorted(self._sent.as_counter().items()))
        out["TOTAL"] = self.sent_total
        return out


class Network:
    """Routes messages between replicas over the simulator.

    Args:
        sim: the discrete-event kernel.
        n: number of replicas.
        latency: base latency model (its ``max_delay`` is the post-GST Δ).
        gst: global stabilization time (0 means synchronous from the start).
        chaos: extra adversarial scheduling applied before GST.
    """

    def __init__(
        self,
        sim: Simulator,
        n: int,
        latency: Optional[LatencyModel] = None,
        gst: float = 0.0,
        chaos: Optional[ChaosPolicy] = None,
        duplicate_prob: float = 0.0,
        duplicate_seed: int = 0,
        track_bytes: bool = False,
    ) -> None:
        if not 0.0 <= duplicate_prob < 1.0:
            raise ValueError(f"duplicate_prob must be in [0,1), got {duplicate_prob}")
        self._sim = sim
        self._n = n
        self._latency = latency if latency is not None else ConstantLatency(1.0)
        self._gst = gst
        self._chaos = chaos if chaos is not None else NoChaos()
        self._duplicate_prob = duplicate_prob
        self._dup_rng = (
            random.Random(f"net-dup:{duplicate_seed}") if duplicate_prob else None
        )
        self._track_bytes = track_bytes
        self._handlers: Dict[ReplicaId, DeliveryHandler] = {}
        #: The kernel table (:meth:`use_kernel`; ``None``: dense mode).
        self.kernels: Optional[Dict[type, Callable]] = None
        self._inspect: Optional[Callable[[ReplicaId, object], None]] = None
        #: Optional predicate mirroring the deployment's ``stop_when``; the
        #: coalesced fan-out checks it between recipients to keep dense's
        #: per-delivery stop granularity.
        self.stop_probe: Optional[Callable[[], bool]] = None
        self.stats = MessageStats()

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def n(self) -> int:
        return self._n

    @property
    def gst(self) -> float:
        return self._gst

    @property
    def max_delay(self) -> float:
        return self._latency.max_delay

    def register(self, replica: ReplicaId, handler: DeliveryHandler) -> None:
        """Attach the delivery handler for ``replica``."""
        if not 0 <= replica < self._n:
            raise NotRegisteredError(f"replica {replica} out of range [0, {self._n})")
        self._handlers[replica] = handler

    def use_kernel(self, kernels, inspect=None) -> None:
        """Coalesce fan-outs and hand each bucket to its kind's kernel.

        ``kernels`` maps a message kind (:func:`message_kind`) to a kernel;
        ``inspect(src, message)``, if given, sees every message sent,
        unicast included, before any of its deliveries.
        ``multicast``/``broadcast`` then post one event per distinct
        delivery time, the bucket ``(src, message, recipients)`` as data,
        and the fan-out as one queue entry (:meth:`_sparse_dispatch`).
        ``kernel(run, pos, probe, advance)`` is given a run of such buckets
        and delivers ``run[pos]`` plus as many of the buckets after it as it
        can apply with it.  It returns one delivered count per bucket
        reached (at least one); -1, only ever last, declines that bucket to
        the per-recipient loop, which delivers it whole, as it delivers a
        kind with no kernel.  The kernel owns the probe-between-deliveries
        stop semantics inside the buckets it accepts, and enters a later
        bucket whose handlers it runs through ``advance(k)``
        (:meth:`Simulator._advance`): true means bucket ``k`` is there and
        its to deliver — asked at the end of the run, the simulator may have
        just appended it — a refusal ends its answer before ``k``.  A bucket
        it entered and does not answer for is its caller's, who asks
        ``advance(k)`` again and is told yes.  Every kernel of the repo runs
        on one driver of that protocol, :class:`~repro.core.columnar.RunKernel`.

        ``None`` restores dense mode (one simulator event per recipient):
        what ``reference=True`` deployments, the test oracle, run.
        """
        self.kernels = kernels
        self._inspect = inspect

    def disconnect(self) -> None:
        """Forget every registered handler (deployment teardown)."""
        self._handlers.clear()
        self.kernels = self._inspect = None
        self.stop_probe = None

    def send(self, src: ReplicaId, dst: ReplicaId, message: object) -> float:
        """Send one message; returns the scheduled delivery time."""
        if dst not in self._handlers:
            raise NotRegisteredError(f"no handler registered for replica {dst}")
        if self._inspect is not None:
            self._inspect(src, message)
        now = self._sim.now
        base = self._latency.delay(src, dst)
        extra = self._chaos.extra_delay(now, self._gst, src, dst)
        delivery = now + base + extra
        # Partial synchrony: delivery no later than max(now, GST) + Δ.
        deadline = max(now, self._gst) + self._latency.max_delay
        delivery = min(delivery, deadline)
        delivery = max(delivery, now + 1e-12)  # strictly in the future
        self.stats.record_send(src, message, size=self._message_size(message))
        handler = self._handlers[dst]

        def deliver() -> None:
            self.stats.record_delivery(message)
            handler(src, message)

        self._sim.schedule_at(delivery, deliver)
        # Networks may duplicate messages (standard async-network behaviour);
        # receivers must be idempotent (sender dedup in quorum collectors).
        # The duplicate obeys the same partial-synchrony bound, stated from
        # the original send time: no later than max(now, GST) + 2Δ.
        if self._dup_rng is not None and self._dup_rng.random() < self._duplicate_prob:
            dup_delivery = min(
                delivery + self._latency.delay(src, dst),
                max(now, self._gst) + 2 * self._latency.max_delay,
            )
            self._sim.schedule_at(max(dup_delivery, delivery), deliver)
        return delivery

    def _message_size(self, message: object) -> Optional[int]:
        """Canonical-encoding size in bytes (None when tracking is off).

        Asked once per send or fan-out.  Protocol messages keep their
        encoded bytes on themselves (:mod:`repro.crypto.hashing`), so a
        message signed or already sent is not encoded again.
        """
        if not self._track_bytes:
            return None
        try:
            return len(stable_encode(message))
        except TypeError:
            return 0

    def multicast(
        self, src: ReplicaId, targets: Iterable[ReplicaId], message: object
    ) -> None:
        """Send ``message`` to every replica in ``targets`` (self included if listed)."""
        if self.kernels is not None:
            self._sparse_dispatch(src, targets, message)
            return
        for dst in targets:
            self.send(src, dst, message)

    def broadcast(
        self, src: ReplicaId, message: object, include_self: bool = False
    ) -> None:
        """Send ``message`` to all replicas (excluding ``src`` unless asked)."""
        targets = list(range(self._n))
        if not include_self and 0 <= src < self._n:
            del targets[src]
        self.multicast(src, targets, message)

    def _sparse_dispatch(
        self, src: ReplicaId, targets: Iterable[ReplicaId], message: object
    ) -> None:
        """Coalesced fan-out: one simulator event per distinct delivery time.

        Latency/chaos/duplication draws happen per target in dense's target
        order, buckets are created in
        first-seen order, and recipients within a bucket keep target order —
        together with the kernel's tie-break-by-scheduling-order this makes
        the delivery interleaving identical to dense mode.
        """
        if self._inspect is not None:
            self._inspect(src, message)
        now = self._sim.now
        gst_floor = max(now, self._gst)
        deadline = gst_floor + self._latency.max_delay
        dup_deadline = gst_floor + 2 * self._latency.max_delay
        floor = now + 1e-12  # strictly in the future
        dup_rng = self._dup_rng
        buckets: Dict[float, list] = {}  # in first-seen order
        # Callers never mutate the target sequence after dispatch, so lists
        # and tuples (VRF sample slices) pass through uncopied.
        dsts = targets if type(targets) in (list, tuple) else list(targets)
        pure = dup_rng is None and type(self._chaos) is NoChaos
        if not pure or len(self._handlers) != self._n:
            # (Pure model, fully-wired network — every deployment: cannot fail.)
            for dst in dsts:
                if dst not in self._handlers:
                    raise NotRegisteredError(
                        f"no handler registered for replica {dst}"
                    )
        if pure:
            # No chaos, no duplication: nothing is asked per target but its
            # delay, and that of the latency model in one call (same draws).
            for base, group in self._latency.delays(src, dsts):
                delivery = now + base
                if delivery > deadline:
                    delivery = deadline
                if delivery < floor:
                    delivery = floor
                if delivery in buckets:  # clamped onto another group's time
                    group = [*buckets[delivery], *group]
                buckets[delivery] = group
        else:
            for dst in dsts:
                base = self._latency.delay(src, dst)
                extra = self._chaos.extra_delay(now, self._gst, src, dst)
                delivery = max(min(now + base + extra, deadline), floor)
                bucket = buckets.get(delivery)
                if bucket is None:
                    buckets[delivery] = bucket = [dst]
                else:
                    bucket.append(dst)
                if dup_rng is not None and dup_rng.random() < self._duplicate_prob:
                    dup_delivery = max(
                        min(delivery + self._latency.delay(src, dst), dup_deadline),
                        delivery,
                    )
                    dup_bucket = buckets.get(dup_delivery)
                    if dup_bucket is None:
                        buckets[dup_delivery] = [dst]
                    else:
                        dup_bucket.append(dst)
        self.stats.record_multicast(
            src, message, len(dsts), size=self._message_size(message)
        )
        self._sim.post_all(
            self, [(time_, (src, message, group)) for time_, group in buckets.items()]
        )

    def deliver_run(self, run: list, advance: Callable[[int], bool]) -> None:
        """Deliver a run of coalesced buckets (the simulator's receiver
        protocol): the buckets of one delivery time and, chained on as
        ``advance`` grants them, the queue's next ones — ``run`` grows under
        this loop and under the kernels'.  Each bucket goes to its kind's
        kernel, which takes as many as it can per call and declines what it
        does not fully understand; a declined bucket, and one of a kind with
        no kernel, goes to the per-recipient loop, which delivers it whole
        and probes ``stop_probe`` between deliveries (the kernel already
        checked before this bucket); ``advance`` (the loop's ``stop_when``
        and the event accounting) is asked at every boundary it leaves us.
        What each bucket delivered is recorded once, for the whole run, as
        it returns."""
        kernels = self.kernels or {}
        probe = self.stop_probe
        counts: list = []  # delivered, per bucket answered
        try:
            while True:
                src, message, dsts = run[len(counts)]
                # (``message_kind``, inline: asked once per call.)
                kernel = kernels.get(getattr(message, "payload", message).__class__)
                if kernel is None:
                    counts.append(-1)
                else:
                    counts += kernel(run, len(counts), probe, advance)
                if counts[-1] < 0:  # declined (only ever last)
                    src, message, dsts = run[len(counts) - 1]
                    counts[-1] = 0
                    for dst in dsts:
                        if counts[-1] and probe is not None and probe():
                            break
                        counts[-1] += 1  # (counted before the handler runs)
                        self._handlers[dst](src, message)
                if not advance(len(counts)):
                    return
        finally:
            self.stats.record_run(run, counts)

