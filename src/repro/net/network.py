"""The partially synchronous network.

Enforces the paper's model (§2.1): before GST, the scheduler (latency model +
chaos policy) may delay messages arbitrarily; every message sent at time
``t`` is delivered no later than ``max(t, GST) + Δ`` where ``Δ`` is the
latency model's bound.  Correct-to-correct messages are never lost.

It keeps :class:`MessageStats`, the per-type counters of Figure 1b.

A network given a kernel table (:meth:`Network.use_kernel`; every
production deployment gives its instance's) coalesces fan-outs: one event
per distinct delivery time instead of one per recipient (O(n^2) broadcast
storms), the fan-out one queue entry (:meth:`Simulator.post_all`).
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
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..crypto.hashing import stable_encode
from ..errors import NotRegisteredError
from ..types import ReplicaId, id_typecode
from .faults import ChaosPolicy, NoChaos
from .latency import ConstantLatency, LatencyModel
from .simulator import Simulator

#: Handler invoked on delivery: ``handler(src, message)``.
DeliveryHandler = Callable[[ReplicaId, object], None]

#: Ids from which numpy's ``max`` (~1.5 µs) beats the builtin's (~40 ns an id).
_NUMPY_MAX_FROM = 64


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

    The per-kind counters are flat slot-indexed arrays
    (:class:`~repro.harness.metrics.IndexedCounter`) sharing one name→slot
    registry; the ``Counter`` views (``sent_by_type`` …) are rebuilt on
    read, equal to per-message ``Counter`` bumps.  Byte counts (the
    canonical encoding signatures cover) are tracked only with
    ``track_bytes=True``: encoding every message has a measurable cost.
    """

    __slots__ = (
        "_sent",
        "_delivered",
        "_sent_kinds",
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
        # (message class, payload class) -> slot, once sent / delivered.
        self._sent_kinds: Dict[tuple, int] = {}
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
        kind = (message.__class__, getattr(message, "payload", None).__class__)
        slot = self._sent_kinds.get(kind)
        if slot is None:  # (as ``record_run`` resolves a delivered kind)
            slot = self._sent_kinds[kind] = self._sent.slot(message_type_name(message))
        self._sent.add(slot, count)
        self.sent_by_replica[src] += count
        self.sent_total += count
        if size is not None:
            self._bytes.bump(message_type_name(message), count * size)
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
        #: Registered ids (a fan-out's check) and a one-target bucket's recipients.
        self._ids: set = set()
        self._singles: Dict[ReplicaId, tuple] = {}
        #: The id arrays' typecode, and every id: what a broadcast is sliced from.
        self._code = id_typecode(n)
        self._everyone = array(self._code, range(n))
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
        self._ids.add(replica)
        self._singles[replica] = (replica,)

    def use_kernel(self, kernels, inspect=None) -> None:
        """Coalesce fan-outs and hand each bucket to its kind's kernel.

        ``kernels`` maps a message kind (:func:`message_kind`) to a kernel;
        ``inspect(src, message)``, if given, sees every message sent,
        unicast included, before any of its deliveries.  A fan-out is then
        one queue entry of buckets ``(src, message, recipients)``, one per
        delivery time (:meth:`_sparse_dispatch`).  ``kernel(run, pos, probe,
        advance)`` delivers ``run[pos]`` and as many buckets after it as it
        can apply with it, and returns one delivered count per bucket
        reached (at least one); -1, only ever last, declines that bucket to
        the per-recipient loop (as a kind with no kernel is).  The kernel
        owns the probe-between-deliveries stops inside the buckets it
        accepts, and enters a later bucket through ``advance(k)``
        (:meth:`Simulator._advance`): true means bucket ``k`` is there and
        its to deliver (at the end of the run the simulator may just have
        appended it), a refusal ends its answer before ``k``.  A bucket it
        entered and does not answer for is its caller's, who asks again and
        is told yes.  Every kernel runs on one driver of that protocol,
        :class:`~repro.core.columnar.RunKernel`.

        ``None`` restores dense mode (one simulator event per recipient):
        what ``reference=True`` deployments, the test oracle, run.
        """
        self.kernels = kernels
        self._inspect = inspect

    def disconnect(self) -> None:
        """Forget every registered handler (deployment teardown)."""
        self._handlers.clear()
        self._ids.clear()
        self._singles.clear()
        self.kernels = self._inspect = None
        self.stop_probe = None

    def send(self, src: ReplicaId, dst: ReplicaId, message: object) -> float:
        """Send one message; returns the scheduled delivery time."""
        if dst not in self._handlers:
            raise NotRegisteredError(f"no handler registered for replica {dst}")
        if self._inspect is not None:
            self._inspect(src, message)
        (delivery, _), *copies = self._draws(src, (dst,))
        self.stats.record_multicast(src, message, 1, size=self._message_size(message))
        handler = self._handlers[dst]

        def deliver() -> None:
            self.stats.record_delivery(message)
            handler(src, message)

        self._sim.schedule_at(delivery, deliver)
        for copy, _ in copies:
            self._sim.schedule_at(copy, deliver)
        return delivery

    def _draws(self, src: ReplicaId, dsts: Sequence[ReplicaId]) -> Iterator[tuple]:
        """``(time, target)`` per delivery, drawn per target in dense's order
        (latency, chaos, the duplication coin, a copy's latency): by max(now,
        GST) + Δ, strictly in the future (clamps as comparisons: latency.py);
        a copy (receivers are idempotent) by max(now, GST) + 2Δ, after it."""
        now, gst, latency, chaos = self._sim.now, self._gst, self._latency, self._chaos
        dup_rng, duplicate_prob = self._dup_rng, self._duplicate_prob
        deadline = (gst if gst > now else now) + latency.max_delay
        dup_deadline = (gst if gst > now else now) + 2 * latency.max_delay
        for dst in dsts:
            delivery = now + latency.delay(src, dst) + chaos.extra_delay(now, gst, src, dst)
            if delivery > deadline:
                delivery = deadline
            if delivery < now + 1e-12:
                delivery = now + 1e-12
            yield delivery, dst
            if dup_rng is not None and dup_rng.random() < duplicate_prob:
                copy = delivery + latency.delay(src, dst)
                yield (dup_deadline if copy > dup_deadline else copy), dst

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
        targets = everyone = self._everyone  # (never mutated: a bucket may hold it)
        if not include_self and 0 <= src < self._n:
            targets = everyone[:src] + everyone[src + 1 :]
        if self.kernels is not None and len(self._ids) == self._n:
            # (Ids of ``range(n)``, every one registered: nothing to check.)
            self._sparse_dispatch(src, targets, message, checked=True)
            return
        self.multicast(src, targets, message)

    def _sparse_dispatch(
        self, src: ReplicaId, targets: Iterable[ReplicaId], message: object,
        checked: bool = False,
    ) -> None:
        """Coalesced fan-out: one simulator event per distinct delivery time,
        in dense's draw, bucket and recipient order (module docstring).
        Without chaos or duplication the model's one answer is the fan-out:
        a shared delay is one bucket, distinct times one bucket each (its
        replica's ``(dst,)``), a tie merges (DESIGN.md, *The send side*).  A
        bucket of several holds the network's id array: ``targets`` itself
        if it is one (a VRF sample, a broadcast's slice; never mutated after
        dispatch), else one conversion, which refuses what is no id.  The
        ids are checked before anything is queued: by the ``(dst,)`` lookup
        when each is its own bucket, else by one upper bound once all are
        registered (``checked``: a broadcast's pass).

        A bucket lists each recipient once, duplication or not: a copy lands
        strictly after its original (delays are positive, ``dup_deadline``
        is later), in another bucket; its recipient's seen-bit drops it.
        """
        code, n = self._code, self._n
        dsts = targets
        if targets.__class__ is not array or targets.typecode != code:
            targets = targets if isinstance(targets, (list, tuple)) else list(targets)
            try:
                dsts = array(code, targets)
            except (TypeError, OverflowError):  # -1, "2", 1.5, None, ...
                raise self._unregistered(targets) from None
        now, latency, singles = self._sim.now, self._latency, self._singles
        floor = now + 1e-12  # strictly in the future (see :meth:`_draws`)
        deadline = max(max(now, self._gst) + latency.max_delay, floor)  # (so the clamp is exact)
        pairs = None  # (time, target) per delivery, when a merge is due
        pure = self._dup_rng is None and type(self._chaos) is NoChaos
        delays = latency.delays(src, dsts) if pure else None
        if delays.__class__ is list:
            try:  # (the lookup is the check)
                items = [(src, message, singles[dst]) for dst in dsts]
            except KeyError:
                raise self._unregistered(dsts) from None
            times = [floor if (at := now + d) < floor else deadline if at > deadline else at
                     for d in delays]
            if len(set(times)) != len(times):  # a tie
                pairs = zip(times, dsts)
        elif not checked and dsts and (
            not self._ids.issuperset(dsts) if len(self._ids) < n
            else (max(dsts) if len(dsts) < _NUMPY_MAX_FROM
                  else np.maximum.reduce(np.frombuffer(dsts, code))) >= n
        ):
            raise self._unregistered(dsts)
        elif pure:  # one delay for every target (a clamp a fan-out)
            times = [max(min(now + delays, deadline), floor)] if dsts else []
            items = [(src, message, dsts)] if dsts else []
        else:
            pairs = self._draws(src, dsts)
        if pairs is not None:
            buckets: Dict[float, list] = {}  # in first-seen order
            for time_, dst in pairs:
                buckets.setdefault(time_, []).append(dst)
            times = list(buckets)
            items = [(src, message, array(code, g) if len(g) > 1 else singles[g[0]])
                     for g in buckets.values()]
        # All or nothing (a NaN is refused here); then the hook, which still
        # sees the message before any delivery: none runs before we return.
        self._sim.post_all(self, times, items)
        if self._inspect is not None:
            self._inspect(src, message)
        self.stats.record_multicast(
            src, message, len(dsts), size=self._message_size(message)
        )

    def _unregistered(self, dsts: Sequence[ReplicaId]) -> NotRegisteredError:
        dst = next(dst for dst in dsts if dst not in self._handlers)
        return NotRegisteredError(f"no handler registered for replica {dst}")

    def deliver_run(self, run: list, advance: Callable[[int], bool]) -> None:
        """Deliver a run of coalesced buckets (the simulator's receiver
        protocol): the buckets of one delivery time and, as ``advance``
        grants them, the queue's next ones (``run`` grows under this loop and
        the kernels').  Each bucket goes to its kind's kernel; a declined
        one, or one of a kind with no kernel, to the per-recipient loop,
        which probes ``stop_probe`` between deliveries.  ``advance`` (the
        loop's ``stop_when``, the event accounting) is asked at every
        boundary left to us; the counts are recorded once, as it returns."""
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

