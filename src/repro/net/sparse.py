"""Coalesced delivery policies — how `Network` fan-outs reach the kernel.

A per-recipient fan-out costs one simulator event per ``(message,
recipient)`` pair, and that per-event python cost (heap push and pop, one
closure, per-delivery stats) dominates a trial.  With a
:class:`SparseDeliveryPolicy` attached via
:meth:`Network.use_delivery_policy` — every single-shot deployment attaches
one, the SMR service its slot router over one policy per open slot —
``multicast``/``broadcast`` post *one queue entry per distinct delivery
time*: the bucket ``(src, message, recipients)`` as data, send stats
recorded in bulk.  Buckets that share a delivery time leave the queue
together, as a run (:mod:`repro.net.simulator`), and the network's kernel
may apply several in one pass; under continuous latency, where none do,
the queue's consecutive buckets are one call's *chain*, each still its own
event.  The per-recipient ``Network.send`` loop
stays for unicast and as the reference the identity tests compare against
(``reference=True`` deployments attach no policy).

Equivalence contract (what makes coalesced == per-recipient bit-identical):

* **RNG order** — latency, chaos, and duplication draws are made per target
  in exactly the per-recipient target order, whether or not a target is
  ultimately suppressed, so every seeded stream stays in lock-step.
* **Event order** — the kernel breaks time ties by scheduling order.  The
  reference schedules recipients in target order; the coalesced buckets are
  created in first-seen order, deliver their recipients in target order and
  keep their queue order inside a run, so the interleaving of deliveries
  (and of everything they trigger) is unchanged.
* **Stop granularity** — the reference checks ``stop_when`` between
  deliveries; a bucket, let alone a run, would overshoot, so the fan-out
  consults ``Network.stop_probe`` between recipients and the loop's
  ``stop_when`` between buckets, and abandons the rest once either trips.
* **Suppression soundness** — ``batch_filter(message, dsts)`` runs at event
  *fire* time, not send time.  Deliveries are strictly future, so any state
  a recipient holds at fire time was caused by messages sent strictly
  earlier; the policy's view of it is current when it rules a delivery
  unobservable.

The base policy suppresses nothing — pure event coalescing, safe for any
protocol whose handlers do not depend on the *number* of simulator events
(none of ours do).  Protocol-aware policies (ProBFT's sample observation
policy in :mod:`repro.core.observation`) additionally prune deliveries the
recipient provably ignores.
"""

from __future__ import annotations

from ..types import ReplicaId


class SparseDeliveryPolicy:
    """Coalesce fan-out events; subclasses may also prune deliveries.

    ``inspect`` sees every message entering the network (unicast included)
    so the policy can track protocol state — e.g. conflicting leader
    statements — before ruling on observability.  ``batch_filter`` is the
    fire-time verdict; returning the bucket unchanged is the conservative
    (reference-equivalent) answer.
    """

    def inspect(self, src: ReplicaId, message: object) -> None:
        """Observe a message at send time (default: no-op)."""

    def batch_filter(self, message: object, dsts: list) -> list:
        """The subset of ``dsts``, in order, whose protocol state may change
        if ``message`` arrives now.

        Called once per coalesced bucket.  Pre-filtering is equivalent to
        interleaved evaluation because delivering to one recipient never
        synchronously mutates another (every send schedules a
        strictly-future event).
        """
        return dsts


#: Alias that reads better at call sites wanting *only* event coalescing.
CoalescingDelivery = SparseDeliveryPolicy
