"""ProBFT's sample-observation policy for coalesced delivery.

ProBFT's communication pattern is exactly the sample-based dissemination of
scalable probabilistic broadcast: a Prepare/Commit vote is multicast to the
sender's VRF sample, and a recipient's state can only change if it is *in*
that sample (the line 17/21 precondition ``i ∈ S``) — with one exception,
the equivocation rule (lines 23–25), which reacts to any message carrying a
leader-signed statement that conflicts with the accepted value.

:class:`SampleObservationPolicy` encodes precisely that: votes are delivered
only to sample members, unless the vote's view has been *flagged equivocal*,
in which case every delivery for that view goes through (any recipient
might need to block the view and broadcast evidence).  The flag is
maintained in :meth:`inspect`, which sees every message entering the network
— including the unicast sends equivocating leaders and double-voters use —
strictly before the corresponding deliveries fire, so the fire-time verdict
in :meth:`batch_filter` is never stale.

Suppression rules (fire time, honest ``dst`` only; equivocal-flagged views
are exempt from all of them):

* ``view < dst's current view`` — the replica's view gate drops the vote
  unread (stale messages cannot trigger equivocation: lines 23–25 require
  ``inner.view == curView``).
* **progress pruning** — a Prepare for a view ``dst`` has already committed
  (``_try_form_prepared`` early-returns on ``view ∈ committedViews``; the
  prepared certificate was snapshotted at quorum time and the collector is
  never re-read), or a Commit to a ``dst`` that has already decided
  (decisions are permanent; ``_try_decide`` early-returns forever, and
  commit collectors are only ever read by it).  Either way the delivery
  could only mutate dead collector state.
* ``view == dst's current view`` and ``dst ∉ sample`` — the vote fails the
  ``i ∈ S`` precondition, and no conflict is possible: every leader-signed
  statement seen for this view carries the one recorded value, including
  whichever proposal ``dst`` accepted.
* anything else — deliver (future views are buffered and replayed; flagged
  views, non-votes, malformed votes and Byzantine recipients are never
  suppressed).

Only statements actually signed by ``leader(view)`` that conform to their
wire type are tracked: a flooder's fake statement signed by itself can never
trigger line 23 (which checks the signer *is* the leader), and a statement
of no ``Value`` is no evidence (replicas drop its messages whole), so
neither may flag the view equivocal and switch its pruning off.

The policy reads replica state (``_cur_view``, ``_committed_views``,
``_decision``) straight off the deployment's replica objects: the verdict
runs per (message, recipient), and a probe-callable indirection per
recipient is measurable there.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..config import ProtocolConfig
from ..crypto.signatures import Signed
from ..crypto.vrf import plain_ids
from ..messages.base import ProposalStatement, conforms
from ..messages.probft import Commit, Prepare, Propose
from ..net.sparse import SparseDeliveryPolicy
from ..types import ReplicaId, Value, View
from .leader import leader_of


class SampleObservationPolicy(SparseDeliveryPolicy):
    """Deliver votes only where ProBFT can observe them.

    Args:
        config: the deployment's protocol config (domain + n).
        byzantine_ids: recipients with arbitrary handlers — never suppressed.
        replicas: the deployment's replica map; honest entries are
            :class:`~repro.core.replica.ProBFTReplica` whose view/progress
            state the fire-time verdicts read directly.
        verdicts: the instance's verdict table, whose wire-type verdicts
            the replicas share (``None``: each message is walked anew).
    """

    def __init__(
        self,
        config: ProtocolConfig,
        byzantine_ids: FrozenSet[ReplicaId],
        replicas: Dict[ReplicaId, object],
        verdicts=None,
    ) -> None:
        self._domain = config.seed_domain
        self._n = config.n
        self._config = config
        self._verdicts = verdicts
        self._byzantine = frozenset(byzantine_ids)
        self._replicas = replicas
        self._value_seen: Dict[View, Value] = {}
        self._equivocal: Set[View] = set()
        self._last = None  # the statement inspected last

    @property
    def equivocal_views(self) -> FrozenSet[View]:
        return frozenset(self._equivocal)

    def inspect(self, src: ReplicaId, message: object) -> None:
        payload = getattr(message, "payload", None)
        if not isinstance(payload, (Propose, Prepare, Commit)):
            return
        statement = payload.statement
        if statement is self._last:
            return  # (every vote of a view carries its proposal's statement)
        self._last = statement
        inner = getattr(statement, "payload", None)
        if type(inner) is not ProposalStatement or not conforms(
            statement, Signed, self._verdicts
        ):
            return
        if inner.domain != self._domain:
            return
        view = inner.view
        if view in self._equivocal:
            return
        if view < 1 or statement.signer != leader_of(view, self._config):
            return
        seen = self._value_seen.get(view)
        if seen is None:
            self._value_seen[view] = inner.value
        elif seen != inner.value:
            # Two values under the leader's signature: every correct replica
            # may now react to any statement-bearing message for this view.
            self._equivocal.add(view)

    def batch_filter(self, message: object, dsts):
        """The module docstring's suppression rules applied to one bucket.

        This runs for every vote bucket the kernel declines, so the loop
        keeps everything in locals.  Delivering to one recipient cannot
        synchronously change another's state (all sends schedule
        strictly-future events), so pre-filtering the whole bucket matches
        interleaved evaluation.
        """
        vote = getattr(message, "payload", None)
        if (
            not isinstance(vote, (Prepare, Commit))
            or not conforms(message, Signed, self._verdicts)
            or not plain_ids(vote.sample.sample)  # (else it names no ids)
        ):
            return dsts
        is_prepare, view, members = isinstance(vote, Prepare), vote.view, vote.sample
        # Captured once per bucket: a mid-bucket flip (a Byzantine recipient
        # sending a fresh conflicting statement from inside this bucket) is
        # safe, because the conflicting statement cannot have been delivered
        # to anyone yet — every honest recipient still holds the one value
        # this vote carries, so suppressing its out-of-sample copies remains
        # a no-op for them.
        equivocal = view in self._equivocal
        byzantine = self._byzantine
        replicas = self._replicas
        out = []
        append = out.append
        for dst in dsts:
            if dst in byzantine:
                append(dst)
                continue
            replica = replicas[dst]
            dst_view = replica._cur_view
            if view < dst_view:
                continue
            if view > dst_view or equivocal:
                append(dst)
                continue
            if is_prepare:
                if view in replica._committed_views:
                    continue
            elif replica._decision is not None:
                continue
            if dst in members:
                append(dst)
        return out
