"""Single-shot PBFT replica (paper §2.3).

Identical skeleton to :class:`repro.core.replica.ProBFTReplica` with the two
deliberate differences Figure 3 highlights:

* Prepare and Commit messages are **broadcast to all replicas** instead of
  multicast to VRF samples;
* all quorums are **deterministic** (``⌈(n+f+1)/2⌉``), so any two quorums
  intersect in a correct replica and agreement is certain, at the cost of
  ``O(n²)`` messages.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ...config import ProtocolConfig
from ...crypto.context import CryptoContext
from ...crypto.signatures import Signed
from ...core.leader import leader_of_view
from ...messages.base import ProposalStatement, conforms
from ...messages.pbft import PbftCommit, PbftNewLeader, PbftPrepare, PbftPropose
from ...net.transport import Transport
from ...quorum.deterministic import DeterministicQuorumCollector
from ...sync.synchronizer import ViewSynchronizer, Wish
from ...sync.timeouts import TimeoutPolicy
from ...types import Decision, ReplicaId, Value, View
from .predicates import (
    pbft_choose_value,
    pbft_safe_proposal,
    pbft_valid_new_leader,
    pbft_valid_vote,
)

FUTURE_VIEW_WINDOW = 2
FUTURE_BUFFER_LIMIT = 8192

DecisionCallback = Callable[[Decision], None]


class PbftReplica:
    """A correct single-shot PBFT replica."""

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        my_value: Value,
        timeout_policy: Optional[TimeoutPolicy] = None,
        on_decide: Optional[DecisionCallback] = None,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._my_value = my_value
        self._on_decide = on_decide

        self._sync = ViewSynchronizer(
            transport=transport,
            f=config.f,
            signatures=crypto.signatures,
            on_new_view=self._on_new_view,
            timeout_policy=timeout_policy,
        )

        self._cur_view: View = 0
        self._cur_val: Optional[Value] = None
        self._voted = False
        self._proposal: Optional[Signed] = None

        self._prepared_view: View = 0
        self._prepared_value: Optional[Value] = None
        self._cert: Tuple[Signed, ...] = ()
        self._decision: Optional[Decision] = None

        self._prepare_collectors: Dict[View, DeterministicQuorumCollector] = {}
        self._commit_collectors: Dict[View, DeterministicQuorumCollector] = {}
        self._new_leader_collectors: Dict[View, DeterministicQuorumCollector] = {}
        self._proposed_views: Set[View] = set()
        self._committed_views: Set[View] = set()
        self._future_buffer: Dict[View, List[Tuple[ReplicaId, Signed]]] = {}

    # ------------------------------------------------------------------
    @property
    def decision(self) -> Optional[Decision]:
        return self._decision

    @property
    def current_view(self) -> View:
        return self._cur_view

    @property
    def synchronizer(self) -> ViewSynchronizer:
        return self._sync

    def start(self) -> None:
        self._sync.start()

    def stop(self) -> None:
        self._sync.stop()

    def on_message(self, src: ReplicaId, message: object) -> None:
        payload = getattr(message, "payload", None)
        if isinstance(payload, Wish):
            self._sync.on_wish(src, message)
            return
        if isinstance(payload, (PbftPrepare, PbftCommit)):
            # The vote's verdict, once per object, includes its wire type.
            if not pbft_valid_vote(message, self.config, self._crypto):
                return
        elif not isinstance(payload, (PbftPropose, PbftNewLeader)) or not conforms(
            message, Signed, self._crypto.verdicts
        ):
            return  # only signed, well-typed protocol messages are processed
        view = payload.view
        if self._cur_view == 0 or view < self._cur_view:
            return  # stale (or not yet started)
        if view > self._cur_view:
            if view <= self._cur_view + FUTURE_VIEW_WINDOW:
                bucket = self._future_buffer.setdefault(view, [])
                if len(bucket) < FUTURE_BUFFER_LIMIT:
                    bucket.append((src, message))
            return
        if isinstance(payload, PbftPropose):
            self._handle_propose(src, message)
        elif isinstance(payload, PbftPrepare):
            self._handle_prepare(src, message)
        elif isinstance(payload, PbftCommit):
            self._handle_commit(src, message)
        elif isinstance(payload, PbftNewLeader):
            self._handle_new_leader(src, message)

    # ------------------------------------------------------------------
    def _on_new_view(self, view: View) -> None:
        self._cur_view = view
        self._cur_val = None
        self._voted = False
        self._proposal = None
        for table in (
            self._prepare_collectors,
            self._commit_collectors,
            self._new_leader_collectors,
        ):
            for old in [v for v in table if v < view]:
                del table[old]

        if view == 1:
            if self.id == self._leader(view):
                self._propose(self._my_value, None)
        else:
            new_leader = PbftNewLeader(
                view=view,
                prepared_view=self._prepared_view,
                prepared_value=self._prepared_value,
                cert=self._cert,
            )
            self._send_or_local(self._leader(view), self._sign(new_leader))
        for src, message in self._future_buffer.pop(view, []):
            self._transport.schedule(
                0.0, lambda s=src, m=message: self.on_message(s, m)
            )

    # ------------------------------------------------------------------
    def _handle_new_leader(self, src: ReplicaId, signed: Signed) -> None:
        view = self._cur_view
        if self.id != self._leader(view) or view <= 1:
            return
        if view in self._proposed_views:
            return
        if not pbft_valid_new_leader(signed, view, self.config, self._crypto):
            return
        collector = self._collector(self._new_leader_collectors, view)
        if collector.add(view, signed.signer, signed):
            quorum = collector.quorum_messages(view)
            value, _v_max = pbft_choose_value(quorum, self._my_value)
            self._propose(value, tuple(quorum))

    def _propose(
        self, value: Value, justification: Optional[Tuple[Signed, ...]]
    ) -> None:
        view = self._cur_view
        self._proposed_views.add(view)
        statement = self._sign(ProposalStatement(view=view, value=value))
        propose = PbftPropose(
            view=view, statement=statement, justification=justification
        )
        signed = self._sign(propose)
        self._transport.broadcast(signed)
        self._deliver_local(signed)

    def _handle_propose(self, src: ReplicaId, signed: Signed) -> None:
        if self._voted:
            return
        if not pbft_safe_proposal(signed, self.config, self._crypto):
            return
        propose: PbftPropose = signed.payload
        self._cur_val = propose.value
        self._voted = True
        self._proposal = signed
        prepare = PbftPrepare(statement=propose.statement)
        signed_prepare = self._sign(prepare)
        self._transport.broadcast(signed_prepare)
        self._deliver_local(signed_prepare)

    def _handle_prepare(self, src: ReplicaId, signed: Signed) -> None:
        collector = self._collector(self._prepare_collectors, self._cur_view)
        collector.add(signed.payload.value, signed.signer, signed)
        self._try_form_prepared()

    def _try_form_prepared(self) -> None:
        view = self._cur_view
        if not self._voted or view in self._committed_views:
            return
        collector = self._prepare_collectors.get(view)
        if collector is None or not collector.has_quorum(self._cur_val):
            return
        self._prepared_value = self._cur_val
        self._prepared_view = view
        self._cert = collector.quorum_messages(self._cur_val)
        self._committed_views.add(view)
        assert self._proposal is not None
        commit = PbftCommit(statement=self._proposal.payload.statement)
        signed_commit = self._sign(commit)
        self._transport.broadcast(signed_commit)
        self._deliver_local(signed_commit)
        self._try_decide()

    def _handle_commit(self, src: ReplicaId, signed: Signed) -> None:
        collector = self._collector(self._commit_collectors, self._cur_view)
        collector.add(signed.payload.value, signed.signer, signed)
        self._try_decide()

    def _try_decide(self) -> None:
        if self._decision is not None:
            return
        view = self._cur_view
        value = self._prepared_value
        if value is None or self._prepared_view != view:
            return
        collector = self._commit_collectors.get(view)
        if collector is None or not collector.has_quorum(value):
            return
        self._decision = Decision(
            replica=self.id, value=value, view=view, time=self._transport.now
        )
        if self._on_decide is not None:
            self._on_decide(self._decision)

    # ------------------------------------------------------------------
    def _collector(self, table: Dict, view: View) -> DeterministicQuorumCollector:
        """``table``'s collector for ``view``, built when the first vote asks."""
        collector = table.get(view)
        if collector is None:
            collector = table[view] = DeterministicQuorumCollector(
                self.config.n, self.config.f
            )
        return collector

    def _leader(self, view: View) -> ReplicaId:
        return leader_of_view(view, self.config.n)

    def _sign(self, payload: object) -> Signed:
        return self._crypto.signatures.sign(self.id, payload)

    def _send_or_local(self, dst: ReplicaId, message: Signed) -> None:
        if dst == self.id:
            self._deliver_local(message)
        else:
            self._transport.send(dst, message)

    def _deliver_local(self, message: Signed) -> None:
        self._transport.schedule(0.0, lambda: self.on_message(self.id, message))
