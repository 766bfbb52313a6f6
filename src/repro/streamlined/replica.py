"""The streamlined replica.

Epochs are driven by local timers (no synchronizer, no view-change
messages).  All ProBFT defences carry over: votes only count from senders
whose VRF sample provably includes the receiver, and blocks need a
probabilistic quorum of ``q`` distinct voters to notarize.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..config import ProtocolConfig
from ..core.leader import leader_of
from ..core.replica import DecisionCallback
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..crypto.vrf import phase_seed
from ..messages.base import conforms
from ..net.transport import Transport
from ..quorum.probabilistic import ProbabilisticQuorumCollector
from ..sync.timeouts import FixedTimeout, TimeoutPolicy
from ..types import Decision, ReplicaId, Value
from .block import GENESIS, Block, BlockProposal, BlockVote


class StreamReplica:
    """A correct streamlined-ProBFT replica, on the deployment's replica
    contract: ``my_value`` seeds its block payloads, ``timeout_policy``
    sets each epoch's length (``FixedTimeout(3.0)`` by default), and
    ``on_decide`` fires once, at the first finalization, with the height-1
    block's hash as the value and its epoch as the view."""

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
        self._timeouts = timeout_policy or FixedTimeout(3.0)
        self._on_decide = on_decide

        genesis_hash = GENESIS.hash()
        self._blocks: Dict[bytes, Block] = {genesis_hash: GENESIS}
        self._notarized: Set[bytes] = {genesis_hash}
        self._votes = ProbabilisticQuorumCollector(config.q)
        self._voted_epochs: Set[int] = set()
        self._current_epoch = 0
        self._stopped = False
        self._finalized: List[Block] = [GENESIS]

    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self._current_epoch

    @property
    def finalized_chain(self) -> List[Block]:
        return list(self._finalized)

    @property
    def finalized_height(self) -> int:
        return len(self._finalized) - 1  # genesis doesn't count

    def start(self) -> None:
        self._enter_epoch(1)

    def stop(self) -> None:
        self._stopped = True  # epoch timers become no-ops

    # ------------------------------------------------------------------
    # Epoch clock
    # ------------------------------------------------------------------
    def _enter_epoch(self, epoch: int) -> None:
        self._current_epoch = epoch
        if self._leader(epoch) == self.id:
            self._propose(epoch)
        self._transport.schedule(
            self._timeouts.timeout_for(epoch),
            lambda e=epoch: self._epoch_timeout(e),
        )

    def _epoch_timeout(self, epoch: int) -> None:
        if epoch == self._current_epoch and not self._stopped:
            self._enter_epoch(epoch + 1)

    def _leader(self, epoch: int) -> ReplicaId:
        return leader_of(epoch, self.config)

    # ------------------------------------------------------------------
    # Proposing and voting
    # ------------------------------------------------------------------
    def _longest_notarized_tip(self) -> bytes:
        """Hash of the tip of (a) longest notarized chain; ties break on the
        higher epoch then lexicographic hash, so all replicas with the same
        notarized set pick the same tip."""
        best: Tuple[int, int, bytes] = (0, 0, GENESIS.hash())
        for block_hash in self._notarized:
            length = self._chain_length(block_hash)
            block = self._blocks[block_hash]
            key = (length, block.epoch, block_hash)
            if key > best:
                best = key
        return best[2]

    def _chain_length(self, block_hash: bytes) -> int:
        length = 0
        cursor = block_hash
        genesis = GENESIS.hash()
        while cursor != genesis:
            block = self._blocks.get(cursor)
            if block is None:
                return -1  # unknown ancestry: treat as non-extendable
            length += 1
            cursor = block.parent
        return length

    def _propose(self, epoch: int) -> None:
        parent = self._longest_notarized_tip()
        payload = b"%s-e%d" % (self._my_value, epoch)
        block = Block(epoch=epoch, parent=parent, payload=payload)
        signed = self._crypto.signatures.sign(self.id, BlockProposal(block=block))
        self._transport.broadcast(signed)
        self._deliver_local(signed)

    def on_message(self, src: ReplicaId, message: object) -> None:
        # Only signed (§2.1), well-typed messages are processed.
        table = self._crypto.verdicts
        if conforms(message, Signed[BlockProposal], table):
            self._handle_proposal(message)
        elif conforms(message, Signed[BlockVote], table):
            self._handle_vote(message)

    def _handle_proposal(self, signed: Signed) -> None:
        if not self._crypto.signatures.verify(signed):
            return
        proposal: BlockProposal = signed.payload
        block = proposal.block
        epoch = block.epoch
        if epoch != self._current_epoch or epoch in self._voted_epochs:
            return
        if signed.signer != self._leader(epoch):
            return
        block_hash = block.hash()
        self._blocks.setdefault(block_hash, block)
        # Streamlet vote rule: extend (one of) the longest notarized chains.
        if block.parent not in self._notarized:
            return
        if self._chain_length(block.parent) < self._chain_length(
            self._longest_notarized_tip()
        ):
            return
        self._voted_epochs.add(epoch)
        sample = self._crypto.vrf.prove(
            self.id,
            phase_seed(epoch, "stream-vote", self.config.seed_domain),
            self.config.sample_size,
        )
        vote = BlockVote(block_hash=block_hash, epoch=epoch, sample=sample)
        signed_vote = self._crypto.signatures.sign(self.id, vote)
        others = [dst for dst in sample.sample if dst != self.id]
        self._transport.multicast(others, signed_vote)
        if self.id in sample.sample:
            self._deliver_local(signed_vote)

    def _handle_vote(self, signed: Signed) -> None:
        if not self._crypto.signatures.verify(signed):
            return
        vote: BlockVote = signed.payload
        if not self._crypto.vrf.verify(
            signed.signer,
            phase_seed(vote.epoch, "stream-vote", self.config.seed_domain),
            self.config.sample_size,
            vote.sample,
        ):
            return
        if self.id not in vote.sample.sample:
            return
        if self._votes.add(vote.block_hash, signed.signer, signed):
            self._notarize(vote.block_hash)

    # ------------------------------------------------------------------
    # Notarization and finalization
    # ------------------------------------------------------------------
    def _notarize(self, block_hash: bytes) -> None:
        if block_hash in self._notarized or block_hash not in self._blocks:
            return
        self._notarized.add(block_hash)
        self._try_finalize(block_hash)

    def _try_finalize(self, tip_hash: bytes) -> None:
        """Streamlet rule: three notarized blocks with consecutive epochs
        finalize the chain up to the middle one."""
        tip = self._blocks[tip_hash]
        mid = self._blocks.get(tip.parent)
        if mid is None or tip.parent not in self._notarized:
            return
        low = self._blocks.get(mid.parent)
        if low is None or mid.parent not in self._notarized:
            return
        if not (tip.epoch == mid.epoch + 1 and mid.epoch == low.epoch + 1):
            return
        chain = self._chain_to(mid)
        if chain is None or len(chain) <= len(self._finalized):
            return
        first = len(self._finalized) == 1
        self._finalized = chain
        if first and self._on_decide is not None:
            block = chain[1]
            self._on_decide(
                Decision(self.id, block.hash(), block.epoch, self._transport.now)
            )

    def _chain_to(self, block: Block) -> Optional[List[Block]]:
        chain: List[Block] = []
        cursor: Optional[Block] = block
        genesis_hash = GENESIS.hash()
        while cursor is not None:
            chain.append(cursor)
            if cursor.hash() == genesis_hash:
                chain.reverse()
                return chain
            cursor = self._blocks.get(cursor.parent)
        return None

    def _deliver_local(self, message: Signed) -> None:
        self._transport.schedule(0.0, lambda: self.on_message(self.id, message))
