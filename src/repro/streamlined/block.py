"""Blocks and chains for streamlined ProBFT."""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashing import digest
from ..crypto.vrf import VRFOutput
from ..messages.base import CanonicalMessage
from ..types import Value, View


@dataclass(frozen=True)
class Block(CanonicalMessage):
    """A chain block: ``(epoch, parent hash, payload)``.

    ``epoch == 0`` is reserved for the genesis block.
    """

    epoch: View
    parent: bytes  # hash of the parent block
    payload: Value

    def hash(self) -> bytes:
        return digest("stream-block", self.epoch, self.parent, self.payload)


#: The common ancestor of everything; notarized by definition.
GENESIS = Block(epoch=0, parent=b"\x00" * 32, payload=b"genesis")


@dataclass(frozen=True)
class BlockProposal(CanonicalMessage):
    """Leader's epoch proposal (broadcast)."""

    TYPE = "StreamProposal"

    block: Block


@dataclass(frozen=True)
class BlockVote(CanonicalMessage):
    """A vote, multicast to the sender's VRF sample for the epoch."""

    TYPE = "StreamVote"

    block_hash: bytes
    epoch: View
    sample: VRFOutput

    def canonical(self):
        return ("stream-vote", self.block_hash, self.epoch, self.sample)
