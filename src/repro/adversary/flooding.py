"""Flooding attacks.

The paper motivates VRF-fixed recipient samples with the observation that
faulty replicas must be prevented "from manipulating the decisions in
probabilistic quorums (e.g., by flooding the system with their own
messages)" (§3.1).  :class:`FloodingReplica` tries exactly that, in the
dialect of any protocol on the ProBFT skeleton: it sprays votes for a value
the leader never signed, duplicates of one valid vote and — where votes
carry a sample — votes with a *forged* sample.  Correct replicas must
reject all of it; the tests assert the flood changes nothing.
"""

from __future__ import annotations

from functools import partial

from ..config import ProtocolConfig
from ..core.replica import ProBFTReplica
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..crypto.vrf import VRFOutput
from ..messages.base import ProposalStatement
from ..net.transport import Transport
from ..types import ReplicaId, View
from .equivocation import SeatVotes

#: The value the flooder votes for; no leader ever signs it.
FLOOD_VALUE = b"flood-value"


class FloodingReplica:
    """Sends a burst of invalid votes to every replica when it sees a proposal.

    Attack vectors exercised (the vote hook's recipients say which apply):

    * fake value injection: votes for a value the leader never signed
      (statement signed by the flooder itself, so the leader check fails);
    * vote duplication: one valid vote repeated ``burst`` times (must count
      at most once thanks to sender dedup);
    * forged sample membership, sampled dialects only: a hand-built
      ``VRFOutput`` whose sample lists the target but whose proof never
      verifies.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        burst: int = 3,
        protocol: type = ProBFTReplica,
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._burst = burst
        self._protocol = protocol
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, self._protocol.PROPOSE):
            return
        self._fired = True
        self._flood(payload.view, payload.statement)

    def _flood(self, view: View, leader_statement: Signed) -> None:
        n = self.config.n
        sign = self._crypto.signatures.sign
        votes = SeatVotes(self._protocol, self.config, self._crypto, self.id, view)
        fake_statement = sign(
            self.id,
            ProposalStatement(
                view=view, value=FLOOD_VALUE, domain=self.config.seed_domain
            ),
        )
        fake_prepare, sample = votes(True, fake_statement)
        valid_prepare, _ = votes(True, leader_statement)
        if sample is None:
            # Broadcast votes: everything goes to everyone.
            fake_commit, _ = votes(False, fake_statement)
            to_all = (fake_prepare, fake_commit, valid_prepare)
            sample = ()
        else:
            forged = VRFOutput(
                sample=tuple(range(min(n, self.config.sample_size))),
                proof=b"\x00" * 32,
            )
            prepare, commit = self._protocol.VOTES
            to_all = (
                sign(self.id, prepare(statement=leader_statement, sample=forged)),
                fake_prepare,
                sign(self.id, commit(statement=leader_statement, sample=forged)),
            )
        for _ in range(self._burst):
            for dst in range(n):
                if dst != self.id:
                    for vote in to_all:
                        self._transport.send(dst, vote)
            # Duplicate a *valid* vote: must count once per sender at most.
            for dst in sample:
                if dst != self.id:
                    self._transport.send(dst, valid_prepare)


def flooding_factory(burst: int = 3, protocol: type = ProBFTReplica):
    """Deployment factory for :class:`FloodingReplica`."""
    return partial(FloodingReplica, burst=burst, protocol=protocol)
