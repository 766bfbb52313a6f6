"""Flooding attacks.

The paper motivates VRF-fixed recipient samples with the observation that
faulty replicas must be prevented "from manipulating the decisions in
probabilistic quorums (e.g., by flooding the system with their own
messages)" (§3.1).  :class:`FloodingReplica` tries exactly that: it sprays
Prepare/Commit messages with *forged* samples (claimed membership without a
valid VRF proof) and duplicated votes.  Correct replicas must reject all of
it — the tests assert the flood changes nothing.
"""

from __future__ import annotations

from typing import Optional

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..crypto.vrf import VRFOutput, phase_seed
from ..messages.base import ProposalStatement
from ..messages.probft import Commit, Prepare, Propose
from ..net.transport import Transport
from ..types import ReplicaId, Value, View


class FloodingReplica:
    """Sends a burst of invalid votes to every replica when it sees a proposal.

    Attack vectors exercised:

    * forged sample membership: a hand-built ``VRFOutput`` whose sample lists
      the target but whose proof never verifies;
    * vote duplication: the same valid-looking vote repeated ``burst`` times
      (must count at most once thanks to sender dedup);
    * fake value injection: votes for a value the leader never signed
      (statement signed by the flooder itself, so leader check fails).
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        config: ProtocolConfig,
        crypto: CryptoContext,
        transport: Transport,
        burst: int = 3,
        fake_value: Value = b"flood-value",
    ) -> None:
        self.id = replica_id
        self.config = config
        self._crypto = crypto
        self._transport = transport
        self._burst = burst
        self._fake_value = fake_value
        self._fired = False

    def start(self) -> None:
        pass

    def on_message(self, src: ReplicaId, message: object) -> None:
        if self._fired or not isinstance(message, Signed):
            return
        payload = message.payload
        if not isinstance(payload, Propose):
            return
        self._fired = True
        self._flood(payload.view, payload.statement)

    def _flood(self, view: View, leader_statement: Signed) -> None:
        n = self.config.n
        s = self.config.sample_size
        forged_sample = VRFOutput(
            sample=tuple(range(min(n, s))), proof=b"\x00" * 32
        )
        fake_statement = self._crypto.signatures.sign(
            self.id,
            ProposalStatement(
                view=view, value=self._fake_value, domain=self.config.seed_domain
            ),
        )
        real_prepare_sample = self._crypto.vrf.prove(
            self.id, phase_seed(view, "prepare", self.config.seed_domain), s
        )

        forged_prepare = self._crypto.signatures.sign(
            self.id, Prepare(statement=leader_statement, sample=forged_sample)
        )
        fake_value_prepare = self._crypto.signatures.sign(
            self.id, Prepare(statement=fake_statement, sample=real_prepare_sample)
        )
        forged_commit = self._crypto.signatures.sign(
            self.id, Commit(statement=leader_statement, sample=forged_sample)
        )
        valid_prepare = self._crypto.signatures.sign(
            self.id, Prepare(statement=leader_statement, sample=real_prepare_sample)
        )

        for _ in range(self._burst):
            for dst in range(n):
                if dst == self.id:
                    continue
                self._transport.send(dst, forged_prepare)
                self._transport.send(dst, fake_value_prepare)
                self._transport.send(dst, forged_commit)
            # Duplicate a *valid* vote: must count once per sender at most.
            for dst in real_prepare_sample.sample:
                if dst != self.id:
                    self._transport.send(dst, valid_prepare)


def flooding_factory(burst: int = 3, fake_value: Value = b"flood-value"):
    """Deployment factory for :class:`FloodingReplica`."""

    def build(replica_id, config, crypto, transport):
        return FloodingReplica(
            replica_id, config, crypto, transport, burst=burst, fake_value=fake_value
        )

    return build
