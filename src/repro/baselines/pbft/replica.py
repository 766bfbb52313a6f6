"""Single-shot PBFT replica (paper §2.3): ProBFT's skeleton, PBFT's rules.

PBFT is the baseline the paper measures ProBFT against, and it is ProBFT's
Algorithm 1 with the two differences Figure 3 highlights, so
:class:`PbftReplica` is a :class:`~repro.core.replica.ProBFTReplica` that
overrides only its protocol hooks:

* Prepare and Commit are **broadcast to all replicas** instead of multicast
  to VRF samples: the vote token names no sample (every replica counts it);
* all quorums are **deterministic** (``⌈(n+f+1)/2⌉``), so any two quorums
  intersect in a correct replica and agreement is certain, at the cost of
  ``O(n²)`` messages — and no evidence rule (lines 23-25) is needed;
* its own messages, predicates and leader's rule
  (:mod:`repro.baselines.pbft.predicates`).

Everything else — views, buffering, the prepared certificate, the quorum
re-checks, and in production the vote kernel over columnar state — is
ProBFT's (DESIGN.md, "PBFT on the ProBFT skeleton").
"""

from __future__ import annotations

from ...config import ProtocolConfig
from ...core.replica import ProBFTReplica
from ...crypto.signatures import Signed
from ...messages.pbft import PbftCommit, PbftNewLeader, PbftPrepare, PbftPropose
from ...types import View
from .predicates import (
    pbft_choose_value,
    pbft_safe_proposal,
    pbft_valid_new_leader,
    pbft_vote_token,
)


class PbftReplica(ProBFTReplica):
    """A correct single-shot PBFT replica."""

    PROPOSE, NEW_LEADER = PbftPropose, PbftNewLeader
    VOTES = (PbftPrepare, PbftCommit)
    #: One future view can legitimately hold about 2n broadcast votes.
    FUTURE_BUFFER_LIMIT = 8192
    vote_token = staticmethod(pbft_vote_token)
    safe_proposal = staticmethod(pbft_safe_proposal)
    valid_new_leader = staticmethod(pbft_valid_new_leader)
    choose_value = staticmethod(pbft_choose_value)

    @staticmethod
    def quorum(config: ProtocolConfig) -> int:
        """A deterministic quorum, ``⌈(n+f+1)/2⌉``."""
        return config.det_quorum

    def _new_leader_payload(self, view: View) -> PbftNewLeader:
        return PbftNewLeader(
            view=view,
            prepared_view=self._prepared_view,
            prepared_value=self._prepared_value,
            cert=self._cert,
        )

    def _send_vote(self, is_prepare: bool, statement: Signed) -> None:
        """Broadcast the vote to every replica, this one included."""
        vote = PbftPrepare if is_prepare else PbftCommit
        message = self._sign(vote(statement=statement))
        self._transport.broadcast(message)
        self._deliver_local(message)

    def _check_equivocation(self, message: Signed) -> None:
        """No lines 23-25: with deterministic quorums a second proposal is
        simply not voted for."""
