"""Single-shot (basic) HotStuff baseline messages.

Basic HotStuff runs four leader-driven phases — PREPARE, PRE-COMMIT, COMMIT,
DECIDE — each consisting of a leader-to-all proposal and an all-to-leader
vote round, giving linear message complexity and ~8 communication steps
(the trade-off Figure 1a illustrates against PBFT/ProBFT's 3 steps).

Quorum certificates (QCs) are tuples of signed votes; with a real threshold
signature scheme a QC would be constant-size, which affects *bit* complexity
but not the message counts the paper compares.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..crypto.signatures import Signed
from ..types import Value, View
from .base import CanonicalMessage


class HsPhase(enum.Enum):
    """The four vote phases of basic HotStuff."""

    PREPARE = "prepare"
    PRE_COMMIT = "pre-commit"
    COMMIT = "commit"
    DECIDE = "decide"

    def next_phase(self) -> Optional["HsPhase"]:
        order = [
            HsPhase.PREPARE,
            HsPhase.PRE_COMMIT,
            HsPhase.COMMIT,
            HsPhase.DECIDE,
        ]
        idx = order.index(self)
        return order[idx + 1] if idx + 1 < len(order) else None


@dataclass(frozen=True)
class HsVotePayload(CanonicalMessage):
    """What a replica signs when voting: (view, value, phase)."""

    view: View
    value: Value
    phase: str  # HsPhase.value


@dataclass(frozen=True)
class HsQuorumCert(CanonicalMessage):
    """A quorum certificate: ``n - f`` matching signed votes for one phase."""

    view: View
    value: Value
    phase: str
    votes: Tuple[Signed[HsVotePayload], ...]

    def matches(self, view: View, value: Value, phase: HsPhase) -> bool:
        return self.view == view and self.value == value and self.phase == phase.value


@dataclass(frozen=True)
class HsNewView(CanonicalMessage):
    """Replica → new leader: carries the highest prepare-QC the sender saw."""

    TYPE = "HsNewView"

    view: View
    prepare_qc: Optional[HsQuorumCert]


@dataclass(frozen=True)
class HsProposal(CanonicalMessage):
    """Leader → all: drives one phase forward.

    In the PREPARE phase ``justify`` is the high QC from NewView messages (or
    ``None`` in view 1); in later phases it is the QC aggregated from the
    previous phase's votes.
    """

    TYPE = "HsProposal"

    view: View
    value: Value
    phase: str  # HsPhase.value
    justify: Optional[HsQuorumCert]


@dataclass(frozen=True)
class HsVote(CanonicalMessage):
    """Replica → leader: a signed vote for (view, value, phase)."""

    TYPE = "HsVote"

    vote: Signed[HsVotePayload]

    @property
    def view(self) -> View:
        return self.vote.payload.view

    @property
    def value(self) -> Value:
        return self.vote.payload.value

    @property
    def phase(self) -> str:
        return self.vote.payload.phase
