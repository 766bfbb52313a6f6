"""Single-shot PBFT baseline messages (paper §2.3, Figure 2).

Identical shape to ProBFT's messages minus the VRF samples (and the seed
domain): Prepare and Commit are *broadcast* to everyone and quorums are
deterministic (``⌈(n+f+1)/2⌉``).  A PBFT replica is ProBFT's replica with
these types plugged in (:mod:`repro.baselines.pbft.replica`), so its votes
ride the same vote kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..crypto.signatures import Signed
from ..types import Value, View
from .base import CanonicalMessage, ProposalStatement

@dataclass(frozen=True)
class PbftPropose(CanonicalMessage):
    """Leader's proposal (``pre-prepare`` in original PBFT terminology)."""

    TYPE = "PbftPropose"

    view: View
    statement: Signed[ProposalStatement]  # by leader(view)
    justification: Optional[Tuple[Signed[PbftNewLeader], ...]]

    @property
    def value(self) -> Value:
        return self.statement.payload.value


@dataclass(frozen=True)
class PbftNewLeader(CanonicalMessage):
    """View-change message to the new leader with the sender's prepared state."""

    TYPE = "PbftNewLeader"

    view: View
    prepared_view: View
    prepared_value: Optional[Value]
    cert: Tuple[Signed[PbftPrepare], ...]  # a deterministic quorum


@dataclass(frozen=True)
class PbftPrepare(CanonicalMessage):
    """Prepare vote, broadcast to all replicas."""

    TYPE = "PbftPrepare"

    statement: Signed[ProposalStatement]

    @property
    def view(self) -> View:
        return self.statement.payload.view

    @property
    def value(self) -> Value:
        return self.statement.payload.value


@dataclass(frozen=True)
class PbftCommit(CanonicalMessage):
    """Commit vote, broadcast to all replicas."""

    TYPE = "PbftCommit"

    statement: Signed[ProposalStatement]

    @property
    def view(self) -> View:
        return self.statement.payload.view

    @property
    def value(self) -> Value:
        return self.statement.payload.value
