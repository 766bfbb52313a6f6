"""Single-shot PBFT baseline messages (paper §2.3, Figure 2).

Identical shape to ProBFT's messages minus the VRF samples: Prepare and
Commit are *broadcast* to everyone and quorums are deterministic
(``⌈(n+f+1)/2⌉``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..crypto.signatures import Signed
from ..types import Value, View
from .base import CanonicalMessage, ProposalStatement

#: What every Propose / Prepare / Commit must carry (see
#: :func:`repro.crypto.verdicts.well_formed`): a signed statement whose
#: value is a ``Value`` (:attr:`ProposalStatement.keyable`).
SHAPE = {
    "statement": {type: Signed, "payload": {type: ProposalStatement, "value": Value}}
}


@dataclass(frozen=True)
class PbftPropose(CanonicalMessage):
    """Leader's proposal (``pre-prepare`` in original PBFT terminology)."""

    TYPE = "PbftPropose"

    view: View
    statement: Signed  # Signed[ProposalStatement] by leader(view)
    justification: Optional[Tuple[Signed, ...]]  # Signed[PbftNewLeader] quorum

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
    cert: Tuple[Signed, ...]  # Signed[PbftPrepare] deterministic quorum


@dataclass(frozen=True)
class PbftPrepare(CanonicalMessage):
    """Prepare vote, broadcast to all replicas."""

    TYPE = "PbftPrepare"

    statement: Signed

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

    statement: Signed

    @property
    def view(self) -> View:
        return self.statement.payload.view

    @property
    def value(self) -> Value:
        return self.statement.payload.value
