"""ProBFT message types (Algorithm 1).

All outer messages travel wrapped in :class:`repro.crypto.signatures.Signed`
(the paper's ``⟨...⟩_i``).  Field names follow the algorithm:

* ``Propose``   — line 3/10/12: ``⟨Propose, ⟨v, x⟩_leader, M⟩_leader`` where
  ``M`` is the justification (a deterministic quorum of NewLeader messages,
  or ``None`` in view 1).
* ``NewLeader`` — line 5: ``⟨NewLeader, v, preparedView, preparedVal, cert⟩_i``.
* ``Prepare``   — line 16: ``⟨Prepare, ⟨v, x⟩_leader, S_p, P_p⟩_i``.
* ``Commit``    — line 20: ``⟨Commit, ⟨v, x⟩_leader, S_c, P_c⟩_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..crypto.signatures import Signed
from ..crypto.vrf import VRFOutput
from ..types import Value, View
from .base import CanonicalMessage, ProposalStatement


@dataclass(frozen=True)
class Propose(CanonicalMessage):
    """The leader's proposal for a view.

    ``justification`` is the set ``M`` of signed NewLeader messages the
    leader collected (``None`` only in view 1).
    """

    TYPE = "Propose"

    view: View
    statement: Signed[ProposalStatement]  # signed by leader(view)
    justification: Optional[Tuple[Signed[NewLeader], ...]]

    @property
    def value(self) -> Value:
        return self.statement.payload.value


@dataclass(frozen=True)
class NewLeader(CanonicalMessage):
    """Sent to the leader of a new view with the sender's prepared state.

    ``prepared_view == 0`` means the sender never prepared a value; then
    ``prepared_value`` is ``None`` and ``cert`` is empty.
    ``cert`` is the prepared certificate: a tuple of signed Prepare messages
    forming a probabilistic quorum (paper's ``prepared`` predicate).
    """

    TYPE = "NewLeader"

    view: View
    prepared_view: View
    prepared_value: Optional[Value]
    cert: Tuple[Signed[Prepare], ...]
    domain: str = ""


@dataclass(frozen=True)
class Prepare(CanonicalMessage):
    """Prepare vote multicast to the sender's VRF sample ``S_p``."""

    TYPE = "Prepare"

    statement: Signed[ProposalStatement]  # signed by leader(view)
    sample: VRFOutput  # (S_p, P_p)

    @property
    def view(self) -> View:
        return self.statement.payload.view

    @property
    def value(self) -> Value:
        return self.statement.payload.value


@dataclass(frozen=True)
class Commit(CanonicalMessage):
    """Commit vote multicast to the sender's VRF sample ``S_c``."""

    TYPE = "Commit"

    statement: Signed[ProposalStatement]  # signed by leader(view)
    sample: VRFOutput  # (S_c, P_c)

    @property
    def view(self) -> View:
        return self.statement.payload.view

    @property
    def value(self) -> Value:
        return self.statement.payload.value
