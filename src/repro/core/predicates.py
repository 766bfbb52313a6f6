"""The ``validNewLeader`` and ``safeProposal`` predicates (paper §3.2).

::

    validNewLeader(⟨NewLeader, v, view, val, cert⟩_j)  <=>
        view < v  ∧  (view ≠ 0 ⇒ prepared(cert, view, val, j))

    safeProposal(⟨Propose, ⟨v, x⟩_j, M⟩_j)  <=>
        v ≥ 1 ∧ j = leader(v) ∧ valid(x) ∧ (v = 1 ∨
          (|M| ≥ ⌈(n+f+1)/2⌉ ∧ (∀m ∈ M: validNewLeader(m)) ∧
           (∃v_max = max prepared views in M ∧ x = mode of values at v_max)))

Correct replicas *redo the leader's computation* on the justification set
``M`` shipped inside the Propose message, so a Byzantine leader cannot
propose a value that contradicts what a (deterministic-quorum) majority
prepared in the latest view — this is what protects decisions across view
changes (Theorem 8).

Neither predicate depends on who evaluates it, so each is evaluated once
per message object through the instance's verdict table (:meth:`CryptoContext.validated
<repro.crypto.context.CryptoContext.validated>`), as is the ``prepared``
check of a certificate: the 2f+1 NewLeader signatures of a view-change
justification are checked once per view, not once per replica, and the
leader's own verdict on each NewLeader is the one its followers read.  The
verdict is kept by the table, never read off the message: a sender cannot
supply it.
"""

from __future__ import annotations

from typing import Tuple

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..messages.base import conforms
from ..messages.probft import NewLeader, Propose
from ..quorum.certificates import validate_prepared_certificate
from ..types import View
from .leader import leader_of, max_prepared_view, mode_values

def valid_new_leader(
    signed: Signed,
    target_view: View,
    config: ProtocolConfig,
    crypto: CryptoContext,
) -> bool:
    """``validNewLeader`` over a signed NewLeader message for ``target_view``."""
    return crypto.validated(
        config,
        "new_leader",
        signed,
        lambda: _valid_new_leader(signed, target_view, config, crypto),
        (target_view,),
    )


def _valid_new_leader(
    signed: Signed,
    target_view: View,
    config: ProtocolConfig,
    crypto: CryptoContext,
) -> bool:
    if not conforms(signed, Signed[NewLeader], crypto.verdicts):
        return False
    if not crypto.signatures.verify(signed):
        return False
    msg = signed.payload
    if msg.view != target_view or msg.domain != config.seed_domain:
        return False
    if not msg.prepared_view < target_view:
        return False
    if (msg.prepared_view == 0) != (msg.prepared_value is None):
        return False  # a value exactly when something was prepared
    if msg.prepared_view == 0:
        return not msg.cert

    def prepared() -> bool:
        return validate_prepared_certificate(
            cert=msg.cert,
            view=msg.prepared_view,
            value=msg.prepared_value,
            holder=signed.signer,
            config=config,
            signatures=crypto.signatures,
            vrf=crypto.vrf,
        )

    # A replica re-sends the same certificate tuple in every later view's
    # NewLeader until it prepares again.
    return crypto.validated(
        config,
        "certificate",
        msg.cert,
        prepared,
        (msg.prepared_view, msg.prepared_value, signed.signer),
    )


def _justification_is_quorum(
    justification: Tuple[Signed, ...], config: ProtocolConfig
) -> bool:
    """``|M| ≥ ⌈(n+f+1)/2⌉`` with distinct signers (a quorum, not a multiset)."""
    signers = {m.signer for m in justification}
    return len(signers) >= config.det_quorum and len(signers) == len(justification)


def safe_proposal(
    signed: Signed, config: ProtocolConfig, crypto: CryptoContext
) -> bool:
    """``safeProposal`` over a signed Propose message."""
    return crypto.validated(
        config, "propose", signed, lambda: _safe_proposal(signed, config, crypto)
    )


def _safe_proposal(
    signed: Signed, config: ProtocolConfig, crypto: CryptoContext
) -> bool:
    if not conforms(signed, Signed[Propose], crypto.verdicts):
        return False
    if not crypto.signatures.verify(signed):
        return False
    propose = signed.payload
    view = propose.view
    if view < 1:
        return False
    expected_leader = leader_of(view, config)
    if signed.signer != expected_leader:
        return False
    # The inner statement must be consistent and signed by the same leader.
    statement = propose.statement
    if not crypto.signatures.verify(statement):
        return False
    inner = statement.payload
    if inner.view != view or statement.signer != expected_leader:
        return False
    if inner.domain != config.seed_domain:
        return False
    if not config.valid(inner.value):
        return False
    if view == 1:
        return True
    justification = propose.justification
    if justification is None:
        return False
    if not _justification_is_quorum(justification, config):
        return False
    for m in justification:
        if not valid_new_leader(m, view, config, crypto):
            return False
    payloads = [m.payload for m in justification]
    v_max = max_prepared_view(payloads)
    if v_max == 0:
        # Nobody prepared: any valid value is acceptable.
        return True
    candidates = [
        m.prepared_value
        for m in payloads
        if m.prepared_view == v_max and m.prepared_value is not None
    ]
    modes = mode_values(candidates)
    return inner.value in modes
