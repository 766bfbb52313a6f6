"""PBFT analogues of ``prepared`` / ``validNewLeader`` / ``safeProposal``,
the leader's rule and the vote token.

With deterministic quorums any two prepared certificates for the same view
carry the same value, so the view-change rule simplifies: the new leader
re-proposes the value prepared in the *highest* view reported by its quorum
(no ``mode`` needed, unlike ProBFT).

None of these depends on who evaluates it: each is evaluated once per
message object through the instance's verdict table
(:meth:`CryptoContext.validated
<repro.crypto.context.CryptoContext.validated>`), however many replicas a
broadcast reaches.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...config import ProtocolConfig
from ...crypto.context import CryptoContext
from ...crypto.signatures import Signed
from ...core.leader import leader_of
from ...core.replica import _VoteToken
from ...messages.base import conforms
from ...messages.pbft import PbftCommit, PbftNewLeader, PbftPrepare, PbftPropose
from ...types import Value, View


def pbft_validate_prepared_certificate(
    cert: Tuple[Signed, ...],
    view: View,
    value: Optional[Value],
    config: ProtocolConfig,
    crypto: CryptoContext,
) -> bool:
    """A deterministic quorum of signed PbftPrepare messages for (view, value)
    (``cert`` conforms to a NewLeader's wire type)."""
    expected_leader = leader_of(view, config)
    seen = set()
    expected_value = value
    for signed in cert:
        if not crypto.signatures.verify(signed):
            return False
        statement = signed.payload.statement
        if not crypto.signatures.verify(statement):
            return False
        inner = statement.payload
        if statement.signer != expected_leader or inner.view != view:
            return False
        if expected_value is None:
            expected_value = inner.value
        elif inner.value != expected_value:
            return False
        if signed.signer in seen:
            return False
        seen.add(signed.signer)
    return len(seen) >= config.det_quorum


def pbft_vote_token(
    config: ProtocolConfig, crypto: CryptoContext, signed: object
) -> Optional[_VoteToken]:
    """A signed, well-typed PbftPrepare/PbftCommit over a statement its
    view's leader signed, as the vote token of the ProBFT skeleton: every
    replica is a recipient (``members=None``) and nothing is evidence.  An
    invalid vote is no vote (``None``): neither buffered nor counted."""
    if type(getattr(signed, "payload", None)) not in (PbftPrepare, PbftCommit):
        return None
    token = crypto.validated(
        config, "vote", signed, lambda: _vote_token(signed, config, crypto)
    )
    return token or None


def _vote_token(signed: Signed, config: ProtocolConfig, crypto: CryptoContext):
    if not conforms(signed, Signed, crypto.verdicts):
        return False
    if not crypto.signatures.verify(signed):
        return False
    statement = signed.payload.statement
    if not crypto.signatures.verify(statement):
        return False
    inner = statement.payload
    view = inner.view
    if view < 1 or statement.signer != leader_of(view, config):
        return False
    return _VoteToken(
        is_prepare=type(signed.payload) is PbftPrepare,
        view=view,
        value=inner.value,
        signer=signed.signer,
        members=None,
        valid=True,
        eq_candidate=False,
    )


def pbft_valid_new_leader(
    signed: Signed,
    target_view: View,
    config: ProtocolConfig,
    crypto: CryptoContext,
) -> bool:
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
    if not conforms(signed, Signed[PbftNewLeader], crypto.verdicts):
        return False
    if not crypto.signatures.verify(signed):
        return False
    msg = signed.payload
    if msg.view != target_view or not msg.prepared_view < target_view:
        return False
    if (msg.prepared_view == 0) != (msg.prepared_value is None):
        return False  # a value exactly when something was prepared
    if msg.prepared_view == 0:
        return not msg.cert
    return pbft_validate_prepared_certificate(
        msg.cert, msg.prepared_view, msg.prepared_value, config, crypto
    )


def pbft_choose_value(
    justification: Tuple[Signed, ...], my_value: Value
) -> Tuple[Value, View]:
    """Leader's rule: value prepared in the highest view, else own value.

    Returns ``(value, v_max)`` with ``v_max == 0`` when nothing was prepared.
    """
    v_max = 0
    chosen = my_value
    for m in justification:
        payload: PbftNewLeader = m.payload
        if payload.prepared_view > v_max and payload.prepared_value is not None:
            v_max = payload.prepared_view
            chosen = payload.prepared_value
    return chosen, v_max


def pbft_safe_proposal(
    signed: Signed, config: ProtocolConfig, crypto: CryptoContext
) -> bool:
    return crypto.validated(
        config, "propose", signed, lambda: _safe_proposal(signed, config, crypto)
    )


def _safe_proposal(
    signed: Signed, config: ProtocolConfig, crypto: CryptoContext
) -> bool:
    if not conforms(signed, Signed[PbftPropose], crypto.verdicts):
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
    statement = propose.statement
    if not crypto.signatures.verify(statement):
        return False
    inner = statement.payload
    if inner.view != view or statement.signer != expected_leader:
        return False
    if not config.valid(inner.value):
        return False
    if view == 1:
        return True
    justification = propose.justification
    if justification is None:
        return False
    signers = {m.signer for m in justification}
    if len(signers) < config.det_quorum or len(signers) != len(justification):
        return False
    for m in justification:
        if not pbft_valid_new_leader(m, view, config, crypto):
            return False
    _chosen, v_max = pbft_choose_value(justification, inner.value)
    if v_max == 0:
        return True
    # The proposed value must be one prepared at v_max (all v_max certificates
    # agree on the value thanks to deterministic quorum intersection).
    for m in justification:
        payload: PbftNewLeader = m.payload
        if payload.prepared_view == v_max and payload.prepared_value == inner.value:
            return True
    return False
