"""Prepared certificates and the paper's ``prepared`` predicate.

A *prepared certificate* for value ``x`` in view ``v`` held by replica ``j``
is a set ``C`` of signed Prepare messages such that (paper §3.2)::

    prepared(C, v, x, j)  <=>
        ∃Q: |Q| = q  ∧  C = {⟨Prepare, ⟨v,x⟩_leader, S_k, P_k⟩_k : k ∈ Q}
        ∧ leader-signed statement is by leader(v)
        ∧ ∀ messages: j ∈ S_k ∧ VRF_verify(K_u,k, v‖"prepare", o·q, S_k, P_k)

plus (implicitly) that every outer signature verifies and senders are
distinct.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import ProtocolConfig
from ..core.leader import leader_of
from ..crypto.signatures import SignatureScheme, Signed
from ..crypto.vrf import VRF, phase_seed
from ..types import ReplicaId, Value, View


def validate_prepared_certificate(
    cert: Tuple[Signed, ...],
    view: View,
    value: Optional[Value],
    holder: ReplicaId,
    config: ProtocolConfig,
    signatures: SignatureScheme,
    vrf: VRF,
) -> bool:
    """Implements ``prepared(C, v, x, j)`` over raw signed messages.

    Args:
        cert: the candidate certificate, conforming to its wire type
            ``Tuple[Signed[Prepare], ...]`` (a NewLeader's ``cert``).
        view: the view ``v`` the certificate claims.
        value: the value ``x`` (``None`` accepts any single consistent value).
        holder: the replica ``j`` that claims to hold the certificate.
        config: protocol parameters (supplies ``q`` and sample size).
        signatures / vrf: verification services.
    """
    if len(cert) < config.q:
        return False
    expected_leader = leader_of(view, config)
    seed = phase_seed(view, "prepare", config.seed_domain)
    seen_senders = set()
    statement_value: Optional[Value] = value
    for signed in cert:
        if not signatures.verify(signed):
            return False
        prepare = signed.payload
        statement = prepare.statement
        if not signatures.verify(statement):
            return False
        inner = statement.payload
        if statement.signer != expected_leader:
            return False
        if inner.view != view or inner.domain != config.seed_domain:
            return False
        if statement_value is None:
            statement_value = inner.value
        elif inner.value != statement_value:
            return False
        if signed.signer in seen_senders:
            return False
        seen_senders.add(signed.signer)
        # The VRF owns what is inside a sample: verified before it is read.
        sample = prepare.sample
        if not vrf.verify(signed.signer, seed, config.sample_size, sample):
            return False
        if holder not in sample.sample:
            return False
    return len(seen_senders) >= config.q
