"""Metamorphic fuzzing of the safety predicates.

Strategy: start from a *valid* artefact (prepared certificate, NewLeader
quorum, Propose message), apply a random corrupting mutation, and assert the
predicate rejects the mutant.  Any surviving mutant would be a forgery the
protocol accepts — i.e. a safety bug.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import safe_proposal, valid_new_leader
from repro.messages.probft import Prepare, Propose
from repro.quorum.certificates import validate_prepared_certificate

from .helpers import (
    make_crypto,
    make_new_leader,
    make_prepare,
    make_prepared_cert,
    make_propose,
    make_statement,
    quorum_new_leaders,
    saturated_config,
)

CFG = saturated_config()
CRYPTO = make_crypto(CFG)


def _validate_cert(cert, view=1, value=b"v", holder=5):
    return validate_prepared_certificate(
        cert=cert,
        view=view,
        value=value,
        holder=holder,
        config=CFG,
        signatures=CRYPTO.signatures,
        vrf=CRYPTO.vrf,
    )


class TestCertificateMutations:
    @given(st.integers(0, 5), st.binary(min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_signature_bitflips_rejected(self, index, junk):
        cert = list(make_prepared_cert(CRYPTO, CFG, 1, b"v"))
        victim = cert[index % len(cert)]
        cert[index % len(cert)] = replace(
            victim, signature=junk.ljust(32, b"\x00")[:32]
        )
        assert not _validate_cert(tuple(cert))

    @given(st.integers(0, 5), st.integers(0, 7))
    @settings(max_examples=40)
    def test_signer_swaps_rejected(self, index, new_signer):
        cert = list(make_prepared_cert(CRYPTO, CFG, 1, b"v"))
        victim = cert[index % len(cert)]
        if new_signer == victim.signer:
            return
        cert[index % len(cert)] = replace(victim, signer=new_signer)
        assert not _validate_cert(tuple(cert))

    @given(st.integers(0, 5))
    @settings(max_examples=20)
    def test_cross_view_vote_injection_rejected(self, index):
        cert = list(make_prepared_cert(CRYPTO, CFG, 1, b"v"))
        # Replace one vote with a perfectly valid vote... from view 2.
        other_statement = make_statement(CRYPTO, CFG, 2, b"v", signer=1)
        sender = cert[index % len(cert)].signer
        cert[index % len(cert)] = make_prepare(CRYPTO, CFG, sender, other_statement)
        assert not _validate_cert(tuple(cert))

    @given(st.integers(0, 5))
    @settings(max_examples=20)
    def test_sample_swap_rejected(self, index):
        """A vote whose sample belongs to a different sender must fail."""
        cert = list(make_prepared_cert(CRYPTO, CFG, 1, b"v"))
        i = index % len(cert)
        j = (i + 1) % len(cert)
        vote_i: Prepare = cert[i].payload
        vote_j: Prepare = cert[j].payload
        hybrid = CRYPTO.signatures.sign(
            cert[i].signer,
            Prepare(statement=vote_i.statement, sample=vote_j.sample),
        )
        cert[i] = hybrid
        assert not _validate_cert(tuple(cert))

    @given(st.integers(1, 5))
    @settings(max_examples=20)
    def test_truncation_below_q_rejected(self, drop):
        cert = make_prepared_cert(CRYPTO, CFG, 1, b"v")
        truncated = cert[: max(0, len(cert) - drop)]
        assert not _validate_cert(truncated)


class TestProposeMutations:
    @given(st.binary(min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_value_swap_after_signing_rejected(self, new_value):
        propose = make_propose(CRYPTO, CFG, view=1, value=b"honest")
        if new_value == b"honest":
            return
        inner = propose.payload
        tampered_statement = replace(
            inner.statement,
            payload=replace(inner.statement.payload, value=new_value),
        )
        tampered = replace(
            propose,
            payload=Propose(
                view=inner.view,
                statement=tampered_statement,
                justification=inner.justification,
            ),
        )
        assert not safe_proposal(tampered, CFG, CRYPTO)

    @given(st.integers(0, 7))
    @settings(max_examples=30)
    def test_justification_member_swap_rejected(self, index):
        """Replacing a NewLeader with one for a different target view fails."""
        justification = list(quorum_new_leaders(CRYPTO, CFG, view=2))
        victim = justification[index % len(justification)]
        wrong_view = make_new_leader(CRYPTO, CFG, victim.signer, view=3)
        justification[index % len(justification)] = wrong_view
        propose = make_propose(
            CRYPTO, CFG, view=2, value=b"v", justification=tuple(justification)
        )
        assert not safe_proposal(propose, CFG, CRYPTO)

    @given(st.integers(2, 6))
    @settings(max_examples=20)
    def test_replayed_justification_from_other_view_rejected(self, view):
        """A leader cannot reuse view-k NewLeaders to justify view k+1."""
        justification = quorum_new_leaders(CRYPTO, CFG, view=view)
        propose = make_propose(
            CRYPTO, CFG, view=view + 1, value=b"v", justification=justification
        )
        assert not safe_proposal(propose, CFG, CRYPTO)


class TestNewLeaderMutations:
    @given(st.integers(0, 7), st.integers(1, 4))
    @settings(max_examples=30)
    def test_prepared_view_inflation_rejected(self, sender, claimed_view):
        """Claiming a prepared view without a matching cert must fail."""
        cert = make_prepared_cert(CRYPTO, CFG, view=1, value=b"v")
        msg = make_new_leader(
            CRYPTO,
            CFG,
            sender,
            view=claimed_view + 2,
            prepared_view=claimed_view + 1,  # cert is for view 1
            prepared_value=b"v",
            cert=cert,
        )
        if claimed_view + 1 == 1:
            return  # would actually be consistent
        assert not valid_new_leader(msg, claimed_view + 2, CFG, CRYPTO)

    @given(st.binary(min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_prepared_value_swap_rejected(self, other_value):
        if other_value == b"v":
            return
        cert = make_prepared_cert(CRYPTO, CFG, view=1, value=b"v")
        msg = make_new_leader(
            CRYPTO, CFG, 5, view=2,
            prepared_view=1, prepared_value=other_value, cert=cert,
        )
        assert not valid_new_leader(msg, 2, CFG, CRYPTO)
