"""Tests for safeProposal and validNewLeader (paper §3.2)."""

from dataclasses import replace

import pytest

from repro.core.predicates import safe_proposal, valid_new_leader
from repro.messages.probft import Propose

from .helpers import (
    make_crypto,
    make_new_leader,
    make_prepared_cert,
    make_propose,
    make_statement,
    quorum_new_leaders,
    saturated_config,
)


@pytest.fixture
def cfg():
    return saturated_config()


@pytest.fixture
def crypto(cfg):
    return make_crypto(cfg)


class TestValidNewLeader:
    def test_never_prepared_is_valid(self, cfg, crypto):
        msg = make_new_leader(crypto, cfg, 2, view=3)
        assert valid_new_leader(msg, 3, cfg, crypto)

    def test_wrong_target_view_rejected(self, cfg, crypto):
        msg = make_new_leader(crypto, cfg, 2, view=3)
        assert not valid_new_leader(msg, 4, cfg, crypto)

    def test_prepared_with_valid_cert_accepted(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"v", senders=range(cfg.q))
        # Holder must be in every sample; saturated config guarantees it.
        msg = make_new_leader(
            crypto, cfg, 5, view=2, prepared_view=1, prepared_value=b"v", cert=cert
        )
        assert valid_new_leader(msg, 2, cfg, crypto)

    def test_prepared_view_not_less_than_target_rejected(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=2, value=b"v")
        msg = make_new_leader(
            crypto, cfg, 5, view=2, prepared_view=2, prepared_value=b"v", cert=cert
        )
        assert not valid_new_leader(msg, 2, cfg, crypto)

    def test_prepared_without_cert_rejected(self, cfg, crypto):
        msg = make_new_leader(
            crypto, cfg, 5, view=3, prepared_view=1, prepared_value=b"v", cert=()
        )
        assert not valid_new_leader(msg, 3, cfg, crypto)

    def test_never_prepared_with_value_rejected(self, cfg, crypto):
        msg = make_new_leader(
            crypto, cfg, 5, view=3, prepared_view=0, prepared_value=b"v"
        )
        assert not valid_new_leader(msg, 3, cfg, crypto)

    def test_prepared_value_none_rejected(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"v")
        msg = make_new_leader(
            crypto, cfg, 5, view=3, prepared_view=1, prepared_value=None, cert=cert
        )
        assert not valid_new_leader(msg, 3, cfg, crypto)

    def test_bad_signature_rejected(self, cfg, crypto):
        msg = make_new_leader(crypto, cfg, 2, view=3)
        forged = replace(msg, signer=3)
        assert not valid_new_leader(forged, 3, cfg, crypto)

    def test_cert_for_other_value_rejected(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"other")
        msg = make_new_leader(
            crypto, cfg, 5, view=2, prepared_view=1, prepared_value=b"v", cert=cert
        )
        assert not valid_new_leader(msg, 2, cfg, crypto)


class TestSafeProposalView1:
    def test_view1_leader_proposal_accepted(self, cfg, crypto):
        propose = make_propose(crypto, cfg, view=1, value=b"v")
        assert safe_proposal(propose, cfg, crypto)

    def test_wrong_leader_rejected(self, cfg, crypto):
        propose = make_propose(crypto, cfg, view=1, value=b"v", signer=3)
        assert not safe_proposal(propose, cfg, crypto)

    def test_invalid_value_rejected(self, cfg, crypto):
        cfg_picky = saturated_config(valid=lambda x: x != b"bad")
        good = make_propose(crypto, cfg_picky, view=1, value=b"ok")
        bad = make_propose(crypto, cfg_picky, view=1, value=b"bad")
        assert safe_proposal(good, cfg_picky, crypto)
        assert not safe_proposal(bad, cfg_picky, crypto)

    def test_statement_view_mismatch_rejected(self, cfg, crypto):
        statement = make_statement(crypto, cfg, 2, b"v", signer=0)
        propose = crypto.signatures.sign(
            0, Propose(view=1, statement=statement, justification=None)
        )
        assert not safe_proposal(propose, cfg, crypto)

    def test_tampered_outer_signature_rejected(self, cfg, crypto):
        propose = make_propose(crypto, cfg, view=1, value=b"v")
        assert not safe_proposal(
            replace(propose, signature=b"\x00" * 32), cfg, crypto
        )

    def test_wrong_domain_rejected(self, cfg, crypto):
        other = saturated_config(seed_domain="slot-2")
        propose = make_propose(crypto, other, view=1, value=b"v")
        assert not safe_proposal(propose, cfg, crypto)


class TestSafeProposalLaterViews:
    def test_view2_with_quorum_accepted(self, cfg, crypto):
        justification = quorum_new_leaders(crypto, cfg, view=2)
        propose = make_propose(
            crypto, cfg, view=2, value=b"v", justification=justification
        )
        assert safe_proposal(propose, cfg, crypto)

    def test_view2_without_justification_rejected(self, cfg, crypto):
        propose = make_propose(crypto, cfg, view=2, value=b"v", justification=None)
        assert not safe_proposal(propose, cfg, crypto)

    def test_too_small_justification_rejected(self, cfg, crypto):
        small = quorum_new_leaders(crypto, cfg, view=2)[: cfg.det_quorum - 1]
        propose = make_propose(
            crypto, cfg, view=2, value=b"v", justification=tuple(small)
        )
        assert not safe_proposal(propose, cfg, crypto)

    def test_duplicate_signers_rejected(self, cfg, crypto):
        one = make_new_leader(crypto, cfg, 0, view=2)
        padded = tuple([one] * cfg.det_quorum)
        propose = make_propose(
            crypto, cfg, view=2, value=b"v", justification=padded
        )
        assert not safe_proposal(propose, cfg, crypto)

    def test_must_repropose_prepared_value(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"locked")
        justification = quorum_new_leaders(
            crypto, cfg, view=2, prepared=[(5, 1, b"locked", cert)]
        )
        good = make_propose(
            crypto, cfg, view=2, value=b"locked", justification=justification
        )
        bad = make_propose(
            crypto, cfg, view=2, value=b"hijack", justification=justification
        )
        assert safe_proposal(good, cfg, crypto)
        assert not safe_proposal(bad, cfg, crypto)

    def test_mode_recomputation(self, cfg, crypto):
        cert_a = make_prepared_cert(crypto, cfg, view=1, value=b"a")
        cert_b = make_prepared_cert(crypto, cfg, view=1, value=b"b")
        justification = quorum_new_leaders(
            crypto,
            cfg,
            view=2,
            prepared=[
                (4, 1, b"a", cert_a),
                (5, 1, b"a", cert_a),
                (6, 1, b"b", cert_b),
            ],
        )
        majority = make_propose(
            crypto, cfg, view=2, value=b"a", justification=justification
        )
        minority = make_propose(
            crypto, cfg, view=2, value=b"b", justification=justification
        )
        assert safe_proposal(majority, cfg, crypto)
        assert not safe_proposal(minority, cfg, crypto)

    def test_invalid_new_leader_in_justification_rejected(self, cfg, crypto):
        justification = list(quorum_new_leaders(crypto, cfg, view=2))
        justification[0] = replace(justification[0], signature=b"\x00" * 32)
        propose = make_propose(
            crypto, cfg, view=2, value=b"v", justification=tuple(justification)
        )
        assert not safe_proposal(propose, cfg, crypto)

    def test_view_zero_rejected(self, cfg, crypto):
        statement = make_statement(crypto, cfg, 1, b"v")
        bogus = crypto.signatures.sign(
            0, Propose(view=0, statement=statement, justification=None)
        )
        assert not safe_proposal(bogus, cfg, crypto)
