"""Tests for prepared certificates (the ``prepared`` predicate)."""

from dataclasses import replace

import pytest

from repro.core.predicates import valid_new_leader
from repro.messages.probft import Prepare
from repro.quorum.certificates import validate_prepared_certificate

from .helpers import (
    make_crypto,
    make_new_leader,
    make_prepare,
    make_prepared_cert,
    make_statement,
    saturated_config,
)


@pytest.fixture
def cfg():
    return saturated_config()


@pytest.fixture
def crypto(cfg):
    return make_crypto(cfg)


def validate(cert, cfg, crypto, view=1, value=b"v", holder=5):
    return validate_prepared_certificate(
        cert=cert,
        view=view,
        value=value,
        holder=holder,
        config=cfg,
        signatures=crypto.signatures,
        vrf=crypto.vrf,
    )


class TestValidCertificates:
    def test_valid_certificate_accepted(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"v")
        assert validate(cert, cfg, crypto)

    def test_value_none_accepts_any_consistent_value(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"v")
        assert validate(cert, cfg, crypto, value=None)

    def test_more_than_q_messages_fine(self, cfg, crypto):
        cert = make_prepared_cert(
            crypto, cfg, view=1, value=b"v", senders=range(cfg.q + 2)
        )
        assert validate(cert, cfg, crypto)

    def test_later_view_certificate(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=3, value=b"v")
        assert validate(cert, cfg, crypto, view=3)


class TestInvalidCertificates:
    def test_too_few_messages(self, cfg, crypto):
        cert = make_prepared_cert(
            crypto, cfg, view=1, value=b"v", senders=range(cfg.q - 1)
        )
        assert not validate(cert, cfg, crypto)

    def test_wrong_value_rejected(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"v")
        assert not validate(cert, cfg, crypto, value=b"other")

    def test_wrong_view_rejected(self, cfg, crypto):
        cert = make_prepared_cert(crypto, cfg, view=1, value=b"v")
        assert not validate(cert, cfg, crypto, view=2)

    def test_duplicate_senders_rejected(self, cfg, crypto):
        statement = make_statement(crypto, cfg, 1, b"v")
        one = make_prepare(crypto, cfg, 0, statement)
        cert = tuple([one] * cfg.q)
        assert not validate(cert, cfg, crypto)

    def test_statement_not_by_leader_rejected(self, cfg, crypto):
        bad_statement = make_statement(crypto, cfg, 1, b"v", signer=3)  # leader(1)=0
        cert = tuple(
            make_prepare(crypto, cfg, s, bad_statement) for s in range(cfg.q)
        )
        assert not validate(cert, cfg, crypto)

    def test_mixed_values_rejected(self, cfg, crypto):
        a = make_prepared_cert(crypto, cfg, 1, b"a", senders=range(cfg.q - 1))
        b = make_prepared_cert(crypto, cfg, 1, b"b", senders=[cfg.q])
        assert not validate(a + b, cfg, crypto, value=None)

    def test_tampered_outer_signature_rejected(self, cfg, crypto):
        cert = list(make_prepared_cert(crypto, cfg, 1, b"v"))
        cert[0] = replace(cert[0], signature=b"\x00" * 32)
        assert not validate(tuple(cert), cfg, crypto)

    def test_forged_vrf_sample_rejected(self, cfg, crypto):
        cert = list(make_prepared_cert(crypto, cfg, 1, b"v"))
        prepare: Prepare = cert[0].payload
        forged_sample = replace(prepare.sample, proof=b"\x11" * 32)
        forged = crypto.signatures.sign(
            cert[0].signer, Prepare(statement=prepare.statement, sample=forged_sample)
        )
        cert[0] = forged
        assert not validate(tuple(cert), cfg, crypto)

    def test_non_prepare_payload_rejected(self, cfg, crypto):
        """A certificate is only read inside a NewLeader that conforms to
        its wire type: one holding anything but signed Prepares is not."""
        statement = make_statement(crypto, cfg, 1, b"v")
        bogus = crypto.signatures.sign(0, statement.payload)
        cert = make_prepared_cert(crypto, cfg, 1, b"v", senders=range(cfg.q - 1))
        msg = make_new_leader(
            crypto, cfg, 5, view=2, prepared_view=1, prepared_value=b"v",
            cert=cert + (bogus,),
        )
        assert not valid_new_leader(msg, 2, cfg, crypto)

    def test_wrong_domain_rejected(self, cfg, crypto):
        other_cfg = saturated_config(seed_domain="slot-9")
        cert = make_prepared_cert(crypto, other_cfg, 1, b"v")
        assert not validate(cert, cfg, crypto)

    def test_empty_certificate_rejected(self, cfg, crypto):
        assert not validate((), cfg, crypto)
