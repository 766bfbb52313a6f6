"""Tests for the message dataclasses and canonical encodings."""

import pytest

from repro.crypto.hashing import stable_encode
from repro.messages.base import ProposalStatement
from repro.messages.hotstuff import HsPhase, HsQuorumCert, HsVotePayload
from repro.messages.pbft import PbftCommit, PbftNewLeader, PbftPrepare, PbftPropose
from repro.messages.probft import Commit, NewLeader, Prepare, Propose

from .helpers import make_commit, make_crypto, make_prepare, make_propose, make_statement, saturated_config


@pytest.fixture
def setup():
    cfg = saturated_config()
    return cfg, make_crypto(cfg)


class TestProposalStatement:
    def test_conflicts_same_view_different_value(self):
        a = ProposalStatement(view=1, value=b"x")
        b = ProposalStatement(view=1, value=b"y")
        assert a.conflicts_with(b) and b.conflicts_with(a)

    def test_no_conflict_same_value(self):
        a = ProposalStatement(view=1, value=b"x")
        assert not a.conflicts_with(ProposalStatement(view=1, value=b"x"))

    def test_no_conflict_different_view(self):
        a = ProposalStatement(view=1, value=b"x")
        assert not a.conflicts_with(ProposalStatement(view=2, value=b"y"))

    def test_no_conflict_different_domain(self):
        a = ProposalStatement(view=1, value=b"x", domain="slot-1")
        b = ProposalStatement(view=1, value=b"y", domain="slot-2")
        assert not a.conflicts_with(b)

    def test_canonical_stable(self):
        a = ProposalStatement(view=3, value=b"v")
        b = ProposalStatement(view=3, value=b"v")
        assert stable_encode(a) == stable_encode(b)
        c = ProposalStatement(view=3, value=b"v", domain="d")
        assert stable_encode(a) != stable_encode(c)


class TestProBFTMessages:
    def test_propose_value_accessor(self, setup):
        cfg, crypto = setup
        propose = make_propose(crypto, cfg, view=1, value=b"v")
        assert propose.payload.value == b"v"
        assert propose.payload.view == 1

    def test_prepare_commit_accessors(self, setup):
        cfg, crypto = setup
        statement = make_statement(crypto, cfg, 2, b"w", signer=1)
        prepare = make_prepare(crypto, cfg, 3, statement)
        commit = make_commit(crypto, cfg, 3, statement)
        assert prepare.payload.view == 2 and prepare.payload.value == b"w"
        assert commit.payload.view == 2 and commit.payload.value == b"w"
        # Prepare and commit samples come from different seeds.
        assert prepare.payload.sample != commit.payload.sample

    def test_type_labels(self):
        assert Propose.TYPE == "Propose"
        assert Prepare.TYPE == "Prepare"
        assert Commit.TYPE == "Commit"
        assert NewLeader.TYPE == "NewLeader"

    def test_messages_hashable_and_frozen(self, setup):
        cfg, crypto = setup
        statement = make_statement(crypto, cfg, 1, b"v")
        with pytest.raises(Exception):
            statement.payload.view = 9


class TestPbftMessages:
    def test_type_labels(self):
        assert PbftPropose.TYPE == "PbftPropose"
        assert PbftPrepare.TYPE == "PbftPrepare"
        assert PbftCommit.TYPE == "PbftCommit"
        assert PbftNewLeader.TYPE == "PbftNewLeader"

    def test_accessors(self, setup):
        cfg, crypto = setup
        statement = crypto.signatures.sign(0, ProposalStatement(view=1, value=b"v"))
        prepare = PbftPrepare(statement=statement)
        assert prepare.view == 1 and prepare.value == b"v"


class TestHotStuffMessages:
    def test_phase_values(self):
        assert HsPhase.PREPARE.value == "prepare"
        assert [p.value for p in HsPhase] == [
            "prepare", "pre-commit", "commit", "decide",
        ]

    def test_qc_matches(self, setup):
        cfg, crypto = setup
        vote = crypto.signatures.sign(
            1, HsVotePayload(view=2, value=b"v", phase="prepare")
        )
        qc = HsQuorumCert(view=2, value=b"v", phase="prepare", votes=(vote,))
        assert qc.matches(2, b"v", HsPhase.PREPARE)
        assert not qc.matches(3, b"v", HsPhase.PREPARE)
        assert not qc.matches(2, b"w", HsPhase.PREPARE)
        assert not qc.matches(2, b"v", HsPhase.COMMIT)
