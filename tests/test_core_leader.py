"""Tests for leader rotation and the proposal-selection rule."""

import pytest

from repro.baselines.pbft.predicates import (
    pbft_validate_prepared_certificate,
    pbft_vote_token,
)
from repro.core.leader import (
    compute_proposal,
    leader_of,
    max_prepared_view,
    mode_values,
)
from repro.messages.base import ProposalStatement
from repro.messages.pbft import PbftPrepare
from repro.messages.probft import NewLeader
from repro.quorum.certificates import validate_prepared_certificate

from .helpers import (
    make_crypto,
    make_new_leader,
    make_prepare,
    make_prepared_cert,
    make_statement,
    saturated_config,
)


class TestLeaderRotation:
    def test_round_robin(self):
        config = saturated_config(n=4, f=1)
        assert leader_of(1, config) == 0
        assert leader_of(2, config) == 1
        assert leader_of(4, config) == 3
        assert leader_of(5, config) == 0

    def test_every_replica_leads_within_n_views(self):
        config = saturated_config(n=7, f=2)
        leaders = {leader_of(v, config) for v in range(1, 8)}
        assert leaders == set(range(7))

    def test_rejects_view_zero(self):
        with pytest.raises(ValueError):
            leader_of(0, saturated_config(n=4, f=1))


class TestOffsetLeader:
    """At ``leader_offset=3`` view 1 is replica 3's: every check of the
    schedule accepts it and rejects replica 0, the offset-0 leader."""

    @pytest.fixture
    def setup(self):
        config = saturated_config(leader_offset=3)
        return config, make_crypto(config)

    def test_schedule(self, setup):
        config, _crypto = setup
        assert [leader_of(v, config) for v in (1, 2, 5, 6)] == [3, 4, 7, 0]

    def test_probft_prepared_certificate(self, setup):
        config, crypto = setup
        cert = make_prepared_cert(crypto, config, view=1, value=b"v")
        assert cert[0].payload.statement.signer == 3

        def valid(cert):
            return validate_prepared_certificate(
                cert, 1, b"v", 5, config, crypto.signatures, crypto.vrf
            )

        assert valid(cert)
        replica0 = make_statement(crypto, config, 1, b"v", signer=0)
        assert not valid(
            tuple(make_prepare(crypto, config, s, replica0) for s in range(config.q))
        )

    @pytest.mark.parametrize("leader, accepted", [(3, True), (0, False)])
    def test_pbft_vote_token_and_certificate(self, setup, leader, accepted):
        config, crypto = setup
        statement = crypto.signatures.sign(
            leader, ProposalStatement(view=1, value=b"v", domain="")
        )
        votes = tuple(
            crypto.signatures.sign(s, PbftPrepare(statement=statement))
            for s in range(config.det_quorum)
        )
        token = pbft_vote_token(config, crypto, votes[0])
        assert (token is not None) is accepted
        assert pbft_validate_prepared_certificate(
            votes, 1, b"v", config, crypto
        ) is accepted


class TestModeValues:
    def test_unique_mode(self):
        assert mode_values([b"a", b"a", b"b"]) == frozenset({b"a"})

    def test_tie_returns_all(self):
        assert mode_values([b"a", b"b"]) == frozenset({b"a", b"b"})

    def test_empty(self):
        assert mode_values([]) == frozenset()


class TestMaxPreparedView:
    def test_zero_when_none_prepared(self):
        msgs = [
            NewLeader(view=2, prepared_view=0, prepared_value=None, cert=())
            for _ in range(3)
        ]
        assert max_prepared_view(msgs) == 0

    def test_takes_max(self):
        msgs = [
            NewLeader(view=5, prepared_view=v, prepared_value=b"x", cert=())
            for v in (1, 3, 2)
        ]
        assert max_prepared_view(msgs) == 3


class TestComputeProposal:
    @pytest.fixture
    def setup(self):
        cfg = saturated_config()
        return cfg, make_crypto(cfg)

    def test_no_prepared_uses_own_value(self, setup):
        cfg, crypto = setup
        msgs = [make_new_leader(crypto, cfg, s, view=2) for s in range(5)]
        value, v_max = compute_proposal(msgs, b"mine")
        assert value == b"mine"
        assert v_max is None

    def test_prepared_value_wins(self, setup):
        cfg, crypto = setup
        msgs = [make_new_leader(crypto, cfg, s, view=3) for s in range(4)]
        msgs.append(
            make_new_leader(crypto, cfg, 4, view=3, prepared_view=1,
                            prepared_value=b"decided")
        )
        value, v_max = compute_proposal(msgs, b"mine")
        assert value == b"decided"
        assert v_max == 1

    def test_newest_view_beats_popularity(self, setup):
        cfg, crypto = setup
        # Two senders prepared "old" in view 1, one prepared "new" in view 2.
        msgs = [
            make_new_leader(crypto, cfg, 0, view=3, prepared_view=1,
                            prepared_value=b"old"),
            make_new_leader(crypto, cfg, 1, view=3, prepared_view=1,
                            prepared_value=b"old"),
            make_new_leader(crypto, cfg, 2, view=3, prepared_view=2,
                            prepared_value=b"new"),
        ]
        value, v_max = compute_proposal(msgs, b"mine")
        assert value == b"new"
        assert v_max == 2

    def test_mode_among_newest_view(self, setup):
        cfg, crypto = setup
        msgs = [
            make_new_leader(crypto, cfg, s, view=4, prepared_view=2,
                            prepared_value=b"major")
            for s in range(3)
        ] + [
            make_new_leader(crypto, cfg, 3, view=4, prepared_view=2,
                            prepared_value=b"minor")
        ]
        value, v_max = compute_proposal(msgs, b"mine")
        assert value == b"major"
        assert v_max == 2

    def test_tie_broken_deterministically(self, setup):
        cfg, crypto = setup
        msgs = [
            make_new_leader(crypto, cfg, 0, view=3, prepared_view=1,
                            prepared_value=b"bbb"),
            make_new_leader(crypto, cfg, 1, view=3, prepared_view=1,
                            prepared_value=b"aaa"),
        ]
        value, _ = compute_proposal(msgs, b"mine")
        assert value == b"aaa"  # smallest in byte order
