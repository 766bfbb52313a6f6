"""Tests for the streamlined (view-change-free) ProBFT variant."""

import pytest

from repro.adversary.behaviors import silent_factory
from repro.config import ProtocolConfig
from repro.core.deployment import default_value
from repro.harness.parallel import derive_seed
from repro.harness.registry import (
    MatrixCell,
    ScenarioMatrix,
    cell_deployment_spec,
    run_matrix,
)
from repro.harness.trial import TrialContext, run_trial
from repro.net.latency import UniformLatency
from repro.streamlined import GENESIS, Block, StreamDeployment
from repro.streamlined.block import BlockProposal, BlockVote
from repro.sync.timeouts import FixedTimeout

from .helpers import reference_spec


def _silent(*seats):
    silent = silent_factory()
    return {r: silent for r in seats}


def _grow(dep, height, max_time):
    """Run ``dep`` until every correct replica finalized ``height``."""
    dep.run_until(lambda: dep.min_finalized_height() >= height, max_time=max_time)
    return dep


class TestBlocks:
    def test_hash_deterministic_and_distinct(self):
        a = Block(epoch=1, parent=GENESIS.hash(), payload=b"x")
        b = Block(epoch=1, parent=GENESIS.hash(), payload=b"x")
        c = Block(epoch=1, parent=GENESIS.hash(), payload=b"y")
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert a.hash() != GENESIS.hash()


class TestHappyChain:
    def test_chain_grows_and_finalizes(self):
        dep = _grow(StreamDeployment(ProtocolConfig(n=16, f=3), seed=1), 5, 200)
        assert dep.min_finalized_height() >= 5
        assert dep.chains_consistent()

    def test_finalized_blocks_have_consecutive_structure(self):
        dep = _grow(StreamDeployment(ProtocolConfig(n=16, f=3), seed=2), 4, 200)
        chain = dep.replicas[0].finalized_chain
        assert chain[0] == GENESIS
        for parent, child in zip(chain, chain[1:]):
            assert child.parent == parent.hash()
            assert child.epoch > parent.epoch

    def test_throughput_one_block_per_epoch(self):
        """In the synchronous good case every epoch notarizes one block."""
        dep = StreamDeployment(
            ProtocolConfig(n=16, f=3), seed=3, timeout_policy=FixedTimeout(3.0)
        )
        _grow(dep, 8, 100)
        assert dep.min_finalized_height() >= 8
        # Height h finalized by roughly epoch h+2 (Streamlet lag of one).
        assert dep.sim.now <= 12 * 3.0

    def test_epoch_length_is_the_timeout_policy(self):
        dep = StreamDeployment(
            ProtocolConfig(n=16, f=3), seed=3, timeout_policy=FixedTimeout(5.0)
        )
        dep.run_until(None, max_time=24.0)
        assert {r.current_epoch for r in dep.replicas.values()} == {5}

    def test_payloads_come_from_epoch_leaders(self):
        dep = _grow(StreamDeployment(ProtocolConfig(n=10, f=2), seed=4), 3, 200)
        for block in dep.replicas[0].finalized_chain[1:]:
            leader = (block.epoch - 1) % 10
            assert block.payload == default_value(leader) + b"-e%d" % block.epoch


class TestDecision:
    def test_decision_is_the_height_1_block(self):
        """``run()`` stops once every correct replica finalized height 1;
        each decided once, on that block's hash, in its epoch."""
        dep = StreamDeployment(ProtocolConfig(n=16, f=3), seed=1).run(max_time=200)
        assert dep.all_correct_decided() and dep.agreement_ok
        block = dep.replicas[0].finalized_chain[1]
        assert dep.decided_values() == {block.hash()}
        assert dep.max_decision_view == block.epoch
        _grow(dep, 4, 200)
        assert {d.value for d in dep.decisions.values()} == {block.hash()}

    @pytest.mark.parametrize("adversary", ["none", "silent", "duplication"])
    def test_cell_equals_its_oracle_and_decides(self, adversary):
        cell = MatrixCell("streamlined", adversary, "constant", n=16, f=5)
        spec = cell_deployment_spec(cell, seed=1, max_time=5000.0)
        result = run_trial(spec)
        assert result == run_trial(reference_spec(spec))
        assert result.all_decided and result.agreement_ok
        assert result.messages_by_type.keys() == {"StreamProposal", "StreamVote"}

    @pytest.mark.parametrize("adversary", ["equivocation", "flooding"])
    def test_skeleton_forgery_seats_raise(self, adversary):
        """Those seats speak the ProBFT skeleton's dialect only."""
        cell = MatrixCell("streamlined", adversary, "constant", n=16, f=5)
        with pytest.raises(KeyError, match="not on the ProBFT replica skeleton"):
            cell_deployment_spec(cell, seed=1, max_time=5000.0)

    def test_sweep_rows_equal_their_oracles(self):
        matrix = ScenarioMatrix(
            name="streamlined",
            protocols=("streamlined",),
            adversaries=("none", "silent", "duplication"),
            latencies=("constant",),
            n=16,
        )
        report = run_matrix(matrix, trials=1, master_seed=5)
        assert [row["adversary"] for row in report.rows] == [
            "none", "silent", "duplication"
        ]
        for index, (cell, row) in enumerate(zip(matrix.cells(), report.rows)):
            spec = cell_deployment_spec(cell, derive_seed(5, index), 5000.0)
            oracle = run_trial(reference_spec(spec))
            assert row["decide_rate"] == oracle.decided / oracle.n_correct == 1.0
            assert row["agreement_rate"] == 1.0 and oracle.agreement_ok
            assert row["mean_max_view"] == oracle.max_view
            assert row["mean_decision_time"] == round(oracle.last_decision_time, 3)
            assert row["mean_messages"] == oracle.total_messages


class TestFaults:
    def test_silent_epoch_leaders_skipped(self):
        """Byzantine (silent) leaders waste their epochs; the chain still
        grows — with NO view-change messages of any kind."""
        cfg = ProtocolConfig(n=16, f=3)
        dep = _grow(StreamDeployment(cfg, seed=5, byzantine=_silent(0, 14, 15)), 3, 300)
        assert dep.min_finalized_height() >= 3
        assert dep.chains_consistent()
        # No synchronizer / NewLeader traffic exists in this protocol.
        assert dep.network.stats.sent("Wish") == 0
        assert dep.network.stats.sent("NewLeader") == 0
        # Skipped epochs: finalized blocks' epochs have gaps at Byzantine
        # leaders' epochs.
        epochs = {b.epoch for b in dep.replicas[1].finalized_chain[1:]}
        assert 1 not in epochs  # epoch 1's leader (replica 0) was silent

    def test_jittery_network_consistent(self):
        cfg = ProtocolConfig(n=13, f=3)
        dep = StreamDeployment(
            cfg,
            seed=6,
            latency=UniformLatency(0.3, 1.0, seed=6),
            timeout_policy=FixedTimeout(3.0),
        )
        _grow(dep, 4, 300)
        assert dep.chains_consistent()

    @pytest.mark.parametrize("seed", range(4))
    def test_consistency_across_seeds(self, seed):
        dep = _grow(StreamDeployment(ProtocolConfig(n=12, f=2), seed=seed), 3, 300)
        assert dep.chains_consistent()

    def test_too_many_byzantine_rejected(self):
        with pytest.raises(ValueError):
            StreamDeployment(ProtocolConfig(n=10, f=2), byzantine=_silent(7, 8, 9))

    def test_junk_messages_are_dropped(self):
        """A Byzantine seat's signed vote with no sample and proposal with
        no block, to everyone: neither may raise in a correct replica, and
        the chain still finalizes consistently."""

        class JunkSeat:
            def __init__(self, replica_id, config, crypto, transport):
                self.id, self._n = replica_id, config.n
                self._sign, self._transport = crypto.signatures.sign, transport

            def start(self):
                others = [d for d in range(self._n) if d != self.id]
                for junk in (
                    BlockVote(block_hash=GENESIS.hash(), epoch=1, sample=None),
                    BlockProposal(block=None),
                ):
                    self._transport.multicast(others, self._sign(self.id, junk))

            def on_message(self, src, message):
                pass

        cfg = ProtocolConfig(n=16, f=3)
        for reference in (False, True):
            dep = StreamDeployment(
                cfg, seed=1, byzantine={15: JunkSeat}, reference=reference
            )
            _grow(dep, 3, 300)
            assert dep.min_finalized_height() >= 3
            assert dep.chains_consistent()

    @pytest.mark.xfail(
        strict=True,
        reason="a replica that misses one notarization stops voting, and "
        "nothing lets it catch up: some correct replicas stay at height 0 "
        "while their peers finalize (DESIGN.md, streamlined/)",
    )
    @pytest.mark.parametrize("n, seed", [(16, 1), (40, 1), (40, 2), (40, 3)])
    def test_silent_f_every_correct_replica_decides(self, n, seed):
        cell = MatrixCell("streamlined", "silent-f", "constant", n, (n - 1) // 3)
        context = TrialContext(cell_deployment_spec(cell, seed, 5000.0))
        result = context.execute()
        assert context.deployment.chains_consistent()
        assert result.all_decided


class TestMessageComplexity:
    def test_votes_scale_with_sample_size_not_n_squared(self):
        cfg = ProtocolConfig(n=36, f=7)
        dep = _grow(StreamDeployment(cfg, seed=7), 3, 100)
        epochs_run = max(r.current_epoch for r in dep.replicas.values())
        votes = dep.network.stats.sent("StreamVote")
        # Per epoch: at most n senders x sample size (minus self-sends).
        assert votes <= epochs_run * cfg.n * cfg.sample_size
        assert votes > 0.3 * epochs_run * cfg.n * cfg.sample_size
