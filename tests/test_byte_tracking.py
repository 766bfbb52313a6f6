"""Tests for communication-byte accounting."""

import pytest

from repro.adversary.behaviors import silent_factory
from repro.baselines.hotstuff.protocol import HotStuffDeployment
from repro.baselines.pbft.protocol import PbftDeployment
from repro.config import ProtocolConfig
from repro.core.protocol import ProBFTDeployment
from repro.harness.metrics import mean
from repro.harness.parallel import ExperimentEngine, TrialSpec, derive_seed
from repro.harness.registry import get_matrix, run_matrix, run_matrix_cell
from repro.harness.trial import DeploymentSpec, run_trial
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.sync.timeouts import FixedTimeout

DEPLOYMENTS = {
    "probft": ProBFTDeployment,
    "pbft": PbftDeployment,
    "hotstuff": HotStuffDeployment,
}


class TestByteTracking:
    def test_disabled_by_default(self):
        dep = ProBFTDeployment(ProtocolConfig(n=10, f=2))
        dep.run(max_time=500)
        assert dep.network.stats.bytes_total == 0

    def test_enabled_tracks_bytes(self):
        dep = ProBFTDeployment(ProtocolConfig(n=10, f=2), track_bytes=True)
        dep.run(max_time=500)
        stats = dep.network.stats
        assert stats.bytes_total > 0
        assert set(stats.bytes_by_type) == set(stats.sent_by_type)

    def test_sizes_are_canonical_encoding_lengths(self):
        from repro.crypto.hashing import stable_encode

        sim = Simulator()
        net = Network(sim, 2, track_bytes=True)
        net.register(1, lambda s, m: None)
        message = ("hello", 42)
        net.send(0, 1, message)
        assert net.stats.bytes_total == len(stable_encode(message))

    def test_broadcast_counts_one_size_per_recipient(self):
        sim = Simulator()
        net = Network(sim, 5, track_bytes=True)
        for r in range(5):
            net.register(r, lambda s, m: None)
        message = ("payload",)
        net.broadcast(0, message)
        from repro.crypto.hashing import stable_encode

        assert net.stats.bytes_total == 4 * len(stable_encode(message))

    def test_sizes_never_outlive_their_message(self):
        """Nothing is keyed by ``id()``: CPython reuses the addresses of
        freed objects, and a message allocated where a dead one lived must
        be charged its own size (byte totals may not depend on order)."""
        from repro.crypto.hashing import stable_encode

        sim = Simulator()
        net = Network(sim, 2, track_bytes=True)
        net.register(1, lambda s, m: None)
        expected = 0
        for i in range(200):
            message = ("x" * (i % 7) * 40, i)  # dropped each round
            expected += len(stable_encode(message))
            net.send(0, 1, message)
            sim.run()
        assert net.stats.bytes_total == expected

    def test_a_protocol_message_is_encoded_once(self):
        """The network keeps no size table: a protocol message carries its
        encoded bytes on itself, so sizing a fan-out re-encodes nothing."""
        from repro.crypto.context import CryptoContext
        from repro.messages.base import ProposalStatement

        signed = CryptoContext.create(4).signatures.sign(
            0, ProposalStatement(view=1, value=b"v")
        )
        sim = Simulator()
        net = Network(sim, 4, track_bytes=True)
        for r in range(4):
            net.register(r, lambda s, m: None)
        net.send(0, 1, signed)
        encoded = signed.__dict__["_encoded"]
        net.broadcast(0, signed)
        net.multicast(0, [1, 2], signed)
        assert signed.__dict__["_encoded"] is encoded
        assert net.stats.bytes_total == 6 * len(encoded)
        assert not hasattr(net, "_size_cache")

    def test_unencodable_message_counts_zero(self):
        sim = Simulator()
        net = Network(sim, 2, track_bytes=True)
        net.register(1, lambda s, m: None)
        net.send(0, 1, object())
        assert net.stats.bytes_total == 0
        assert net.stats.sent_total == 1

    def test_view_change_proposals_are_heavier(self):
        """§3.3: a view-2 Propose ships a deterministic quorum of NewLeader
        messages; its size dominates a view-1 Propose."""
        cfg = ProtocolConfig(n=20, f=4)
        good = ProBFTDeployment(cfg, track_bytes=True).run(max_time=500)
        bad = ProBFTDeployment(
            cfg,
            track_bytes=True,
            timeout_policy=FixedTimeout(20.0),
            byzantine={0: silent_factory()},
        ).run(max_time=3000)
        good_avg = (
            good.network.stats.bytes_by_type["Propose"]
            / good.network.stats.sent_by_type["Propose"]
        )
        bad_avg = (
            bad.network.stats.bytes_by_type["Propose"]
            / bad.network.stats.sent_by_type["Propose"]
        )
        assert bad_avg > 3 * good_avg

    @pytest.mark.parametrize("protocol", sorted(DEPLOYMENTS))
    def test_every_protocol_disabled_by_default(self, protocol):
        dep = DEPLOYMENTS[protocol](ProtocolConfig(n=10, f=2))
        dep.run(max_time=500)
        assert dep.network.stats.bytes_total == 0

    @pytest.mark.parametrize("protocol", sorted(DEPLOYMENTS))
    def test_every_protocol_tracks_bytes_when_enabled(self, protocol):
        dep = DEPLOYMENTS[protocol](
            ProtocolConfig(n=10, f=2), track_bytes=True
        )
        dep.run(max_time=500)
        stats = dep.network.stats
        assert dep.all_correct_decided()
        assert stats.bytes_total > 0
        assert set(stats.bytes_by_type) == set(stats.sent_by_type)

    @pytest.mark.parametrize("protocol", sorted(DEPLOYMENTS))
    def test_trial_lifecycle_reports_bytes(self, protocol):
        """`run_trial` surfaces the deployment's byte totals, and they match
        a hand-built deployment on the same golden seed."""
        config = ProtocolConfig(n=8, f=2)
        result = run_trial(
            DeploymentSpec(
                protocol=protocol, config=config, seed=17,
                track_bytes=True, max_time=500,
            )
        )
        direct = DEPLOYMENTS[protocol](config, seed=17, track_bytes=True)
        direct.run(max_time=500)
        assert result.total_bytes == direct.network.stats.bytes_total > 0

    def test_pbft_broadcasts_cost_more_bytes_than_probft_samples(self):
        """PBFT's all-to-all vote broadcasts out-byte ProBFT's O(√n)-sample
        multicasts at moderate n — the Figure-1b comparison in bytes."""
        config = ProtocolConfig(n=40, f=10)
        pbft = PbftDeployment(config, track_bytes=True).run(max_time=500)
        probft = ProBFTDeployment(config, track_bytes=True).run(max_time=500)
        assert (
            pbft.network.stats.bytes_total > probft.network.stats.bytes_total
        )

    def test_prepare_bytes_scale_with_sample_size(self):
        """Prepare messages carry the O(sqrt(n))-sized VRF sample list."""
        small = ProBFTDeployment(ProtocolConfig(n=16, f=3), track_bytes=True)
        small.run(max_time=500)
        big = ProBFTDeployment(ProtocolConfig(n=64, f=12), track_bytes=True)
        big.run(max_time=500)
        small_avg = (
            small.network.stats.bytes_by_type["Prepare"]
            / small.network.stats.sent_by_type["Prepare"]
        )
        big_avg = (
            big.network.stats.bytes_by_type["Prepare"]
            / big.network.stats.sent_by_type["Prepare"]
        )
        assert big_avg > small_avg


class TestByteCostMatrix:
    """The ``byte-costs`` matrix: streamed == materialized, golden seeds."""

    @pytest.mark.parametrize("master_seed", [0, 42])
    def test_streamed_byte_stats_equal_materialized_sums(self, master_seed):
        """Per-cell mean bytes/messages from the constant-memory streamed
        path exactly equal batch means over materialized trial rows."""
        matrix = get_matrix("byte-costs").with_size(8)
        trials = 3
        streamed = run_matrix(matrix, trials=trials, master_seed=master_seed)

        cells = matrix.cells()
        specs = [
            TrialSpec(
                index=i,
                seed=derive_seed(master_seed, i),
                params=(cell, 5000.0),
            )
            for i, cell in enumerate(c for c in cells for _ in range(trials))
        ]
        rows = ExperimentEngine(workers=0).map(run_matrix_cell, specs)
        for k, (cell, report_row) in enumerate(zip(cells, streamed.rows)):
            chunk = rows[k * trials : (k + 1) * trials]
            assert report_row["mean_bytes"] == round(
                mean([float(r["total_bytes"]) for r in chunk]), 1
            )
            assert report_row["mean_messages"] == round(
                mean([float(r["total_messages"]) for r in chunk]), 1
            )
            assert report_row["mean_bytes"] > 0, cell.label

    def test_byte_columns_zero_without_tracking(self):
        report = run_matrix(get_matrix("smoke"), trials=2, master_seed=5)
        for row in report.rows:
            assert row["mean_bytes"] == 0.0
            assert row["bytes_stderr"] == 0.0
            assert row["mean_messages"] > 0

    def test_duplication_cell_runs_and_tracks(self):
        """Network-level duplication composes with byte tracking; receivers
        dedup so agreement and termination are untouched."""
        matrix = get_matrix("byte-costs").with_size(8)
        cell = next(
            c for c in matrix.cells() if c.adversary == "duplication"
        )
        row = run_matrix_cell(
            TrialSpec(index=0, seed=derive_seed(3, 0), params=(cell, 5000.0))
        )
        assert row["agreement_ok"]
        assert row["decided"] == row["n_correct"]
        assert row["total_bytes"] > 0
