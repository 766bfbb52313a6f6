"""Robustness / failure-injection tests: duplication, mixed faults, scale."""

import pytest

from repro.adversary.behaviors import crash_factory, silent_factory
from repro.adversary.flooding import flooding_factory
from repro.config import ProtocolConfig
from repro.core.invariants import audit_deployment
from repro.core.protocol import ProBFTDeployment
from repro.net.faults import PreGstChaos
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.sync.timeouts import FixedTimeout


class TestMessageDuplication:
    @pytest.mark.parametrize("dup", [0.1, 0.4])
    def test_duplication_preserves_correctness(self, dup):
        dep = ProBFTDeployment(
            ProtocolConfig(n=16, f=3), seed=1, duplicate_prob=dup
        )
        dep.run(max_time=2000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert audit_deployment(dep).ok

    def test_duplicates_actually_delivered(self):
        sim = Simulator()
        net = Network(sim, 2, duplicate_prob=0.5, duplicate_seed=3)
        received = []
        net.register(0, lambda s, m: received.append(m))
        net.register(1, lambda s, m: received.append(m))
        for i in range(100):
            net.send(0, 1, f"m{i}")
        sim.run()
        assert len(received) > 110  # ~50% duplicated

    def test_invalid_duplicate_prob(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, 2, duplicate_prob=1.0)


class TestMixedFaults:
    def test_silent_plus_crash_plus_flooder(self):
        """Budget of f split across three different fault behaviours."""
        cfg = ProtocolConfig(n=16, f=3)
        dep = ProBFTDeployment(
            cfg,
            seed=5,
            timeout_policy=FixedTimeout(25.0),
            byzantine={
                13: silent_factory(),
                14: crash_factory(crash_time=1.5),
                15: flooding_factory(),
            },
        )
        dep.run(max_time=3000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert audit_deployment(dep).ok

    def test_faults_plus_chaos_plus_duplication(self):
        cfg = ProtocolConfig(n=13, f=4)
        dep = ProBFTDeployment(
            cfg,
            seed=6,
            latency=UniformLatency(0.5, 2.0, seed=6),
            gst=30.0,
            chaos=PreGstChaos(max_extra=25.0, seed=6),
            timeout_policy=FixedTimeout(30.0),
            duplicate_prob=0.15,
            byzantine={11: silent_factory(), 12: flooding_factory()},
        )
        dep.run(max_time=5000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok


class TestScale:
    def test_n_200_decides_quickly(self):
        """A laptop-scale 'big' deployment still decides in 3 steps."""
        cfg = ProtocolConfig(n=200, f=40)
        dep = ProBFTDeployment(cfg, seed=2)
        dep.run(max_time=500)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        # Message complexity advantage at this size: < 25% of PBFT.
        from repro.analysis.messages import pbft_messages

        # Integer rounding (q=29, s=50 at n=200) puts the ratio at ~25.3%.
        assert dep.network.stats.sent_total < 0.27 * pbft_messages(200)

    def test_minimum_system_n4(self):
        cfg = ProtocolConfig(n=4, f=1)
        dep = ProBFTDeployment(cfg, seed=3)
        dep.run(max_time=500)
        assert dep.all_correct_decided()
        assert dep.agreement_ok


class TestSeededAgreementSweep:
    """A mini-fuzz: many seeds, adversarial conditions, agreement must hold."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equivocation_plus_chaos_never_disagrees(self, seed):
        from repro.adversary.equivocation import equivocation_byzantine_map

        cfg = ProtocolConfig(n=15, f=3)
        byzantine, _plan = equivocation_byzantine_map(cfg)
        dep = ProBFTDeployment(
            cfg,
            seed=seed,
            latency=UniformLatency(0.5, 1.5, seed=seed),
            timeout_policy=FixedTimeout(25.0),
            byzantine=byzantine,
        )
        dep.run(max_time=5000)
        assert dep.agreement_ok
        assert audit_deployment(dep).ok
