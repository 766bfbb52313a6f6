"""Tests for repro.config."""

import math

import pytest

from repro.config import (
    ProtocolConfig,
    deterministic_quorum_size,
    max_faults,
    probabilistic_quorum_size,
    theorem2_o_upper_bound,
    vrf_sample_size,
)
from repro.errors import ConfigError


class TestMaxFaults:
    def test_small_systems(self):
        assert max_faults(4) == 1
        assert max_faults(7) == 2
        assert max_faults(10) == 3

    def test_boundary(self):
        # f < n/3 strictly: n = 3f+1 is the minimum for a given f.
        assert max_faults(3) == 0
        assert max_faults(6) == 1

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            max_faults(0)


class TestQuorumSizes:
    def test_deterministic_quorum_paper_example(self):
        # Paper example: PBFT with n=100, f=33 needs 67 messages (§1).
        assert deterministic_quorum_size(100, 33) == 67

    def test_deterministic_quorum_formula(self):
        assert deterministic_quorum_size(10, 3) == 7
        assert deterministic_quorum_size(4, 1) == 3

    def test_probabilistic_quorum_paper_example(self):
        # Paper example: l=2 and n=100 -> 20 matching messages (§1).
        assert probabilistic_quorum_size(100, 2.0) == 20

    def test_probabilistic_quorum_rounds_up(self):
        assert probabilistic_quorum_size(10, 2.0) == math.ceil(2 * math.sqrt(10))

    def test_sample_size_capped_at_n(self):
        assert vrf_sample_size(8, 6, 1.7) == 8
        assert vrf_sample_size(100, 20, 1.7) == 34


class TestProtocolConfig:
    def test_defaults_derive_f(self):
        cfg = ProtocolConfig(n=10)
        assert cfg.f == 3

    def test_paper_parameters(self):
        cfg = ProtocolConfig(n=100, f=20, l=2.0, o=1.7)
        assert cfg.q == 20
        assert cfg.sample_size == 34
        assert cfg.det_quorum == 61
        assert cfg.n_correct == 80

    def test_rejects_too_many_faults(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=9, f=3)

    def test_rejects_tiny_system(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=3)

    def test_rejects_negative_f(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=10, f=-1)

    def test_rejects_small_l_and_o(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n=10, l=0.5)
        with pytest.raises(ConfigError):
            ProtocolConfig(n=10, o=0.9)

    def test_with_params(self):
        cfg = ProtocolConfig(n=100, f=20)
        cfg2 = cfg.with_params(o=1.8)
        assert cfg2.o == 1.8
        assert cfg2.n == 100
        assert cfg.o == 1.7  # original untouched

    def test_seed_domain_default_empty(self):
        assert ProtocolConfig(n=10).seed_domain == ""

    def test_o_in_theorem2_range(self):
        cfg = ProtocolConfig(n=100, f=20, o=1.7)
        assert cfg.o_in_theorem2_range()
        hi = theorem2_o_upper_bound(100, 20)
        assert not cfg.with_params(o=hi + 0.1).o_in_theorem2_range()

    def test_theorem2_upper_bound_value(self):
        # (2 + sqrt(3)) * n / (n - f)
        assert theorem2_o_upper_bound(100, 20) == pytest.approx(
            (2 + math.sqrt(3)) * 100 / 80
        )

    def test_describe_mentions_sizes(self):
        text = ProtocolConfig(n=100, f=20).describe()
        assert "q=20" in text and "n=100" in text

    def test_frozen(self):
        cfg = ProtocolConfig(n=10)
        with pytest.raises(Exception):
            cfg.n = 20


class TestLivenessFaultTolerance:
    def test_small_n_liveness_gap(self):
        """At n=7, q=6 exceeds n-f=5: only one silent replica is tolerable
        without losing quorum attainability (found by property testing)."""
        cfg = ProtocolConfig(n=7, f=2)
        assert cfg.q == 6
        assert not cfg.quorums_attainable_under_max_faults()
        assert cfg.liveness_fault_tolerance == 1

    def test_paper_scale_has_no_gap(self):
        cfg = ProtocolConfig(n=100, f=33)
        assert cfg.quorums_attainable_under_max_faults()
        assert cfg.liveness_fault_tolerance == 33

    def test_silent_adversary_at_the_gap_stalls_liveness_not_safety(self):
        """Demonstrate the gap: n=7 with two silent replicas never decides
        (quorums unattainable) but never violates safety either."""
        from repro.adversary.behaviors import silent_factory
        from repro.core.protocol import ProBFTDeployment
        from repro.sync.timeouts import FixedTimeout

        cfg = ProtocolConfig(n=7, f=2)
        dep = ProBFTDeployment(
            cfg,
            timeout_policy=FixedTimeout(10.0),
            byzantine={5: silent_factory(), 6: silent_factory()},
        )
        dep.run(max_time=300)
        assert not dep.all_correct_decided()  # stuck: q=6 > 5 senders
        assert dep.agreement_ok  # but still safe
