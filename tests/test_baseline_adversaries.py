"""Golden-seed conformance suite for the baseline Byzantine analogues.

Mirrors ``tests/test_adversary.py`` (ProBFT) for the deterministic
baselines: under the ported equivocation and flooding attacks each baseline
must preserve safety outright, while liveness may measurably degrade (view
changes, later decisions).  Outcomes are pinned on golden seeds — under
constant latency the deterministic protocols make them exactly reproducible:

* **PBFT, n = 8** (``n − f`` even): neither split half can reach the
  ``⌈(n+f+1)/2⌉`` prepare quorum, view 1 stalls, and view 2's correct
  leader decides a fresh value.
* **PBFT, n = 7** (``n − f`` odd): the larger half *exactly* reaches the
  quorum, its members decide the attack value in view 1 — and the
  view-change certificate then forces the same value on everyone else.
  Agreement holds in both regimes because the two supports sum to
  ``n + f < 2·quorum``: at most one value can ever quorum.
* **HotStuff**: votes flow to the equivocating leader, but no value's
  support reaches ``n − f`` for *both* proposals, so the leader can never
  mint two conflicting QCs; it stalls, and view 2 decides fresh.  Its
  forged-QC DECIDE (certified by the colluders alone) must be rejected.
"""

from __future__ import annotations

import pytest

from repro.adversary.equivocation import equivocation_byzantine_map
from repro.adversary.flooding import flooding_factory
from repro.baselines.hotstuff.adversary import (
    hotstuff_equivocation_map,
    hotstuff_flooding_factory,
)
from repro.baselines.pbft.replica import PbftReplica
from repro.config import ProtocolConfig
from repro.harness.trial import DeploymentSpec, TrialContext, run_trial
from repro.sync.timeouts import FixedTimeout

ATTACK_VALUES = {b"attack-A", b"attack-B"}


def pbft_equivocation_map(config):
    """ProBFT's Figure-4c seats, speaking PBFT's dialect."""
    return equivocation_byzantine_map(config, protocol=PbftReplica)


def pbft_flooding_factory():
    return flooding_factory(protocol=PbftReplica)


def _attack_result(protocol: str, config: ProtocolConfig, byzantine, seed=0):
    return run_trial(
        DeploymentSpec(
            protocol=protocol,
            config=config,
            seed=seed,
            timeout_policy=FixedTimeout(30.0),
            byzantine=byzantine,
            max_time=5000.0,
        )
    )


def _happy_result(protocol: str, config: ProtocolConfig, seed=0):
    return run_trial(
        DeploymentSpec(
            protocol=protocol,
            config=config,
            seed=seed,
            timeout_policy=FixedTimeout(30.0),
            max_time=5000.0,
        )
    )


class TestPbftEquivocation:
    def test_safety_across_seeds(self):
        """The headline property: agreement under the Fig-4c analogue."""
        config = ProtocolConfig(n=10, f=3)
        for seed in range(8):
            byzantine, _plan = pbft_equivocation_map(config)
            result = _attack_result("pbft", config, byzantine, seed=seed)
            assert result.agreement_ok, f"violation at seed {seed}"
            assert result.all_decided

    def test_golden_stalled_view_one(self):
        """n=8: neither half quorums; a fresh value decides in view 2."""
        config = ProtocolConfig(n=8, f=2)
        byzantine, _plan = pbft_equivocation_map(config)
        result = _attack_result("pbft", config, byzantine)
        assert result.agreement_ok and result.all_decided
        assert result.decision_views == (2,)
        assert result.decided_values == (b"value-1",)

    def test_golden_half_decides_then_certificate_wins(self):
        """n=7: the larger half exactly quorums in view 1; the view-change
        certificate forces its attack value on the stalled half."""
        config = ProtocolConfig(n=7, f=2)
        byzantine, _plan = pbft_equivocation_map(config)
        result = _attack_result("pbft", config, byzantine)
        assert result.agreement_ok and result.all_decided
        assert result.decision_views == (1, 2)
        assert result.decided_values == (b"attack-B",)

    def test_liveness_measurably_degrades(self):
        config = ProtocolConfig(n=8, f=2)
        byzantine, _plan = pbft_equivocation_map(config)
        attacked = _attack_result("pbft", config, byzantine)
        happy = _happy_result("pbft", config)
        assert happy.max_view == 1
        assert attacked.max_view >= 2
        assert attacked.last_decision_time > happy.last_decision_time

    def test_at_most_one_value_ever_decided(self):
        config = ProtocolConfig(n=13, f=4)
        byzantine, _plan = pbft_equivocation_map(config)
        result = _attack_result("pbft", config, byzantine)
        assert len(result.decided_values) == 1

    def test_needs_at_least_one_byzantine(self):
        with pytest.raises(ValueError):
            pbft_equivocation_map(ProtocolConfig(n=10, f=0))


class TestHotStuffEquivocation:
    def test_safety_across_seeds(self):
        config = ProtocolConfig(n=10, f=3)
        for seed in range(8):
            byzantine, _plan = hotstuff_equivocation_map(config)
            result = _attack_result("hotstuff", config, byzantine, seed=seed)
            assert result.agreement_ok, f"violation at seed {seed}"
            assert result.all_decided

    @pytest.mark.parametrize("n,f", [(7, 2), (8, 2), (10, 3)])
    def test_golden_leader_stalls_and_view_two_decides_fresh(self, n, f):
        """No dual QC can form, the leader stalls view 1, and the forged
        colluder-only DECIDE certificate is rejected everywhere — so the
        attack values never appear in any decision."""
        config = ProtocolConfig(n=n, f=f)
        byzantine, _plan = hotstuff_equivocation_map(config)
        result = _attack_result("hotstuff", config, byzantine)
        assert result.agreement_ok and result.all_decided
        assert result.decision_views == (2,)
        assert result.decided_values == (b"value-1",)
        assert not set(result.decided_values) & ATTACK_VALUES

    def test_liveness_measurably_degrades(self):
        config = ProtocolConfig(n=8, f=2)
        byzantine, _plan = hotstuff_equivocation_map(config)
        attacked = _attack_result("hotstuff", config, byzantine)
        happy = _happy_result("hotstuff", config)
        assert happy.max_view == 1
        assert attacked.max_view >= 2
        assert attacked.last_decision_time > happy.last_decision_time

    def test_needs_at_least_one_byzantine(self):
        with pytest.raises(ValueError):
            hotstuff_equivocation_map(ProtocolConfig(n=10, f=0))


@pytest.mark.parametrize(
    "protocol,flooding_factory",
    [("pbft", pbft_flooding_factory), ("hotstuff", hotstuff_flooding_factory)],
)
class TestBaselineFlooding:
    def _flooded(self, protocol, flooding_factory, seed=0):
        config = ProtocolConfig(n=10, f=2)
        context = TrialContext(
            DeploymentSpec(
                protocol=protocol,
                config=config,
                seed=seed,
                timeout_policy=FixedTimeout(30.0),
                byzantine={config.n - 1: flooding_factory()},
                max_time=5000.0,
            )
        )
        return context.execute(), context.deployment

    def test_flood_does_not_corrupt_consensus(self, protocol, flooding_factory):
        result, _deployment = self._flooded(protocol, flooding_factory)
        assert result.agreement_ok and result.all_decided
        # The flood changes nothing: decided in view 1 on the honest
        # leader's value, exactly like the unflooded golden run.
        assert result.decision_views == (1,)
        assert result.decided_values == (b"value-0",)

    def test_fake_value_never_decided(self, protocol, flooding_factory):
        for seed in range(5):
            result, _deployment = self._flooded(
                protocol, flooding_factory, seed=seed
            )
            assert b"flood-value" not in result.decided_values

    def test_flooder_actually_floods(self, protocol, flooding_factory):
        _result, deployment = self._flooded(protocol, flooding_factory)
        flooder = max(deployment.byzantine_ids)
        assert deployment.network.stats.sent_by_replica[flooder] > 50
