"""Additional trial coverage: result fields, cross-protocol determinism."""

import math

import pytest

from repro.config import ProtocolConfig
from repro.harness.trial import DeploymentSpec, RunResult, run_trial


class TestRunResult:
    def test_steps_nan_when_nothing_decided(self):
        result = RunResult(
            protocol="probft",
            n=4,
            f=1,
            decided=0,
            n_correct=4,
            all_decided=False,
            agreement_ok=True,
            decided_values=(),
            decision_views=(),
            max_view=0,
            sim_time=1.0,
            last_decision_time=float("nan"),
        )
        assert math.isnan(result.steps)
        assert result.protocol_messages == 0

    def test_protocol_messages_subtracts_all_sync_types(self):
        result = RunResult(
            protocol="probft",
            n=4,
            f=1,
            decided=4,
            n_correct=4,
            all_decided=True,
            agreement_ok=True,
            decided_values=(b"v",),
            decision_views=(1,),
            max_view=1,
            sim_time=3.0,
            last_decision_time=3.0,
            messages_by_type={"Propose": 3, "Wish": 7},
            total_messages=10,
        )
        assert result.protocol_messages == 3


class TestCrossProtocolDeterminism:
    @pytest.mark.parametrize("protocol", ["probft", "pbft", "hotstuff"])
    def test_same_seed_same_result(self, protocol):
        spec = DeploymentSpec(protocol, ProtocolConfig(n=10, f=2), seed=13, max_time=500)
        a = run_trial(spec)
        b = run_trial(spec)
        assert a.total_messages == b.total_messages
        assert a.last_decision_time == b.last_decision_time
        assert a.decided_values == b.decided_values

    def test_distinct_protocols_distinct_footprints(self):
        # n must be large enough that ProBFT's sample does not saturate to n
        # (at n=10, s = min(n, ceil(o*q)) = 10 and ProBFT degenerates to
        # PBFT's all-to-all pattern — itself a nice sanity fact).
        cfg = ProtocolConfig(n=20, f=3)
        totals = {
            run_trial(DeploymentSpec(protocol, cfg, seed=1, max_time=500)).protocol_messages
            for protocol in ("probft", "pbft", "hotstuff")
        }
        assert len(totals) == 3


class TestJitteryNetwork:
    @pytest.mark.parametrize("n", [40, 100])
    def test_probft_latency_of_pbft_at_a_fraction_of_its_messages(self, n):
        """Uniform 0.5-1.5 latency: every protocol agrees, ProBFT decides
        well before HotStuff and sends under 60% of PBFT's messages."""
        from repro.net.latency import UniformLatency

        cfg = ProtocolConfig(n=n, f=n // 5)
        results = {
            protocol: run_trial(
                DeploymentSpec(
                    protocol, cfg, latency=UniformLatency(0.5, 1.5, seed=n),
                    max_time=2000,
                )
            )
            for protocol in ("pbft", "probft", "hotstuff")
        }
        assert all(r.agreement_ok for r in results.values())
        assert results["probft"].last_decision_time < results["hotstuff"].last_decision_time
        assert results["probft"].protocol_messages < 0.6 * results["pbft"].protocol_messages
