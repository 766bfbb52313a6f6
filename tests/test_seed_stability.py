"""Golden seed-stability regressions.

These pin exact per-seed outcomes — the engine's seed derivation, one full
ProBFT run, and small Monte-Carlo estimates — so that refactors of the
experiment engine or the deployment wiring cannot silently reorder RNG
streams.  If one of these fails after an intentional RNG change, re-record
the golden values *in the same commit* and say so in the commit message.
"""

from __future__ import annotations

from repro.config import ProtocolConfig
from repro.harness.parallel import derive_seed
from repro.harness.trial import DeploymentSpec, run_trial
from repro.montecarlo.experiments import (
    estimate_prepare_quorum,
    estimate_termination,
)


class TestSeedDerivationGoldens:
    """The engine's counter-based splitter is a frozen function."""

    def test_first_child_seeds_of_master_zero(self):
        assert [derive_seed(0, i) for i in range(4)] == [
            12035550249420947055,
            12935080325729570654,
            7141179953334974231,
            12108695660851890438,
        ]

    def test_nonzero_master(self):
        assert derive_seed(123, 0) == 16163597885971035396


class TestProtocolRunGolden:
    """One small ProBFT run, fully pinned: decisions, views, traffic."""

    def test_probft_n8_seed42(self):
        result = run_trial(
            DeploymentSpec("probft", ProtocolConfig(n=8, f=1), seed=42, max_time=5000)
        )
        assert result.decided == 8
        assert result.all_decided and result.agreement_ok
        assert result.decided_values == (b"value-0",)
        assert result.decision_views == (1,)
        assert result.max_view == 1
        assert result.last_decision_time == 3.0
        assert result.total_messages == 119
        assert result.messages_by_type == {
            "Commit": 56,
            "Prepare": 56,
            "Propose": 7,
        }


class TestEstimatorGoldens:
    """Sampling-level estimates are exact integers under a fixed seed."""

    def test_termination_golden_counts(self):
        result = estimate_termination(36, 7, 1.7, trials=16, seed=123)
        assert result.estimates["per_replica_decides"].successes == 16
        assert result.estimates["all_correct_decide"].successes == 7
        assert result.mean_prepared_fraction == 0.9849137931034483

    def test_prepare_quorum_golden_counts(self):
        result = estimate_prepare_quorum(36, 7, 1.7, trials=16, seed=9)
        assert result.estimates["per_replica_quorum"].successes == 16
        assert result.estimates["all_correct_quorum"].successes == 12

    def test_golden_counts_survive_parallel_execution(self):
        result = estimate_termination(36, 7, 1.7, trials=16, seed=123, workers=2)
        assert result.estimates["per_replica_decides"].successes == 16
        assert result.estimates["all_correct_decide"].successes == 7
