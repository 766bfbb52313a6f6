"""Tests for the Monte-Carlo estimators, cross-checked against the analysis."""

import numpy as np
import pytest

from repro.analysis import agreement as A
from repro.analysis import quorum_probability as Q
from repro.analysis import termination as T
from repro.config import ProtocolConfig
from repro.harness.parallel import ExperimentEngine
from repro.montecarlo.experiments import (
    estimate_agreement_violation,
    estimate_prepare_quorum,
    estimate_protocol_agreement,
    estimate_termination,
    estimate_viewchange_decide,
)
from repro.montecarlo.sampling import (
    inclusion_counts,
    membership_matrix,
    sample_members,
)


class TestSampling:
    def test_sample_shape_and_distinctness(self):
        rng = np.random.default_rng(0)
        members = sample_members(50, 20, 10, rng)
        assert members.shape == (20, 10)
        for row in members:
            assert len(set(row.tolist())) == 10
            assert all(0 <= x < 50 for x in row)

    def test_sample_full(self):
        rng = np.random.default_rng(0)
        members = sample_members(10, 3, 10, rng)
        for row in members:
            assert sorted(row.tolist()) == list(range(10))

    def test_zero_senders(self):
        rng = np.random.default_rng(0)
        assert sample_members(10, 0, 5, rng).shape == (0, 5)
        assert inclusion_counts(10, 0, 5, rng).tolist() == [0] * 10

    def test_inclusion_counts_sum(self):
        rng = np.random.default_rng(1)
        counts = inclusion_counts(50, 20, 10, rng)
        assert counts.sum() == 200
        assert counts.shape == (50,)

    def test_membership_matrix_consistent(self):
        rng = np.random.default_rng(2)
        matrix = membership_matrix(30, 10, 7, rng)
        assert matrix.shape == (10, 30)
        assert matrix.sum() == 70

    def test_invalid_sample_size(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_members(10, 2, 11, rng)
        with pytest.raises(ValueError):
            sample_members(10, 2, 0, rng)

    def test_inclusion_frequency_close_to_s_over_n(self):
        rng = np.random.default_rng(3)
        n, senders, s = 100, 80, 34
        counts = inclusion_counts(n, senders, s, rng)
        # Mean inclusion per replica ~ senders*s/n = 27.2.
        assert abs(counts.mean() - senders * s / n) < 1e-9  # exact by counting


class TestEstimatorsMatchAnalysis:
    def test_prepare_quorum_matches_exact(self):
        result = estimate_prepare_quorum(100, 20, 1.7, trials=600, seed=1)
        exact = Q.prob_quorum_exact_config(100, 20, 1.7, 2.0)
        assert result.estimates["per_replica_quorum"].compatible_with(exact)

    def test_termination_close_to_exact_chain(self):
        result = estimate_termination(100, 20, 1.7, trials=600, seed=2)
        exact = T.replica_terminates_exact(100, 20, 1.7, 2.0)
        low, high = result.estimates["per_replica_decides"].interval
        # The chain treats stages as independent (slight underestimate), so
        # allow the exact value to sit at/below the interval.
        assert exact <= high + 0.05

    def test_agreement_side_matches_exact(self):
        result = estimate_agreement_violation(
            100, 20, 1.7, trials=3000, seed=3
        )
        exact = A.side_decide_exact(100, 20, 1.7, 2.0)
        est = result.estimates["side_decides_fixed"]
        low, high = est.interval
        assert low - 0.02 <= exact <= high + 0.02

    def test_detection_crushes_violation(self):
        """With equivocation detection modeled, violations vanish — the
        analysis's quorum-only count is a loose upper bound."""
        result = estimate_agreement_violation(
            100, 20, 1.7, trials=800, seed=4, model_detection=True
        )
        quorum_only = result.estimates["violation_quorums"].point
        detected = result.estimates["violation_detected"].point
        assert detected <= quorum_only
        assert detected < 0.01

    def test_termination_improves_with_n(self):
        small = estimate_termination(100, 20, 1.7, trials=300, seed=5)
        large = estimate_termination(256, 51, 1.7, trials=300, seed=5)
        assert (
            large.estimates["per_replica_decides"].point
            >= small.estimates["per_replica_decides"].point - 0.03
        )


class TestProtocolLevel:
    def test_full_protocol_agreement_never_violated(self):
        result = estimate_protocol_agreement(
            ProtocolConfig(n=20, f=4), trials=5, seed=0
        )
        assert result.estimates["violation_full_protocol"].point == 0.0


class TestViewChangeScenario:
    def test_lemma6_bound_dominates_mc(self):
        """Lemma 6's Chernoff bound must upper-bound the empirical rate."""
        from repro.analysis.agreement import lemma6_decide_bound
        from repro.montecarlo.experiments import estimate_viewchange_decide

        n, f, o = 100, 20, 1.6  # within Lemma 6's domain (o*r <= n)
        r = (n + f) // 2
        bound = lemma6_decide_bound(n, f, o, 2.0, r=r)
        result = estimate_viewchange_decide(n, f, o, trials=3000, seed=9)
        low, _high = result.estimates["decides_from_partial_prepare"].interval
        assert low <= bound + 0.02

    def test_decide_rate_grows_with_prepared_count(self):
        from repro.montecarlo.experiments import estimate_viewchange_decide

        small = estimate_viewchange_decide(
            100, 20, 1.7, prepared=40, trials=1500, seed=10
        )
        large = estimate_viewchange_decide(
            100, 20, 1.7, prepared=80, trials=1500, seed=10
        )
        assert (
            large.estimates["decides_from_partial_prepare"].point
            > small.estimates["decides_from_partial_prepare"].point
        )


class TestEstimatorInputs:
    """Out-of-range inputs are refused with a ValueError before any trial:
    no NaN estimates from zero trials, no sampling more senders than
    replicas."""

    ESTIMATORS = {
        "prepare_quorum": lambda **kw: estimate_prepare_quorum(20, 4, 1.7, **kw),
        "termination": lambda **kw: estimate_termination(20, 4, 1.7, **kw),
        "agreement_violation": lambda **kw: estimate_agreement_violation(
            20, 4, 1.7, **kw
        ),
        "protocol_agreement": lambda **kw: estimate_protocol_agreement(
            ProtocolConfig(n=8, f=1), **kw
        ),
        "viewchange_decide": lambda **kw: estimate_viewchange_decide(
            20, 4, 1.7, **kw
        ),
    }

    @pytest.fixture
    def no_trials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial stream was started")

        monkeypatch.setattr(ExperimentEngine, "stream", refuse)

    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_trials_must_be_positive(self, no_trials, name, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            self.ESTIMATORS[name](trials=trials)

    @pytest.mark.parametrize("prepared", [-1, 21, 50])
    def test_prepared_must_be_a_replica_count(self, no_trials, prepared):
        with pytest.raises(ValueError, match="prepared"):
            estimate_viewchange_decide(20, 4, 1.7, prepared=prepared, trials=10)

    @pytest.mark.parametrize("prepared, decides", [(0, 0), (20, 10)])
    def test_prepared_bounds_are_inclusive(self, prepared, decides):
        result = estimate_viewchange_decide(
            20, 4, 1.7, prepared=prepared, trials=10, seed=1
        )
        assert result.trials == 10
        assert result.estimates["decides_from_partial_prepare"].successes == decides
