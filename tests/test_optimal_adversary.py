"""Tests for the leader-strategy exploration (Theorems 5/6 numerically)."""

import pytest

from repro.analysis.optimal_adversary import (
    asymmetric_split_violation,
    even_split_violation,
    group_decide_probability,
    strategy_comparison,
    violation_probability_for_split,
    withholding_violation,
)

N, F, O = 100, 20, 1.7


class TestGroupDecideProbability:
    def test_monotone_in_group_size(self):
        """Theorem 6: more senders, higher quorum probability."""
        values = [
            group_decide_probability(N, F, O, 2.0, size)
            for size in (10, 20, 30, 40)
        ]
        assert values == sorted(values)

    def test_empty_group(self):
        assert group_decide_probability(N, F, O, 2.0, 0) == 0.0

    def test_bounded(self):
        p = group_decide_probability(N, F, O, 2.0, 40)
        assert 0.0 <= p <= 1.0


class TestSplitViolations:
    def test_two_way_beats_three_way(self):
        """Theorem 5: merging groups increases violation probability."""
        assert even_split_violation(N, F, O, 2.0, 2) > even_split_violation(
            N, F, O, 2.0, 3
        )

    def test_k_way_monotone_decreasing(self):
        values = [even_split_violation(N, F, O, 2.0, k) for k in (2, 3, 4, 5)]
        assert values == sorted(values, reverse=True)

    def test_balanced_split_optimal(self):
        balanced = asymmetric_split_violation(N, F, O, 2.0, 0.5)
        for fraction in (0.6, 0.7, 0.8, 0.9):
            assert balanced >= asymmetric_split_violation(N, F, O, 2.0, fraction)

    def test_withholding_hurts_adversary(self):
        full = even_split_violation(N, F, O, 2.0, 2)
        for omitted in (8, 16, 24):
            assert withholding_violation(N, F, O, 2.0, omitted) < full

    def test_optimal_tops_strategy_comparison(self):
        rows = strategy_comparison(N, F, O)
        assert rows[0][0].startswith("2-way even")
        probs = [p for _name, p in rows]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > 10 * probs[1]  # the even split dominates by >10x

    def test_invalid_splits_rejected(self):
        with pytest.raises(ValueError):
            violation_probability_for_split(N, F, O, 2.0, [80])
        with pytest.raises(ValueError):
            violation_probability_for_split(N, F, O, 2.0, [50, 50])  # > n-f
        with pytest.raises(ValueError):
            asymmetric_split_violation(N, F, O, 2.0, 1.5)
        with pytest.raises(ValueError):
            withholding_violation(N, F, O, 2.0, 79)

    def test_consistent_with_agreement_module(self):
        """The 2-way even split must match agreement.violation_exact_pair."""
        from repro.analysis.agreement import violation_exact_pair

        ours = even_split_violation(N, F, O, 2.0, 2)
        theirs = violation_exact_pair(N, F, O, 2.0)
        assert ours == pytest.approx(theirs, rel=1e-9)
