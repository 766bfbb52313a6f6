"""Tests for the termination and agreement analyses (Figure 5)."""

import math

import pytest

from repro.analysis import agreement as A
from repro.analysis import termination as T
from repro.errors import AnalysisDomainError


class TestTerminationBounds:
    def test_alpha_formula(self):
        # alpha = (s/n)(n-f)(1 - exp(-sqrt(n))).
        a = T.alpha(100, 20, 34)
        assert a == pytest.approx(0.34 * 80 * (1 - math.exp(-10.0)))

    def test_lemma3_domain(self):
        # Tiny o -> alpha < q -> out of domain.
        with pytest.raises(AnalysisDomainError):
            T.lemma3_commit_quorum_prob(100, 33, 1.0, 2.0)
        assert math.isnan(
            T.lemma3_commit_quorum_prob(100, 33, 1.0, 2.0, strict=False)
        )

    def test_lemma4_below_lemma3(self):
        l3 = T.lemma3_commit_quorum_prob(100, 20, 1.7, 2.0)
        l4 = T.lemma4_replica_terminates(100, 20, 1.7, 2.0)
        assert l4 <= l3

    def test_theorem15_below_lemma4(self):
        """Union bound over all replicas is weaker than per-replica."""
        l4 = T.lemma4_replica_terminates(100, 20, 1.7, 2.0)
        t15 = T.theorem15_all_terminate(100, 20, 1.7, 2.0)
        assert t15 <= l4

    def test_theorem3_asymptotic_close_to_one_for_large_n(self):
        assert T.theorem3_asymptotic(400, 80) > 0.999

    def test_paper_bound_below_exact(self):
        """The closed-form bound must not exceed the exact chain value."""
        for n, f in [(100, 20), (200, 40), (300, 60)]:
            paper = T.lemma4_replica_terminates(n, f, 1.7, 2.0)
            exact = T.replica_terminates_exact(n, f, 1.7, 2.0)
            assert paper <= exact + 1e-9


class TestTerminationExact:
    def test_prepare_quorum_probability(self):
        p = T.prepare_quorum_exact(100, 20, 1.7, 2.0)
        assert 0.9 < p < 1.0

    def test_termination_below_prepare_quorum(self):
        prep = T.prepare_quorum_exact(100, 20, 1.7, 2.0)
        term = T.replica_terminates_exact(100, 20, 1.7, 2.0)
        assert term <= prep

    def test_figure5_shape_increasing_in_n(self):
        """Figure 5 top-right: termination probability grows with n."""
        rows = T.termination_curve_vs_n([100, 200, 300], 0.2, 1.7)
        exacts = [exact for _n, _paper, exact in rows]
        assert exacts == sorted(exacts)

    def test_figure5_shape_decreasing_in_f(self):
        """Figure 5 bottom-right: termination decreases with f/n."""
        rows = T.termination_curve_vs_f(100, [0.1, 0.2, 0.3], 1.7)
        exacts = [exact for _r, _paper, exact in rows]
        assert exacts == sorted(exacts, reverse=True)

    def test_higher_o_higher_termination(self):
        t_low = T.replica_terminates_exact(100, 20, 1.6, 2.0)
        t_high = T.replica_terminates_exact(100, 20, 1.8, 2.0)
        assert t_high > t_low

    def test_all_terminate_methods(self):
        prod = T.all_terminate_exact(100, 20, 1.7, 2.0, method="product")
        union = T.all_terminate_exact(100, 20, 1.7, 2.0, method="union")
        per = T.replica_terminates_exact(100, 20, 1.7, 2.0)
        assert prod <= per
        assert union <= per
        with pytest.raises(ValueError):
            T.all_terminate_exact(100, 20, 1.7, 2.0, method="bogus")

    def test_decide_within_views(self):
        p = 0.9
        assert T.decide_within_views(p, 1) == pytest.approx(0.9)
        assert T.decide_within_views(p, 3) == pytest.approx(1 - 0.1**3)
        # Theorem 4: with infinite correct-leader views, decision is certain.
        assert T.decide_within_views(0.1, 500) == pytest.approx(1.0)


class TestAgreementBounds:
    def test_optimal_split_sizes(self):
        assert A.optimal_side_senders(100, 20) == 60
        assert A.optimal_side_correct(100, 20) == 40

    def test_lemma5_domain(self):
        # o=1.7, r=60 -> o*r = 102 > 100: outside.
        with pytest.raises(AnalysisDomainError):
            A.lemma5_side_quorum_bound(100, 20, 1.7, 2.0)
        # o=1.6, r=60 -> 96 <= 100: inside.
        value = A.lemma5_side_quorum_bound(100, 20, 1.6, 2.0)
        assert 0 < value < 1

    def test_theorem7_is_fourth_power(self):
        inner = A.lemma5_side_quorum_bound(100, 20, 1.6, 2.0)
        assert A.theorem7_violation_bound(100, 20, 1.6, 2.0) == pytest.approx(
            inner**4
        )

    def test_lemma6_decreases_with_fewer_preparers(self):
        few = A.lemma6_decide_bound(100, 20, 1.6, 2.0, r=30)
        more = A.lemma6_decide_bound(100, 20, 1.6, 2.0, r=55)
        assert few < more

    def test_theorem8_formula_and_domain(self):
        value = A.theorem8_viewchange_bound(100, 20, 1.6, 2.0)
        delta = 2 * 100 / (1.6 * 120) - 1
        q = 20
        expected = min(
            1.0, 3 * math.exp(-q * delta**2 / ((delta + 1) * (delta + 2)))
        )
        assert value == pytest.approx(expected)
        with pytest.raises(AnalysisDomainError):
            A.theorem8_viewchange_bound(100, 20, 1.7, 2.0)  # o too large

    def test_corollary1_in_unit_interval(self):
        for o in (1.6, 1.7, 1.8):
            p = A.corollary1_safety(300, 60, o, 2.0)
            assert 0.0 <= p <= 1.0


class TestAgreementExact:
    def test_side_decide_small(self):
        p = A.side_decide_exact(100, 20, 1.7, 2.0)
        assert 0 < p < 0.2

    def test_pair_violation_is_square(self):
        side = A.side_decide_exact(100, 20, 1.7, 2.0)
        assert A.violation_exact_pair(100, 20, 1.7, 2.0) == pytest.approx(side**2)

    def test_any_variant_above_pair(self):
        assert A.violation_exact_any(100, 20, 1.7, 2.0) >= A.violation_exact_pair(
            100, 20, 1.7, 2.0
        )

    def test_figure5_shape_agreement_high(self):
        """Figure 5 left panels live in the 0.99..1 regime at f/n=0.2."""
        for n in (100, 200, 300):
            agree = A.agreement_in_view_exact(n, n // 5, 1.7, 2.0)
            assert agree > 0.99

    def test_figure5_shape_decreasing_in_f(self):
        rows = A.agreement_curve_vs_f(100, [0.1, 0.2, 0.3], 1.7)
        exacts = [exact for _r, _paper, exact in rows]
        assert exacts == sorted(exacts, reverse=True)

    def test_lower_o_better_agreement(self):
        low = A.agreement_in_view_exact(100, 20, 1.6, 2.0)
        high = A.agreement_in_view_exact(100, 20, 1.8, 2.0)
        assert low > high

    def test_o_trades_agreement_for_termination_and_messages(self):
        """§3.1: a larger o raises termination and messages, and erodes
        within-view agreement (n=100, f=20, o from 1.3 to 2.4)."""
        from repro.analysis import messages as M

        sweep = (1.3, 1.5, 1.7, 1.9, 2.1, 2.4)
        term = [T.replica_terminates_exact(100, 20, o, 2.0) for o in sweep]
        msgs = [M.probft_messages(100, o) for o in sweep]
        agree = [A.agreement_in_view_exact(100, 20, o, 2.0, variant="pair") for o in sweep]
        assert term == sorted(term)
        assert msgs == sorted(msgs)
        assert agree[0] > agree[-1]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            A.agreement_in_view_exact(100, 20, 1.7, 2.0, variant="bogus")

    def test_theorem5_merging_increases_probability(self):
        before, after = A.theorem5_merging_increases_violation(
            100, 1.7, 2.0, [20, 25, 55]
        )
        assert after > before

    def test_theorem5_needs_three_groups(self):
        with pytest.raises(ValueError):
            A.theorem5_merging_increases_violation(100, 1.7, 2.0, [50, 50])
