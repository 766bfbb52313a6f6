"""Tests for the probability bounds (paper Appendix A)."""

import math

import pytest
from scipy import stats

from repro.analysis.agreement import lemma6_decide_bound
from repro.analysis.bounds import binom_tail_ge, chernoff_lower_tail
from repro.analysis.termination import decide_within_views
from repro.errors import AnalysisDomainError


class TestChernoff:
    def test_lower_tail_formula(self):
        assert chernoff_lower_tail(100.0, 0.5) == pytest.approx(
            math.exp(-0.25 * 100 / 2)
        )

    def test_upper_tail_formula(self):
        """Lemma 6 is the upper tail ``exp(−δ²·E[X]/(2+δ))`` of
        ``X ~ Bin(r, s/n)`` with ``E[X] = o·q·r/n`` and ``q = (1+δ)·E[X]``;
        at n = 100, o = 1.6, l = 2 (q = 20), ``r = n/(1.5·o)`` gives δ = 0.5."""
        n, o, q = 100, 1.6, 20
        r = n / (1.5 * o)
        mean = o * q * r / n
        assert lemma6_decide_bound(n, 20, o, 2.0, r) == pytest.approx(
            math.exp(-0.25 * mean / 2.5)
        )

    def test_upper_tail_domain(self):
        """Needs δ ≥ 0, i.e. ``r ≤ n/o``; δ = 0 bounds nothing."""
        with pytest.raises(AnalysisDomainError):
            lemma6_decide_bound(100, 20, 1.6, 2.0, 70)
        assert math.isnan(lemma6_decide_bound(100, 20, 1.6, 2.0, 70, strict=False))
        assert lemma6_decide_bound(100, 20, 1.6, 2.0, 100 / 1.6) == 1.0

    def test_lower_tail_domain(self):
        with pytest.raises(AnalysisDomainError):
            chernoff_lower_tail(10.0, 0.0)
        with pytest.raises(AnalysisDomainError):
            chernoff_lower_tail(10.0, 1.0)
        assert math.isnan(chernoff_lower_tail(10.0, 1.5, strict=False))

    def test_bounds_actually_bound_binomial_tails(self):
        """Chernoff must dominate the exact binomial tail."""
        r, p = 200, 0.3
        mean = r * p
        for delta in (0.1, 0.3, 0.5, 0.8):
            exact_low = float(stats.binom.cdf(int((1 - delta) * mean), r, p))
            assert exact_low <= chernoff_lower_tail(mean, delta) + 1e-12

    def test_tighter_for_larger_delta(self):
        b1 = chernoff_lower_tail(50.0, 0.2)
        b2 = chernoff_lower_tail(50.0, 0.6)
        assert b2 < b1


class TestBinomialTails:
    def test_ge_le_complement(self):
        r, p = 50, 0.4
        for k in (0, 10, 25, 50, 51):
            total = float(stats.binom.cdf(k - 1, r, p)) + binom_tail_ge(r, p, k)
            assert total == pytest.approx(1.0)

    def test_edge_cases(self):
        assert binom_tail_ge(10, 0.5, 0) == 1.0
        assert binom_tail_ge(10, 0.5, 11) == 0.0

    def test_invalid_params(self):
        with pytest.raises(AnalysisDomainError):
            binom_tail_ge(-1, 0.5, 0)
        with pytest.raises(AnalysisDomainError):
            binom_tail_ge(10, 1.5, 0)


class TestGeometric:
    """Theorem 4/17's geometric form."""

    def test_formula(self):
        assert decide_within_views(0.5, 2) == pytest.approx(0.75)

    def test_limits(self):
        assert decide_within_views(0.3, 0) == 0.0
        assert decide_within_views(1.0, 1) == 1.0
        assert decide_within_views(0.9, 100) == pytest.approx(1.0)

    def test_monotone_in_k(self):
        values = [decide_within_views(0.2, k) for k in range(10)]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(AnalysisDomainError):
            decide_within_views(1.5, 2)
