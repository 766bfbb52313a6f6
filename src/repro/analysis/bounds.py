"""Probability tail bounds (paper Appendix A).

The Chernoff lower tail for sums of independent (or negatively associated —
Theorem 9) Bernoulli variables, and the exact binomial tail via scipy as the
ground truth it approximates.  Lemmas 5 and 6 write their upper-tail bound
in the paper's own variables
(:func:`repro.analysis.agreement.lemma6_decide_bound`).
"""

from __future__ import annotations

import math

from scipy import stats

from ..errors import AnalysisDomainError


def chernoff_lower_tail(mean: float, delta: float, strict: bool = True) -> float:
    """Inequality (1): ``Pr(X ≤ (1−δ)·E[X]) ≤ exp(−δ²·E[X]/2)``, δ ∈ (0, 1)."""
    if not 0 < delta < 1:
        if strict:
            raise AnalysisDomainError(
                f"Chernoff lower tail needs delta in (0,1), got {delta}"
            )
        return float("nan")
    if mean < 0:
        raise AnalysisDomainError(f"mean must be >= 0, got {mean}")
    return math.exp(-(delta**2) * mean / 2.0)


def binom_tail_ge(r: int, p: float, k: int) -> float:
    """Exact ``Pr(Bin(r, p) ≥ k)``."""
    if r < 0 or not 0 <= p <= 1:
        raise AnalysisDomainError(f"invalid binomial parameters r={r}, p={p}")
    if k <= 0:
        return 1.0
    if k > r:
        return 0.0
    return float(stats.binom.sf(k - 1, r, p))
