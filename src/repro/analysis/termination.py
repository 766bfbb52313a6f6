"""Termination probabilities (paper §4.2, Appendix D.1) — Figure 5 right panels.

Quantities, for a view with a *correct leader* after GST:

* Lemma 3  — probability a fixed correct replica receives Commit messages
  from a probabilistic quorum;
* Lemma 4  — probability a fixed correct replica decides (prepare ∧ commit
  quorums);
* Theorem 15 — probability *every* correct replica decides (union bound);
* Theorem 3/16 — the asymptotic form ``1 − 2(n−f)·exp(−Θ(√n))``;
* Theorem 4/17 — decision within ``k`` correct-leader views (geometric).

Each paper bound is paired with an exact binomial chain (``*_exact``):
stage 1, the number of correct replicas reaching a fixed receiver's prepare
collector is ``Bin(n−f, s/n)``; stage 2, the number of correct replicas that
themselves prepared is concentrated around ``(n−f)·p_prep`` and the commit
quorum probability is averaged over that distribution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from ..config import probabilistic_quorum_size, vrf_sample_size
from ..errors import AnalysisDomainError


def _sizes(n: int, o: float, l: float) -> tuple:
    q = probabilistic_quorum_size(n, l)
    s = vrf_sample_size(n, q, o)
    return q, s


def alpha(n: int, f: int, s: int) -> float:
    """``α = (s/n)·(n−f)·(1 − exp(−√n))`` (Lemma 3)."""
    return (s / n) * (n - f) * (1.0 - math.exp(-math.sqrt(n)))


def lemma3_commit_quorum_prob(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Lemma 3: ``Pr(commit quorum) ≥ 1 − exp(−(α−q)²/(2α))``; needs α > q."""
    q, s = _sizes(n, o, l)
    a = alpha(n, f, s)
    if a <= q:
        if strict:
            raise AnalysisDomainError(
                f"Lemma 3 needs alpha > q (alpha={a:.2f}, q={q})"
            )
        return float("nan")
    return 1.0 - math.exp(-((a - q) ** 2) / (2.0 * a))


def lemma4_replica_terminates(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Lemma 4: per-replica termination ≥ ``1 − exp(−(α−q)²/(2α)) − exp(−√n)``."""
    commit = lemma3_commit_quorum_prob(n, f, o, l, strict=strict)
    if math.isnan(commit):
        return float("nan")
    value = commit - math.exp(-math.sqrt(n))
    return max(0.0, value)


def theorem15_all_terminate(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Theorem 15: all-replica termination via a union bound over ``n−f``."""
    q, s = _sizes(n, o, l)
    a = alpha(n, f, s)
    if a <= q:
        if strict:
            raise AnalysisDomainError(
                f"Theorem 15 needs alpha > q (alpha={a:.2f}, q={q})"
            )
        return float("nan")
    per_replica_failure = math.exp(-((a - q) ** 2) / (2.0 * a)) + math.exp(
        -math.sqrt(n)
    )
    return max(0.0, 1.0 - (n - f) * per_replica_failure)


def theorem3_asymptotic(n: int, f: int) -> float:
    """Theorem 3/16's asymptotic form ``1 − 2(n−f)·exp(−√n)`` (clipped at 0)."""
    return max(0.0, 1.0 - 2.0 * (n - f) * math.exp(-math.sqrt(n)))


# ----------------------------------------------------------------------
# Exact binomial chains
# ----------------------------------------------------------------------
def prepare_quorum_exact(n: int, f: int, o: float, l: float) -> float:
    """Exact per-replica prepare-quorum probability ``Pr(Bin(n−f, s/n) ≥ q)``."""
    q, s = _sizes(n, o, l)
    return float(stats.binom.sf(q - 1, n - f, s / n))


def replica_terminates_exact(n: int, f: int, o: float, l: float) -> float:
    """Exact-chain per-replica termination probability.

    ``p_prep`` = prepare-quorum probability; the number ``M`` of correct
    replicas that prepared (and hence multicast Commit) is modelled as
    ``Bin(n−f, p_prep)``; the commit-quorum probability is
    ``E_M[Pr(Bin(M, s/n) ≥ q)]``, and the replica must also have prepared
    itself.  Stages are treated as independent (they are positively
    associated, so this slightly *underestimates*).
    ``tests/test_analysis_exact.py`` computes the gap exactly at small n:
    0.4346 against 0.4643 at ``(n, f, o, l) = (6, 1, 1.3, 1.2)``, 0.5998
    against 0.6275 at ``(7, 2, 1.5, 1.0)``.
    """
    q, s = _sizes(n, o, l)
    p = s / n
    n_correct = n - f
    p_prep = float(stats.binom.sf(q - 1, n_correct, p))
    m = np.arange(0, n_correct + 1)
    weights = stats.binom.pmf(m, n_correct, p_prep)
    commit_given_m = stats.binom.sf(q - 1, m, p)
    p_commit = float(np.dot(weights, commit_given_m))
    return p_prep * p_commit


def all_terminate_exact(
    n: int, f: int, o: float, l: float, method: str = "product"
) -> float:
    """Exact-chain probability that *all* correct replicas terminate.

    ``method='product'`` treats replicas as independent (``p^(n−f)``);
    ``method='union'`` uses the union bound (``1 − (n−f)(1−p)``, clipped).
    The two do not bracket the truth.  Every receiver's commit quorum is
    drawn from the same prepared set, which correlates receivers
    *positively*, so the exact probability lies above the product form at
    every configuration ``tests/test_analysis_exact.py`` computes: 0.0387
    against a product of 0.0155 (union 0) at ``(n, f, o, l) = (6, 1, 1.3,
    1.2)``, 0.1486 against 0.0776 at ``(7, 2, 1.5, 1.0)``.  Both forms are
    lower estimates there.
    """
    p = replica_terminates_exact(n, f, o, l)
    n_correct = n - f
    if method == "product":
        return p**n_correct
    if method == "union":
        return max(0.0, 1.0 - n_correct * (1.0 - p))
    raise ValueError(f"unknown method {method!r}")


def decide_within_views(p_per_view: float, k: int) -> float:
    """Theorem 4/17: probability of deciding within ``k`` correct-leader views."""
    if not 0 <= p_per_view <= 1 or k < 0:
        raise AnalysisDomainError(
            f"invalid parameters p={p_per_view}, k={k}"
        )
    return 1.0 - (1.0 - p_per_view) ** k


def termination_curve_vs_n(
    n_values, f_ratio: float, o: float, l: float = 2.0
) -> list:
    """Figure 5 top-right series: per-replica termination vs ``n``.

    Returns ``[(n, paper_bound_or_nan, exact_chain), ...]`` with
    ``f = ⌊f_ratio·n⌋``.
    """
    rows = []
    for n in n_values:
        f = int(f_ratio * n)
        paper = lemma4_replica_terminates(n, f, o, l, strict=False)
        exact = replica_terminates_exact(n, f, o, l)
        rows.append((n, paper, exact))
    return rows


def termination_curve_vs_f(
    n: int, f_ratios, o: float, l: float = 2.0
) -> list:
    """Figure 5 bottom-right series: per-replica termination vs ``f/n``."""
    rows = []
    for ratio in f_ratios:
        f = int(ratio * n)
        paper = lemma4_replica_terminates(n, f, o, l, strict=False)
        exact = replica_terminates_exact(n, f, o, l)
        rows.append((ratio, paper, exact))
    return rows
