"""Termination probabilities (paper §4.2, Appendix D.1) — Figure 5 right panels.

Quantities, for a view with a *correct leader* after GST:

* Lemma 3  — probability a fixed correct replica receives Commit messages
  from a probabilistic quorum;
* Lemma 4  — probability a fixed correct replica decides (prepare ∧ commit
  quorums);
* Theorem 15 — probability *every* correct replica decides (union bound);
* Theorem 3/16 — the asymptotic form ``1 − 2(n−f)·exp(−Θ(√n))``;
* Theorem 4/17 — decision within ``k`` correct-leader views (geometric).

Each paper bound is paired with an exact binomial chain (:func:`decide_chain`,
which :mod:`repro.analysis.agreement` runs too): stage 1, the number of
replicas reaching a fixed receiver's prepare collector is binomial; stage 2,
the number of correct replicas that themselves prepared is ``Bin(·, p_prep)``
and the commit quorum probability is averaged over that distribution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from ..errors import AnalysisDomainError
from .quorum_probability import _sizes


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
    """Theorem 3/16's asymptotic form ``1 − 2(n−f)·exp(−√n)`` (clipped at 0).

    It follows from Theorem 15 where Lemma 3's exponent ``(α−q)²/(2α)``
    reaches ``√n``, which with ``α ≈ c·q`` is Theorem 2's premise
    ``l ≥ 2c/(c−1)²``.
    """
    return max(0.0, 1.0 - 2.0 * (n - f) * math.exp(-math.sqrt(n)))


# ----------------------------------------------------------------------
# Exact binomial chains
# ----------------------------------------------------------------------
def decide_chain(n: int, o: float, l: float, correct: int, byzantine: int) -> tuple:
    """The exact chain ``(p_prep, p_commit)`` of a fixed correct replica
    whose value ``correct`` correct and ``byzantine`` Byzantine replicas
    vote for; it decides with their product.

    ``p_prep = Pr(Bin(correct + byzantine, s/n) ≥ q)``; the number ``M`` of
    those correct replicas that prepared (and hence multicast Commit) is
    modelled as ``Bin(correct, p_prep)``, and ``p_commit =
    E_M[Pr(Bin(M + byzantine, s/n) ≥ q)]``.  Stages are treated as
    independent (they are positively associated, so the product slightly
    *underestimates*).  Called as ``(n−f, 0)`` by termination, ``((n−f)/2,
    f)`` by a side of the optimal split and ``(c, f)`` by a proposal group
    of ``c`` correct replicas (Theorem 5).
    """
    q, s = _sizes(n, o, l)
    p = s / n
    p_prep = float(stats.binom.sf(q - 1, correct + byzantine, p))
    m = np.arange(0, correct + 1)
    weights = stats.binom.pmf(m, correct, p_prep)
    commit_given_m = stats.binom.sf(q - 1, m + byzantine, p)
    return p_prep, float(np.dot(weights, commit_given_m))


def replica_terminates_exact(n: int, f: int, o: float, l: float) -> float:
    """Exact-chain per-replica termination probability: :func:`decide_chain`
    with all ``n−f`` correct replicas voting.

    ``tests/test_analysis_exact.py`` computes the chain's gap exactly at
    small n: 0.4346 against 0.4643 at ``(n, f, o, l) = (6, 1, 1.3, 1.2)``,
    0.5998 against 0.6275 at ``(7, 2, 1.5, 1.0)``.
    """
    return math.prod(decide_chain(n, o, l, n - f, 0))


def all_terminate_exact(n: int, f: int, o: float, l: float) -> float:
    """Exact-chain probability that *all* correct replicas terminate, with
    replicas treated as independent (``p^(n−f)``).

    Every receiver's commit quorum is drawn from the same prepared set, which
    correlates receivers *positively*, so the exact probability lies above
    this product at every configuration ``tests/test_analysis_exact.py``
    computes: 0.0387 against 0.0155 at ``(n, f, o, l) = (6, 1, 1.3, 1.2)``,
    0.1486 against 0.0776 at ``(7, 2, 1.5, 1.0)``.
    """
    return replica_terminates_exact(n, f, o, l) ** (n - f)


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
