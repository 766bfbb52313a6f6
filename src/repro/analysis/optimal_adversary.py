"""Numerical exploration of Byzantine-leader strategies (Theorems 5 and 6).

The paper argues (§4.3, observations 1-3) that the leader's *optimal*
equivocation strategy is exactly two proposals, each to half the correct
replicas plus all Byzantine ones (Figure 4c).  This module makes that
argument quantitative: it evaluates the exact-chain violation probability of

* k-way even splits (Theorem 5: fewer proposals are better, so k = 2 wins);
* asymmetric 2-way splits (balanced is best);
* withholding proposals from some correct replicas (wasteful).

Used by the tests.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import stats

from ..config import probabilistic_quorum_size, vrf_sample_size


def _sizes(n: int, o: float, l: float) -> Tuple[int, int]:
    q = probabilistic_quorum_size(n, l)
    s = vrf_sample_size(n, q, o)
    return q, s


def group_decide_probability(
    n: int, f: int, o: float, l: float, correct_in_group: int
) -> float:
    """Exact-chain probability that a fixed correct member of a proposal
    group decides that group's value.

    The group's senders are its ``correct_in_group`` correct replicas plus
    all ``f`` Byzantine supporters (prepare phase); its committers are the
    correct members that prepared plus the Byzantine supporters.
    """
    q, s = _sizes(n, o, l)
    p = s / n
    if correct_in_group <= 0:
        return 0.0
    senders = correct_in_group + f
    p_prep = float(stats.binom.sf(q - 1, senders, p))
    m = np.arange(0, correct_in_group + 1)
    weights = stats.binom.pmf(m, correct_in_group, p_prep)
    commit_given_m = stats.binom.sf(q - 1, m + f, p)
    p_commit = float(np.dot(weights, commit_given_m))
    return p_prep * p_commit


def violation_probability_for_split(
    n: int, f: int, o: float, l: float, group_sizes: Sequence[int]
) -> float:
    """Probability that two *different* groups each get a fixed member to
    decide (pairwise over the two largest groups, matching the paper's
    fixed-pair analysis).

    ``group_sizes`` are counts of **correct** replicas per proposal group;
    they must sum to at most ``n − f``.
    """
    if len(group_sizes) < 2:
        raise ValueError("need at least two proposal groups")
    if sum(group_sizes) > n - f:
        raise ValueError(
            f"groups hold {sum(group_sizes)} correct replicas > n-f = {n - f}"
        )
    per_group = sorted(
        (group_decide_probability(n, f, o, l, size) for size in group_sizes),
        reverse=True,
    )
    return per_group[0] * per_group[1]


def even_split_violation(
    n: int, f: int, o: float, l: float, k: int
) -> float:
    """Violation probability when the leader splits correct replicas into
    ``k`` even groups (Theorem 5 predicts this decreases with k)."""
    n_correct = n - f
    base = n_correct // k
    sizes = [base] * k
    for i in range(n_correct - base * k):
        sizes[i] += 1
    return violation_probability_for_split(n, f, o, l, sizes)


def asymmetric_split_violation(
    n: int, f: int, o: float, l: float, fraction: float
) -> float:
    """Violation probability of a 2-way split placing ``fraction`` of the
    correct replicas in group 1 (0.5 = the paper's optimal balance)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0,1), got {fraction}")
    n_correct = n - f
    g1 = max(1, int(round(fraction * n_correct)))
    g1 = min(g1, n_correct - 1)
    return violation_probability_for_split(n, f, o, l, [g1, n_correct - g1])


def withholding_violation(
    n: int, f: int, o: float, l: float, omitted: int
) -> float:
    """Violation probability when the leader leaves ``omitted`` correct
    replicas without any proposal (the Π₀ of Figure 4a) — always worse for
    the adversary than using everyone."""
    n_correct = n - f - omitted
    if n_correct < 2:
        raise ValueError("too many omitted replicas")
    half = n_correct // 2
    return violation_probability_for_split(n, f, o, l, [half, n_correct - half])


def strategy_comparison(
    n: int, f: int, o: float, l: float = 2.0
) -> List[Tuple[str, float]]:
    """Violation probabilities for a menu of strategies, best-for-adversary
    first.  The optimal (Figure 4c) strategy should top the list."""
    rows = [
        ("2-way even split (Fig. 4c optimal)", even_split_violation(n, f, o, l, 2)),
        ("3-way even split", even_split_violation(n, f, o, l, 3)),
        ("4-way even split", even_split_violation(n, f, o, l, 4)),
        ("2-way 70/30 split", asymmetric_split_violation(n, f, o, l, 0.7)),
        ("2-way 90/10 split", asymmetric_split_violation(n, f, o, l, 0.9)),
        (
            "2-way split, 20% of correct omitted",
            withholding_violation(n, f, o, l, (n - f) // 5),
        ),
    ]
    return sorted(rows, key=lambda item: item[1], reverse=True)
