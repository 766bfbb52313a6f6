"""Agreement probabilities (paper §4.3, Appendices C/D.2/D.3) — Figure 5 left panels.

Within a view, the worst case is the *optimal split* of Figure 4c: a
Byzantine leader sends ``val₁`` to half the correct replicas plus all
Byzantine replicas (``r = (n−f)/2 + f`` senders per side) and ``val₂`` to
the other half plus the Byzantine replicas.

* Lemma 5 / Theorem 7 — within-view disagreement bounds (Chernoff, valid for
  ``r ≤ n/o``);
* Theorem 5 — fewer proposal groups are better for the leader;
* Lemma 6 / Theorems 8, 19 — cross-view safety (the NewLeader/safeProposal
  mechanism);
* Corollary 1 — overall safety ``1 − exp(−Θ(√n))``.

Each bound is paired with the exact binomial chain of
:mod:`repro.analysis.termination` (``decide_chain``).  The chains
deliberately count only quorum-formation events (like the paper's
analysis); equivocation *detection*
by correct replicas further reduces the true violation probability, which the
``probft/equivocation/constant`` matrix cell confirms (no violation at n=20
in ``repro figures``' Figure 5 attack table).  Against the model's exact
probabilities at small n (``tests/test_analysis_exact.py``) the fixed-replica
chains underestimate, as the termination chains do.
"""

from __future__ import annotations

import math

from ..errors import AnalysisDomainError
from .quorum_probability import _sizes
from .termination import decide_chain


def optimal_side_senders(n: int, f: int) -> int:
    """Senders per side under the optimal split: ``(n−f)/2 + f``."""
    return (n - f) // 2 + f


def optimal_side_correct(n: int, f: int) -> int:
    """Correct replicas per side: ``(n−f)/2``."""
    return (n - f) // 2


# ----------------------------------------------------------------------
# Paper bounds
# ----------------------------------------------------------------------
def lemma6_decide_bound(
    n: int, f: int, o: float, l: float, r: float, strict: bool = True
) -> float:
    """Lemma 6: a replica forms a quorum from only ``r`` senders with
    probability ≤ ``exp(−δ²·o·q·r/(n(δ+2)))``, ``δ = n/(o·r) − 1``; needs
    ``r ≤ n/o``.  Lemma 5 and Theorem 8 are this bound at their ``r``.
    """
    q, _s = _sizes(n, o, l)
    if o * r > n:
        if strict:
            raise AnalysisDomainError(
                f"the bound needs r <= n/o (r={r}, n/o={n / o:.1f})"
            )
        return float("nan")
    delta = n / (o * r) - 1.0
    return math.exp(-(delta**2) * o * q * r / (n * (delta + 2.0)))


def lemma5_side_quorum_bound(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Lemma 5 inner bound: ``Pr(one replica forms a quorum for one value)``,
    Lemma 6's bound at the optimal split's ``r = (n−f)/2 + f``."""
    return lemma6_decide_bound(n, f, o, l, optimal_side_senders(n, f), strict)


def lemma5_disagreement_bound(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Lemma 5: both sides form (prepare) quorums: bound squared."""
    inner = lemma5_side_quorum_bound(n, f, o, l, strict=strict)
    return inner**2


def theorem7_violation_bound(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Theorem 7/18: within-view violation ≤ (Lemma-5 bound)⁴.

    (Prepare-quorums event ``A`` and commit-quorums event ``B`` each bounded
    by the Lemma-5 square.)
    """
    inner = lemma5_side_quorum_bound(n, f, o, l, strict=strict)
    return inner**4


def theorem8_viewchange_bound(
    n: int, f: int, o: float, l: float, strict: bool = True
) -> float:
    """Theorem 8/19: probability a conflicting value gets proposed after a
    decision, ``3·exp(−q·δ²/((δ+1)(δ+2)))`` with ``δ = 2n/(o(n+f)) − 1``:
    three times Lemma 6's bound at ``r = (n+f)/2``.

    Needs ``δ ≥ 0`` i.e. ``o ≤ 2n/(n+f)``.
    """
    bound = 3.0 * lemma6_decide_bound(n, f, o, l, (n + f) / 2, strict)
    return bound if math.isnan(bound) else min(1.0, bound)


def corollary1_safety(
    n: int, f: int, o: float, l: float, strict: bool = False
) -> float:
    """Corollary 1: overall safety probability ``1 − exp(−Θ(√n))``.

    Combines the within-view (Theorem 7) and cross-view (Theorem 19) failure
    bounds.  With ``strict=False`` it is NaN where either component is
    outside its domain: skipping a failure term would overstate safety.
    """
    within = theorem7_violation_bound(n, f, o, l, strict=strict)
    across = theorem8_viewchange_bound(n, f, o, l, strict=strict)
    if math.isnan(within + across):
        return float("nan")
    return max(0.0, 1.0 - within - across)


# ----------------------------------------------------------------------
# Exact binomial chains
# ----------------------------------------------------------------------
def side_decide_exact(n: int, f: int, o: float, l: float) -> float:
    """Exact-chain probability that a *fixed* correct replica on one side of
    the optimal split decides its side's value: :func:`decide_chain` with
    the side's ``(n−f)/2`` correct replicas and all ``f`` Byzantine
    double-voters.

    Like the termination chain it underestimates: 0.3177 against an exact
    0.3816 at ``(n, f, o, l) = (7, 2, 1.5, 1.0)``.
    """
    return math.prod(decide_chain(n, o, l, optimal_side_correct(n, f), f))


def violation_exact_pair(n: int, f: int, o: float, l: float) -> float:
    """Exact-chain probability that one fixed replica per side decides
    (the event whose probability Lemma 5/Theorem 7 bound).

    The square treats the two sides as independent; the exact probability
    is higher at every configuration ``tests/test_analysis_exact.py``
    checks (0.1009 against 0.2476 at ``(n, f, o, l) = (7, 2, 1.5, 1.0)``).
    """
    side = side_decide_exact(n, f, o, l)
    return side**2


def violation_exact_any(n: int, f: int, o: float, l: float) -> float:
    """Estimate that *some* replica on each side decides.

    Treats a side's replicas as independent (``1 − (1−p)^{r_C}`` per side).
    That is no bound in either direction.  Against the exact probability
    that some side replica decides, the per-side term is 0.5345 against
    0.5766 at ``(n, f, o, l) = (7, 2, 1.5, 1.0)`` but 0.9411 against 0.9230
    at ``(7, 2, 1.8, 0.8)`` (``tests/test_analysis_exact.py``).  The
    Figure 5 panels of ``repro figures`` plot the ``pair`` variant
    (:func:`violation_exact_pair`); the attack table prints this one.
    """
    side = side_decide_exact(n, f, o, l)
    r_correct = optimal_side_correct(n, f)
    some_side = 1.0 - (1.0 - side) ** r_correct
    return some_side**2


def agreement_in_view_exact(n: int, f: int, o: float, l: float) -> float:
    """Figure 5 left panels: ``1 − violation`` under the optimal attack."""
    return 1.0 - violation_exact_pair(n, f, o, l)


def agreement_curve_vs_n(n_values, f_ratio: float, o: float, l: float = 2.0) -> list:
    """Figure 5 top-left series: agreement vs ``n`` at fixed ``f/n``."""
    rows = []
    for n in n_values:
        f = int(f_ratio * n)
        paper = 1.0 - theorem7_violation_bound(n, f, o, l, strict=False)
        exact = agreement_in_view_exact(n, f, o, l)
        rows.append((n, paper, exact))
    return rows


def agreement_curve_vs_f(n: int, f_ratios, o: float, l: float = 2.0) -> list:
    """Figure 5 bottom-left series: agreement vs ``f/n`` at fixed ``n``."""
    rows = []
    for ratio in f_ratios:
        f = int(ratio * n)
        paper = 1.0 - theorem7_violation_bound(n, f, o, l, strict=False)
        exact = agreement_in_view_exact(n, f, o, l)
        rows.append((ratio, paper, exact))
    return rows


def theorem5_merging_increases_violation(
    n: int, f: int, o: float, l: float, sizes: list
) -> list:
    """Theorem 5/13: merging the two smallest proposal groups raises a
    member's chance to decide its group's value.

    ``sizes`` count the **correct** replicas of the groups ``|Π₁| ≤ … ≤
    |Π_{m+1}|``; all ``f`` Byzantine replicas vote for every group.  Returns
    the exact-chain decide probability of a member of the smallest group
    before and after merging Π₁ and Π₂.
    """
    if len(sizes) < 3:
        raise ValueError("Theorem 5 compares m+1 >= 3 groups")
    first, second = sorted(sizes)[:2]
    return [
        math.prod(decide_chain(n, o, l, correct, f))
        for correct in (first, first + second)
    ]
