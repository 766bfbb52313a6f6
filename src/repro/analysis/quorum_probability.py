"""Probability of forming a probabilistic quorum (paper Appendix B).

Setting: ``r`` senders each draw a VRF sample of ``s = o·q`` distinct
replicas uniformly from ``Π`` (``|Π| = n``) and send a message to every
sample member.  A fixed receiver ``j`` is in each sender's sample with
probability ``s/n``, independently *across senders* — so the number of
senders reaching ``j`` is exactly ``Bin(r, s/n)`` and Lemma 1's expectation
is ``r·s/n``.  (The negative association machinery in the paper handles
dependence across *receivers*, which matters for all-replica statements.)
"""

from __future__ import annotations

import math

from ..config import probabilistic_quorum_size, vrf_sample_size
from ..errors import AnalysisDomainError
from .bounds import binom_tail_ge, chernoff_lower_tail


def _sizes(n: int, o: float, l: float) -> tuple:
    """The protocol's integer sizes ``q = ⌈l√n⌉`` and ``s = ⌈o·q⌉``."""
    q = probabilistic_quorum_size(n, l)
    return q, vrf_sample_size(n, q, o)


def expected_senders_reaching(r: int, s: int, n: int) -> float:
    """Lemma 1: expected number of the ``r`` senders whose sample holds ``j``."""
    if n <= 0 or r < 0 or not 0 <= s <= n:
        raise AnalysisDomainError(f"invalid parameters r={r}, s={s}, n={n}")
    return r * s / n


def prob_quorum_theorem11(
    n: int, r: int, s: int, q: int, strict: bool = True
) -> float:
    """Theorem 11's lower bound on ``Pr(I_j ≥ q)``.

    ``1 − exp(−((s·r)/(2n)) · (1 − n/(o·r))²)`` with ``o = s/q``; requires
    ``n < o·r``.
    """
    if q <= 0 or s < q:
        raise AnalysisDomainError(f"need s >= q >= 1, got s={s}, q={q}")
    o = s / q
    if not n < o * r:
        if strict:
            raise AnalysisDomainError(
                f"Theorem 11 needs n < o*r (n={n}, o={o:.3f}, r={r})"
            )
        return float("nan")
    delta = 1.0 - n / (o * r)
    mean = expected_senders_reaching(r, s, n)
    return 1.0 - chernoff_lower_tail(mean, delta, strict=strict)


def corollary2_constant(n: int, f: int, o: float) -> float:
    """The constant ``c = o·(n−f)/n`` of Corollary 2."""
    return o * (n - f) / n


def prob_quorum_corollary2(
    n: int, f: int, o: float, q: int, strict: bool = True
) -> float:
    """Corollary 2: all ``n−f`` correct replicas send; bound via ``c``.

    ``1 − exp(−q·(c−1)²/(2c))`` with ``c = o(n−f)/n``; requires
    ``n < o·(n−f)`` (i.e. c > 1).
    """
    c = corollary2_constant(n, f, o)
    if c <= 1.0:
        if strict:
            raise AnalysisDomainError(
                f"Corollary 2 needs n < o*(n-f); c={c:.4f} <= 1"
            )
        return float("nan")
    return 1.0 - math.exp(-q * (c - 1.0) ** 2 / (2.0 * c))


def theorem2_o_interval(n: int, f: int) -> tuple:
    """Theorem 2/14's admissible ``o`` interval ``[(2−√3), (2+√3)]·n/(n−f)``,
    its lower end raised to 1 (the protocol needs ``o ≥ 1``)."""
    lo = (2.0 - math.sqrt(3.0)) * n / (n - f)
    hi = (2.0 + math.sqrt(3.0)) * n / (n - f)
    return (max(1.0, lo), hi)


def prob_quorum_theorem2(
    n: int, f: int, l: float, o: float, strict: bool = True
) -> float:
    """Theorem 2: with ``q = l√n`` and admissible ``o``, the quorum forms
    with probability at least ``1 − exp(−√n)``.

    Returns Corollary 2's bound at the continuous ``q = l·√n`` (as in the
    paper's analysis), NaN for ``o`` outside :func:`theorem2_o_interval`.
    It reaches ``1 − exp(−√n)`` only where :func:`theorem2_premise_holds`;
    at l = 2, f = n/5 and o ∈ {1.6, 1.7, 1.8} it does not (the
    "Paper claims" table of ``repro figures``).
    """
    lo, hi = theorem2_o_interval(n, f)
    if not lo <= o <= hi:
        if strict:
            raise AnalysisDomainError(
                f"Theorem 2 needs o in [{lo:.3f}, {hi:.3f}], got {o}"
            )
        return float("nan")
    c = corollary2_constant(n, f, o)
    q_cont = l * math.sqrt(n)
    bound = 1.0 - math.exp(-q_cont * (c - 1.0) ** 2 / (2.0 * c))
    return bound


def theorem2_premise_holds(n: int, f: int, l: float, o: float) -> bool:
    """Whether ``l ≥ 2c/(c−1)²`` — the condition making the Theorem 2 bound
    at least ``1 − exp(−√n)``."""
    c = corollary2_constant(n, f, o)
    if c <= 1.0:
        return False
    return l >= (2.0 * c) / (c - 1.0) ** 2


def prob_quorum_exact(n: int, r: int, s: int, q: int) -> float:
    """Exact per-receiver quorum probability: ``Pr(Bin(r, s/n) ≥ q)``."""
    if n <= 0 or not 0 <= s <= n:
        raise AnalysisDomainError(f"invalid parameters s={s}, n={n}")
    return binom_tail_ge(r, s / n, q)


def prob_quorum_exact_config(n: int, f: int, o: float, l: float) -> float:
    """Exact per-receiver prepare-quorum probability with all correct senders.

    Uses the integer protocol sizes ``q = ⌈l√n⌉``, ``s = ⌈o·q⌉`` (what the
    implementation actually does).
    """
    q, s = _sizes(n, o, l)
    return prob_quorum_exact(n, n - f, s, q)


def theorem6_monotone_in_r(n: int, s: int, q: int, r_values) -> list:
    """Theorem 6/12: quorum probability is increasing in the sender count ``r``.

    Returns the exact probabilities for each ``r`` (callers assert
    monotonicity).
    """
    return [prob_quorum_exact(n, r, s, q) for r in r_values]
