"""Analytic evaluation: every bound in the paper, plus exact computations.

The paper's evaluation (§5, Figures 1 and 5) is numerical.  This package
reproduces it three ways per quantity:

1. the **paper's closed-form bounds** (Chernoff-based; valid only on the
   stated parameter domains — functions raise
   :class:`~repro.errors.AnalysisDomainError` or return NaN outside them);
2. **exact binomial computations** — for a fixed receiver, the number of
   senders whose VRF sample includes it is exactly ``Bin(r, s/n)`` (samples
   are independent *across senders*; the dependence the paper battles with
   negative association is across receivers), so per-replica quorum
   probabilities have closed forms via scipy;
3. checked at small n against the model's exact probabilities —
   ``tests/test_analysis_exact.py`` convolves every sender's uniform
   s-subset law over per-receiver counts, prepare then commit, and pins
   each chain's direction.  The protocol itself is measured by the
   ``probft/equivocation/constant`` matrix cell
   (:func:`~repro.harness.registry.run_matrix`).

Every function here has a production reader: the Figure 1b and Figure 5
tables and the "Paper claims" ledger of ``repro figures``
(:mod:`repro.harness.figures`), which evaluates each lemma, theorem and
corollary at l = 2, f = n/5, o ∈ {1.6, 1.7, 1.8} and n ∈ {100, 300, 1000}
(``tests/test_analysis_readers.py`` checks it).

Modules:

* :mod:`repro.analysis.bounds` — the Chernoff lower tail and the exact
  binomial tail (Appendix A).
* :mod:`repro.analysis.quorum_probability` — Lemma 1, Theorem 11,
  Corollary 2, Theorems 2/14 and 6/12 (Appendix B).
* :mod:`repro.analysis.termination` — Lemmas 3–4, Theorems 15, 3/16, 4/17
  (Appendix D.1) and the one exact chain, ``decide_chain``.
* :mod:`repro.analysis.agreement` — Lemmas 5–6, Theorems 5/13, 7/18, 8/19
  and Corollary 1 (Appendices C, D.2, D.3).
* :mod:`repro.analysis.messages` — message/step count formulas (Figure 1,
  §3.3).
"""

from . import agreement, bounds, messages, quorum_probability, termination

__all__ = [
    "agreement",
    "bounds",
    "messages",
    "quorum_probability",
    "termination",
]
