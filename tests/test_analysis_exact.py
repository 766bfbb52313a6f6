"""The analysis chains against the model's exact probabilities at small n.

The model (paper §2.4, Figure 4c): every sender draws its VRF sample as a
uniform s-subset of the n replicas, independently of every other sender,
and a correct replica forms a quorum once q samples hold it.

* **Termination** (correct leader): the n−f correct replicas send Prepare
  and a correct replica prepares at q.  Those that prepared send Commit
  with fresh samples, and a replica decides if it prepared and q Commit
  samples hold it.  Byzantine replicas stay silent.
* **Agreement** (optimal split): the correct replicas are split into
  C1 = [0, ⌊(n−f)/2⌋) and C2 = the rest.  C1 votes val₁, C2 votes val₂,
  and each of the f Byzantine replicas votes for both with one sample per
  phase, so its message counts on both sides.

The exact probability is a convolution.  The joint law of the per-receiver
counts, capped at q, is an array with one axis per correct replica, and
each sender convolves it with the law of its sample.  Commit carries each
replica's prepared bit beside its count, and a correct replica's Commit is
applied only where it prepared.  ``analysis/`` is pinned against this:
per-receiver quorum probabilities to 1e-12, every chain by the direction
of its error.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.analysis import agreement as A
from repro.analysis import quorum_probability as Q
from repro.analysis import termination as T
from repro.config import probabilistic_quorum_size, vrf_sample_size

#: (n, f, o, l), each with 1 < q < n − f so no quorum is trivial or
#: impossible.  (7, 1, 1.2, 1.2) and (8, 2, 1.4, 1.0) behave like these but
#: cost ~0.3-1.2 s each.
CONFIGS = {
    "n5-f1": (5, 1, 1.3, 1.2),
    "n6-f1-o1.3": (6, 1, 1.3, 1.2),
    "n6-f1-o1.5": (6, 1, 1.5, 1.0),
    "n7-f2": (7, 2, 1.5, 1.0),
    "n7-f2-o1.8": (7, 2, 1.8, 0.8),
}

#: Where ``violation_exact_any``'s per-side term lies below the exact
#: probability that some side replica decides (it lies above elsewhere).
ANY_SIDE_TERM_BELOW = {
    "n5-f1": True,
    "n6-f1-o1.3": True,
    "n6-f1-o1.5": True,
    "n7-f2": True,
    "n7-f2-o1.8": False,
}

configs = pytest.mark.parametrize("name", sorted(CONFIGS))


def sizes(n: int, o: float, l: float):
    q = probabilistic_quorum_size(n, l)
    return q, vrf_sample_size(n, q, o)


def bump(law: np.ndarray, axis: int, q: int) -> np.ndarray:
    """One more message for the receiver on ``axis``: count + 1, capped at q."""
    law = np.moveaxis(law, axis, 0)
    out = np.empty_like(law)
    out[0] = 0.0
    out[1:] = law[:-1]
    out[q] += law[q]
    return np.moveaxis(out, 0, axis)


def send(law: np.ndarray, axes: Sequence[int], n: int, s: int, q: int):
    """Convolve ``law`` with one sender whose messages count on ``axes``.

    ``hits[k]`` is the law shifted by every k-subset of ``axes``, summed.
    A uniform s-subset of n meets the |axes| receivers in exactly one given
    k-subset with probability C(n − |axes|, s − k) / C(n, s).
    """
    hits = [law]
    for axis in axes:
        shifted = [bump(h, axis, q) for h in hits]
        hits = [hits[0]] + [a + b for a, b in zip(hits[1:], shifted)] + shifted[-1:]
    others, total = n - len(axes), math.comb(n, s)
    return sum(
        math.comb(others, s - k) / total * h for k, h in enumerate(hits) if k <= s
    )


def reach(correct: int, split: bool) -> Dict[int, List[int]]:
    """The correct replicas whose counts each correct replica's votes move."""
    sides = (
        (range(correct // 2), range(correct // 2, correct))
        if split
        else (range(correct),)
    )
    return {j: list(side) for side in sides for j in side}


def events(decided, correct: int, split: bool, probability) -> Dict[str, float]:
    """Every modelled event, given per-replica decide indicators."""
    out = {
        "decide": probability(decided[0]),
        "all_decide": probability(functools.reduce(np.logical_and, decided)),
    }
    if split:
        half = correct // 2
        some_c1 = functools.reduce(np.logical_or, decided[:half])
        some_c2 = functools.reduce(np.logical_or, decided[half:])
        out["some_side"] = probability(some_c1)
        out["pair"] = probability(decided[0] & decided[half])
        out["violation"] = probability(some_c1 & some_c2)
    return out


@functools.lru_cache(maxsize=None)
def exact(n: int, f: int, o: float, l: float, split: bool) -> Dict[str, float]:
    """The model's probabilities by convolution (see the module docstring)."""
    q, s = sizes(n, o, l)
    correct = n - f
    moves = reach(correct, split)
    byzantine = f if split else 0
    everyone = list(range(correct))

    # Prepare: one count axis per correct replica.
    law = np.zeros((q + 1,) * correct)
    law[(0,) * correct] = 1.0
    for j in range(correct):
        law = send(law, moves[j], n, s, q)
    for _ in range(byzantine):
        law = send(law, everyone, n, s, q)
    prepared = law
    for axis in range(correct):
        below, at_q = np.split(prepared, [q], axis=axis)
        prepared = np.concatenate(
            [below.sum(axis=axis, keepdims=True), at_q], axis=axis
        )
    prepare = float(prepared.take(1, axis=0).sum())

    # Commit: axes [0, correct) are prepared bits, the rest commit counts.
    law = np.zeros(prepared.shape + (q + 1,) * correct)
    law[(Ellipsis,) + (0,) * correct] = prepared
    for j in range(correct):
        where = (slice(None),) * j + (1,)
        # Fixing bit j drops its axis: commit axis correct + r moves down one.
        law[where] = send(law[where], [correct - 1 + r for r in moves[j]], n, s, q)
    for _ in range(byzantine):
        law = send(law, [correct + r for r in everyone], n, s, q)

    def at(axis: int, value: int) -> np.ndarray:
        shape = [1] * law.ndim
        shape[axis] = law.shape[axis]
        return (np.arange(law.shape[axis]) == value).reshape(shape)

    decided = [at(j, 1) & at(correct + j, q) for j in range(correct)]
    out = events(decided, correct, split, lambda e: float((law * e).sum()))
    out["prepare"] = prepare
    out["total"] = float(law.sum())
    return out


def enumerated(n: int, f: int, q: int, s: int, split: bool) -> Dict[str, float]:
    """The same probabilities by listing every combination of samples."""
    correct = n - f
    moves = reach(correct, split)
    byzantine = [list(range(correct))] * (f if split else 0)
    samples = [set(c) for c in itertools.combinations(range(n), s)]

    def outcomes(senders):
        weight = len(samples) ** -len(senders)
        for chosen in itertools.product(samples, repeat=len(senders)):
            counts = [0] * correct
            for targets, sample in zip(senders, chosen):
                for r in targets:
                    counts[r] += r in sample
            yield weight, counts

    prepared_sets: Counter = Counter()
    for weight, counts in outcomes([moves[j] for j in range(correct)] + byzantine):
        prepared_sets[frozenset(j for j in range(correct) if counts[j] >= q)] += weight
    totals: Counter = Counter()
    for prepared, p in prepared_sets.items():
        senders = [moves[j] for j in sorted(prepared)] + byzantine
        for weight, counts in outcomes(senders):
            decided = [j in prepared and counts[j] >= q for j in range(correct)]
            for name, hit in events(decided, correct, split, bool).items():
                totals[name] += p * weight * hit
    return dict(totals)


class TestExactModel:
    @pytest.mark.parametrize("split", [False, True], ids=["termination", "split"])
    @configs
    def test_is_a_probability_law(self, name, split):
        assert exact(*CONFIGS[name], split)["total"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("split", [False, True], ids=["termination", "split"])
    def test_convolution_matches_enumeration(self, split):
        """At n=4 (q=2, s=2) every combination of samples can be listed."""
        n, f, o, l = 4, 1, 1.0, 1.0
        q, s = sizes(n, o, l)
        assert (q, s) == (2, 2)
        listed = enumerated(n, f, q, s, split)
        convolved = exact(n, f, o, l, split)
        assert listed.keys() <= convolved.keys()
        for event, probability in listed.items():
            assert convolved[event] == pytest.approx(probability, abs=1e-12), event


class TestQuorumProbabilities:
    """Per-receiver quorum probabilities are exact, not chains."""

    @configs
    def test_prepare_quorum_exact(self, name):
        n, f, o, l = CONFIGS[name]
        q, s = sizes(n, o, l)
        truth = exact(n, f, o, l, False)["prepare"]
        assert Q.prob_quorum_exact_config(n, f, o, l) == pytest.approx(truth, abs=1e-12)
        assert Q.prob_quorum_exact(n, n - f, s, q) == pytest.approx(truth, abs=1e-12)

    @configs
    def test_split_side_prepare(self, name):
        """A side replica's prepare quorum: its side's correct half plus f."""
        n, f, o, l = CONFIGS[name]
        q, s = sizes(n, o, l)
        truth = exact(n, f, o, l, True)["prepare"]
        senders = A.optimal_side_senders(n, f)
        assert Q.prob_quorum_exact(n, senders, s, q) == pytest.approx(truth, abs=1e-12)

    @configs
    def test_prob_quorum_exact_for_every_sender_count(self, name):
        """``Pr(Bin(r, s/n) ≥ q)`` for r = 0..n, e.g. Lemma 6's partial
        prepare of r replicas before a view change."""
        n, _f, o, l = CONFIGS[name]
        q, s = sizes(n, o, l)
        law = np.zeros(q + 1)
        law[0] = 1.0
        for r in range(n + 1):
            assert Q.prob_quorum_exact(n, r, s, q) == pytest.approx(law[q], abs=1e-12), r
            law = send(law, [0], n, s, q)


class TestTerminationChains:
    @configs
    def test_replica_terminates_exact_underestimates(self, name):
        """The chain treats prepare and commit as independent."""
        truth = exact(*CONFIGS[name], False)["decide"]
        assert T.replica_terminates_exact(*CONFIGS[name]) < truth

    @configs
    def test_all_terminate_forms_lie_below_exact(self, name):
        """Receivers share one prepared set, so they are positively
        correlated: the truth is above the product form, not between the
        union and product forms."""
        n, f, o, l = CONFIGS[name]
        truth = exact(n, f, o, l, False)["all_decide"]
        per_replica = T.replica_terminates_exact(n, f, o, l)
        union = max(0.0, 1.0 - (n - f) * (1.0 - per_replica))
        product = T.all_terminate_exact(n, f, o, l)
        assert union <= product < truth


class TestAgreementChains:
    @configs
    def test_side_decide_exact_underestimates(self, name):
        truth = exact(*CONFIGS[name], True)["decide"]
        assert A.side_decide_exact(*CONFIGS[name]) < truth

    @configs
    def test_violation_exact_pair_underestimates(self, name):
        truth = exact(*CONFIGS[name], True)["pair"]
        assert A.violation_exact_pair(*CONFIGS[name]) < truth

    @configs
    def test_violation_exact_any_side_term(self, name):
        n, f, o, l = CONFIGS[name]
        side = A.side_decide_exact(n, f, o, l)
        term = 1.0 - (1.0 - side) ** A.optimal_side_correct(n, f)
        assert A.violation_exact_any(n, f, o, l) == pytest.approx(term**2, rel=1e-12)
        truth = exact(n, f, o, l, True)["some_side"]
        assert (term < truth) == ANY_SIDE_TERM_BELOW[name], (term, truth)

    def test_violation_exact_any_is_no_bound(self):
        """Its per-side term is below the truth at some configurations and
        above it at others, and so is the violation it squares to."""
        assert len(set(ANY_SIDE_TERM_BELOW.values())) == 2
        below = {
            name: A.violation_exact_any(*args) < exact(*args, True)["violation"]
            for name, args in CONFIGS.items()
        }
        assert len(set(below.values())) == 2, below


#: The figures the ``analysis/`` docstrings quote: (config, chain, chain
#: value, exact event, exact value).
QUOTED = [
    ("n6-f1-o1.3", T.replica_terminates_exact, 0.4346, (False, "decide"), 0.4643),
    ("n6-f1-o1.3", T.all_terminate_exact, 0.0155, (False, "all_decide"), 0.0387),
    ("n7-f2", T.replica_terminates_exact, 0.5998, (False, "decide"), 0.6275),
    ("n7-f2", T.all_terminate_exact, 0.0776, (False, "all_decide"), 0.1486),
    ("n7-f2", A.side_decide_exact, 0.3177, (True, "decide"), 0.3816),
    ("n7-f2", A.violation_exact_pair, 0.1009, (True, "pair"), 0.2476),
]


@pytest.mark.parametrize(
    "name, chain, chain_value, event, truth",
    QUOTED,
    ids=[f"{q[0]}-{q[1].__name__}" for q in QUOTED],
)
def test_quoted_figures(name, chain, chain_value, event, truth):
    split, key = event
    assert chain(*CONFIGS[name]) == pytest.approx(chain_value, abs=5e-5)
    assert exact(*CONFIGS[name], split)[key] == pytest.approx(truth, abs=5e-5)


@pytest.mark.parametrize(
    "name, term, truth", [("n7-f2", 0.5345, 0.5766), ("n7-f2-o1.8", 0.9411, 0.9230)]
)
def test_quoted_any_side_terms(name, term, truth):
    n, f, o, l = CONFIGS[name]
    side = A.side_decide_exact(n, f, o, l)
    assert 1.0 - (1.0 - side) ** A.optimal_side_correct(n, f) == pytest.approx(
        term, abs=5e-5
    )
    assert exact(n, f, o, l, True)["some_side"] == pytest.approx(truth, abs=5e-5)
