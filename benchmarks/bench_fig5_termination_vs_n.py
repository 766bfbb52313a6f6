"""FIG-5 (top-right) — termination probability vs system size.

Paper claim: with f/n = 0.2 and q = 2√n, the probability that a correct
replica decides in a correct-leader view after GST *increases with n*, and
is higher for larger o.

Two curves per o: the paper's Lemma-4 closed-form bound and the exact
binomial chain.  The chain treats prepare and commit as independent and
slightly underestimates the model; ``tests/test_analysis_exact.py`` pins
that against the model's exact probability at small n.
"""

import pytest

from repro.analysis import termination as T
from repro.harness.tables import render_series

N_VALUES = [100, 150, 200, 250, 300]
F_RATIO = 0.2
O_VALUES = (1.6, 1.7, 1.8)


def compute_curves():
    curves = {}
    for o in O_VALUES:
        paper, exact = [], []
        for n in N_VALUES:
            f = int(F_RATIO * n)
            paper.append(T.lemma4_replica_terminates(n, f, o, 2.0, strict=False))
            exact.append(T.replica_terminates_exact(n, f, o, 2.0))
        curves[f"bound o={o}"] = paper
        curves[f"exact o={o}"] = exact
    return curves


@pytest.mark.benchmark(group="fig5")
def test_fig5_termination_vs_n(benchmark, report):
    curves = benchmark.pedantic(compute_curves, rounds=1, iterations=1)
    text = render_series(
        "n",
        N_VALUES,
        curves,
        title=(
            "FIG-5 top-right: per-replica termination probability vs n "
            f"(f/n={F_RATIO}, q=2sqrt(n), correct leader after GST)\n"
            "paper shape: increases with n; higher o -> higher probability"
        ),
    )
    report(text)
    for o in O_VALUES:
        exact = curves[f"exact o={o}"]
        # Increasing overall (allow tiny integer-rounding wiggles).
        assert exact[-1] > exact[0]
        assert all(b - a > -0.02 for a, b in zip(exact, exact[1:]))
        # The paper bound never exceeds the exact value.
        for bound, ex in zip(curves[f"bound o={o}"], exact):
            assert not bound > ex + 1e-9
    # Larger o helps termination.
    assert curves["exact o=1.8"][-1] > curves["exact o=1.6"][-1]
