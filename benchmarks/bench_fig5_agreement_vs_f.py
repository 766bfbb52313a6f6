"""FIG-5 (bottom-left) — agreement probability vs fault fraction.

Paper claim: with n = 100 fixed and a Byzantine leader in every view, the
probability of ensuring agreement decreases as f/n grows.

Curves: the paper's Theorem-7 bound and the exact binomial chain for the
fixed-pair event Lemma 5 analyses.  The chain squares one side's decide
probability; at small n the model's exact pair probability is higher
(``tests/test_analysis_exact.py``), so the chain is no upper bound on the
violation it counts.
"""

import pytest

from repro.analysis import agreement as A
from repro.harness.tables import render_series

N = 100
F_RATIOS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
O_VALUES = (1.6, 1.7, 1.8)


def compute_curves():
    curves = {}
    for o in O_VALUES:
        paper, exact = [], []
        for ratio in F_RATIOS:
            f = int(ratio * N)
            paper.append(1.0 - A.theorem7_violation_bound(N, f, o, 2.0, strict=False))
            exact.append(A.agreement_in_view_exact(N, f, o, 2.0, variant="pair"))
        curves[f"bound o={o}"] = paper
        curves[f"exact o={o}"] = exact
    return curves


@pytest.mark.benchmark(group="fig5")
def test_fig5_agreement_vs_f(benchmark, report):
    curves = benchmark.pedantic(compute_curves, rounds=1, iterations=1)
    text = render_series(
        "f/n",
        F_RATIOS,
        curves,
        title=(
            "FIG-5 bottom-left: within-view agreement probability vs f/n "
            f"(n={N}, Byzantine leader, optimal split)\n"
            "paper shape: decreases with f/n"
        ),
    )
    report(text)
    for o in O_VALUES:
        exact = curves[f"exact o={o}"]
        assert exact == sorted(exact, reverse=True)
        assert exact[0] > 0.9999  # tiny-f regime: essentially certain
