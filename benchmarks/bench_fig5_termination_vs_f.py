"""FIG-5 (bottom-right) — termination probability vs fault fraction.

Paper claim: with n = 100 fixed, the probability of deciding in a
correct-leader view *decreases* as f/n grows (the y-axis in the paper spans
0.25..1 — the drop is steep near f/n = 0.3).

Curves: the paper's Lemma-4 bound and the exact binomial chain, which
slightly underestimates the model (``tests/test_analysis_exact.py``).
"""

import pytest

from repro.analysis import termination as T
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
            paper.append(T.lemma4_replica_terminates(N, f, o, 2.0, strict=False))
            exact.append(T.replica_terminates_exact(N, f, o, 2.0))
        curves[f"bound o={o}"] = paper
        curves[f"exact o={o}"] = exact
    return curves


@pytest.mark.benchmark(group="fig5")
def test_fig5_termination_vs_f(benchmark, report):
    curves = benchmark.pedantic(compute_curves, rounds=1, iterations=1)
    text = render_series(
        "f/n",
        F_RATIOS,
        curves,
        title=(
            "FIG-5 bottom-right: per-replica termination probability vs f/n "
            f"(n={N}, q=2sqrt(n))\n"
            "paper shape: decreases with f/n (paper y-range 0.25..1)"
        ),
    )
    report(text)
    for o in O_VALUES:
        exact = curves[f"exact o={o}"]
        assert exact == sorted(exact, reverse=True)
    # The paper's bottom-right panel dips to ~0.25 at f/n=0.3: our exact
    # chain shows the same collapse region (value well below the f/n=0.05 one).
    assert curves["exact o=1.7"][-1] < 0.7 * curves["exact o=1.7"][0]
