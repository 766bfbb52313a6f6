"""FIG-5 (bottom-left) — agreement probability vs fault fraction.

Paper claim: with n = 100 fixed and a Byzantine leader in every view, the
probability of ensuring agreement decreases as f/n grows.
"""

import pytest

from repro.analysis import agreement as A
from repro.harness.parallel import ExperimentEngine, workers_from_env
from repro.harness.tables import render_series
from repro.montecarlo.experiments import estimate_agreement_violation

N = 100
F_RATIOS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
O_VALUES = (1.6, 1.7, 1.8)
TRIALS = 1200

WORKERS = workers_from_env("REPRO_BENCH_WORKERS")


def compute_curves(workers: int = WORKERS):
    curves = {}
    with ExperimentEngine(workers=workers) as engine:
        for o in O_VALUES:
            paper, exact, mc_pair = [], [], []
            for ratio in F_RATIOS:
                f = int(ratio * N)
                paper.append(
                    1.0 - A.theorem7_violation_bound(N, f, o, 2.0, strict=False)
                )
                exact.append(A.agreement_in_view_exact(N, f, o, 2.0, variant="pair"))
                result = estimate_agreement_violation(
                    N, f, o, trials=TRIALS, seed=int(ratio * 1000), engine=engine
                )
                side = result.estimates["side_decides_fixed"].point
                mc_pair.append(1.0 - side**2)
            curves[f"bound o={o}"] = paper
            curves[f"exact o={o}"] = exact
            curves[f"mc o={o}"] = mc_pair
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
    # The Monte-Carlo pair estimate tracks the exact chain.
    for ex, mc in zip(curves["exact o=1.7"], curves["mc o=1.7"]):
        assert abs(ex - mc) < 0.05
