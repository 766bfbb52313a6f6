#!/usr/bin/env python3
"""Figure 5 live: ProBFT's agreement and termination probabilities.

Computes the paper's closed-form bounds and the exact binomial chains for
the probabilities plotted in Figure 5, with q = 2*sqrt(n) as in §5, then
runs the real protocol under the optimal-split attack — the
``probft/equivocation/constant`` matrix cell — and counts disagreements.

Run:  python examples/probability_analysis.py
"""

from repro.analysis import agreement as A
from repro.analysis import termination as T
from repro.harness.registry import ScenarioMatrix, run_matrix
from repro.harness.tables import render_series

O = 1.7


def termination_vs_n() -> None:
    ns = [100, 150, 200, 250, 300]
    bound, exact = [], []
    for n in ns:
        f = n // 5
        bound.append(T.lemma4_replica_terminates(n, f, O, 2.0, strict=False))
        exact.append(T.replica_terminates_exact(n, f, O, 2.0))
    print(
        render_series(
            "n",
            ns,
            {"paper bound": bound, "exact chain": exact},
            title=(
                "Termination probability vs n  (f/n = 0.2, correct leader "
                "after GST; paper: increasing in n)"
            ),
        )
    )


def agreement_vs_f() -> None:
    ratios = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    pair, side = [], []
    for ratio in ratios:
        f = int(100 * ratio)
        pair.append(A.agreement_in_view_exact(100, f, O, 2.0))
        side.append(A.side_decide_exact(100, f, O, 2.0))
    print(
        render_series(
            "f/n",
            ratios,
            {"agreement (pair chain)": pair, "one side decides": side},
            title=(
                "\nWithin-view agreement probability vs f/n  (n = 100, "
                "Byzantine leader, optimal split; paper: decreasing in f/n)"
            ),
        )
    )


def detection_story() -> None:
    n, f = 20, 4
    attack = ScenarioMatrix(
        name="optimal-split",
        protocols=("probft",),
        adversaries=("equivocation",),
        latencies=("constant",),
        n=n,
        f=f,
    )
    (row,) = run_matrix(attack, trials=8, master_seed=1).rows
    violations = round((1.0 - row["agreement_rate"]) * row["trials"])
    print(f"\nHow loose is the quorum-only analysis? (n={n}, f={f})")
    print(
        "  chain: P(some replica on each side decides):",
        f"{A.violation_exact_any(n, f, O, 2.0):.4f}",
    )
    print(
        "  protocol (equivocation detection, Alg. 1 lines 23-25):",
        f"{violations} violations in {row['trials']} trials,",
        f"mean view {row['mean_max_view']:.2f}",
    )


def main() -> None:
    termination_vs_n()
    agreement_vs_f()
    detection_story()


if __name__ == "__main__":
    main()
