#!/usr/bin/env python3
"""Figure 5 live: ProBFT's agreement and termination probabilities.

Prints two Figure 5 panels as ``repro figures`` computes them (the paper's
closed-form bounds beside the exact binomial chains, q = 2*sqrt(n) as in
§5), then runs the real protocol under the optimal-split attack — the
``probft/equivocation/constant`` matrix cell — and counts disagreements.

Run:  python examples/probability_analysis.py
"""

from repro.analysis import agreement as A
from repro.harness import figures
from repro.harness.registry import ScenarioMatrix, run_matrix
from repro.harness.tables import render_table

O = 1.7


def print_panel(artifact) -> None:
    """Print one Figure 5 panel as ``repro figures`` computes it."""
    title, headers, rows = artifact()
    print(render_table(headers, rows, title=title) + "\n")


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
    print(f"How loose is the quorum-only analysis? (n={n}, f={f})")
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
    print_panel(figures.fig5_termination_vs_n)
    print_panel(figures.fig5_agreement_vs_f)
    detection_story()


if __name__ == "__main__":
    main()
