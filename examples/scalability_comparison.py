#!/usr/bin/env python3
"""Figure 1 live: PBFT vs ProBFT vs HotStuff on the same simulated network.

Runs all three protocols at growing system sizes and prints the measured
communication steps and message counts next to the paper's formulas — the
message-complexity / latency trade-off that motivates ProBFT.

Run:  python examples/scalability_comparison.py
"""

import itertools

from repro.analysis import messages as M
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.tables import render_table
from repro.harness.trial import run_trial

N_VALUES = (20, 50, 100)
PROTOCOLS = ("pbft", "probft", "hotstuff")


def measure_point(n: int, protocol: str) -> dict:
    """One grid point: a full good-case run of one protocol at one size —
    the fault-free unit-latency matrix cell (o=1.7), at the first seed that
    decides in view 1."""
    cell = MatrixCell(protocol, "none", "constant", n, n // 5)
    specs = (cell_deployment_spec(cell, seed, 10_000.0) for seed in itertools.count())
    result = next(r for r in map(run_trial, specs) if r.max_view == 1)
    return {
        "steps": int(result.steps),
        "messages": result.protocol_messages,
    }


def formula_messages(n: int, protocol: str) -> float:
    return {
        "pbft": M.pbft_messages(n),
        "probft": round(M.probft_expected_network_messages(n, 1.7)),
        "hotstuff": M.hotstuff_messages(n),
    }[protocol]


def main() -> None:
    rows = []
    for n in N_VALUES:
        for protocol in PROTOCOLS:
            out = measure_point(n, protocol)
            rows.append(
                [
                    n,
                    protocol,
                    out["steps"],
                    out["messages"],
                    formula_messages(n, protocol),
                    f"{out['messages'] / M.pbft_messages(n):.0%}",
                ]
            )
    print(
        render_table(
            ["n", "protocol", "steps", "messages (measured)",
             "messages (formula)", "vs PBFT"],
            rows,
            title=(
                "Good-case comparison (unit latency, view 1)\n"
                "ProBFT keeps PBFT's 3 steps at a fraction of the messages; "
                "HotStuff is linear but needs ~8 steps"
            ),
        )
    )
    print()
    ratio_rows = [
        [n] + [f"{M.probft_to_pbft_ratio(n, o):.1%}" for o in (1.6, 1.7, 1.8)]
        for n in (100, 200, 300, 400)
    ]
    print(
        render_table(
            ["n", "o=1.6", "o=1.7", "o=1.8"],
            ratio_rows,
            title="ProBFT / PBFT message ratio (analytic, Figure 1b)",
        )
    )


if __name__ == "__main__":
    main()
