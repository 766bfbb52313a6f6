#!/usr/bin/env python3
"""Figure 1 live: PBFT vs ProBFT vs HotStuff on the same simulated network.

Runs all three protocols at growing system sizes and prints the measured
communication steps and message counts next to the paper's formulas — the
message-complexity / latency trade-off that motivates ProBFT.

Run:  python examples/scalability_comparison.py
"""

from repro.analysis import messages as M
from repro.config import ProtocolConfig
from repro.harness.runner import good_case_metrics
from repro.harness.tables import render_table

N_VALUES = (20, 50, 100)
PROTOCOLS = ("pbft", "probft", "hotstuff")


def measure_point(n: int, protocol: str) -> dict:
    """One grid point: a full good-case run of one protocol at one size."""
    cfg = ProtocolConfig(n=n, f=n // 5, o=1.7)
    result = good_case_metrics(protocol, cfg, require_view1=True)
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
