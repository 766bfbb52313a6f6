"""Alternating A/B pairs of the repo benchmark, the way every claim is made.

    python3 tools/ab_pairs.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \
        --workload scale-cold [--pairs 10] [--seconds 15] [--seed0 100]

Each pair runs both checkouts' *own* ``benchmarks/e2e/run.py --workload W
--seed S --seconds N --trace 0`` (the driver's form) on one fresh seed
``seed0 + pair``, A first on even pairs and B first on odd ones, so a slow
spell of the box lands on both sides.  Per end-to-end metric of A's
``BENCHMARK.json`` it prints both medians and quartiles, how many pairs B
won (ties count for neither), and whether the medians differ by more than
A's inter-quartile range — the pairing rule of ``benchmarks/e2e/README.md``
(win >= 9/10 and gap > A's IQR).  The simulation-side metrics are exact
functions of ``(workload, seed, seconds)``: any difference between A and B
on a seed, a failed trial or a failed run makes the exit code non-zero.
The last line of standard output is the whole comparison as JSON.

It imports nothing from the program or the benchmark and judges nothing:
the claim is the caller's to make from the printed numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

#: Fixed by the seeded simulation (``benchmarks/e2e/run.py:SIM_METRICS``).
SIM_METRICS = ("msgs_per_op", "sim_latency_p50", "sim_latency_tail")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One driver-form run inside ``checkout``; its closing JSON object."""
    command = [
        sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        report["metrics"] = {k: v["value"] for k, v in report["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        raise SystemExit(
            f"{checkout}: unreadable run (exit {done.returncode})\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    report["exit"] = done.returncode
    return report


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one value is all three)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(metric: Dict[str, Any], a: List[float], b: List[float]) -> Dict[str, Any]:
    """One metric's row: A's and B's quartiles, B's wins, the gap vs A's IQR."""
    lower = metric["better"] == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    losses = sum(1 for x, y in zip(a, b) if (y > x if lower else y < x))
    qa, qb = quartiles(a), quartiles(b)
    gap = qb[1] - qa[1]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "a": {"median": qa[1], "q1": qa[0], "q3": qa[2]},
        "b": {"median": qb[1], "q1": qb[0], "q3": qb[2]},
        "b_wins": wins,
        "b_losses": losses,
        "pairs": len(a),
        "gap": gap,
        "gap_share": gap / qa[1] if qa[1] else 0.0,
        "a_iqr": qa[2] - qa[0],
        # One pair has no spread to exceed.
        "gap_exceeds_a_iqr": len(a) > 1 and abs(gap) > qa[2] - qa[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="checkout A (the parent)")
    parser.add_argument("--b", required=True, help="checkout B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed0", type=int, default=100,
                        help="pair i runs seed seed0 + i on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    with open(os.path.join(sides["a"], "BENCHMARK.json")) as fh:
        contract = json.load(fh)["end_to_end"]

    runs: Dict[str, List[Dict[str, Any]]] = {"a": [], "b": []}
    problems: List[str] = []
    sim_equal = True
    for pair in range(args.pairs):
        seed = args.seed0 + pair
        for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
            report = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(report)
            if report["exit"] or not report["correct"] or report["failed"]:
                problems.append(
                    f"seed {seed}: {side} failed (exit {report['exit']}, "
                    f"{report['failed']}/{report['attempted']} trials failed)"
                )
        got_a, got_b = runs["a"][-1]["metrics"], runs["b"][-1]["metrics"]
        for name in SIM_METRICS:
            if got_a.get(name) != got_b.get(name):
                sim_equal = False
                problems.append(
                    f"seed {seed}: sim metric {name} differs: "
                    f"a={got_a.get(name)!r} b={got_b.get(name)!r}"
                )
        print(f"pair {pair + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{m['name']} {got_a[m['name']]:.4g}|{got_b[m['name']]:.4g}"
            for m in contract if m["name"] not in SIM_METRICS
        ), flush=True)

    metrics = {
        m["name"]: compare(
            m,
            [r["metrics"][m["name"]] for r in runs["a"]],
            [r["metrics"][m["name"]] for r in runs["b"]],
        )
        for m in contract
    }
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, a={sides['a']} b={sides['b']}")
    for name, row in metrics.items():
        a, b = row["a"], row["b"]
        print(
            f"  {name:<17} a {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}]"
            f"  b {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
            f"  gap {row['gap_share']:+.1%}  b wins {row['b_wins']}/{row['pairs']}"
            f" (loses {row['b_losses']})  gap > a's IQR: {row['gap_exceeds_a_iqr']}"
        )
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed0 + i for i in range(args.pairs)],
        "sim_metrics_equal": sim_equal,
        "problems": problems,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
