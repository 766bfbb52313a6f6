"""The repo's benchmark: cold, layered, one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
        [--trace [0|1]] [--repeats K] [--smoke] [--json OUT] [--out SPANS]

Every workload runs in a fresh child process (``worker.py``), one after
another, so each meets a cold interpreter and a cold crypto pool; this
process only starts children and reads what they print.  With ``--trace 0``
(default) it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a separate traced run; names, units and bounds are
the ones ``BENCHMARK.json`` fixes, and a name printed here but missing
there (or the reverse) fails the run.

With ``--workload`` the last line of standard output is the driver's JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Without it all
workloads run, ``--repeats K`` times with workloads interleaved
(A B C D E, A B C ...), and the medians are printed.  The exit code is
non-zero whenever a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from workloads import (
    BY_NAME,
    MIN_ON_PATH_SHARE,
    REFERENCE_SECONDS,
    WORKLOADS,
    Workload,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Extra set-up-only children per end-to-end run; ``setup_s`` is the median
#: over these and the measuring child, because one process start is noisy.
SETUP_PROBES = 4
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: Metrics fixed by the seeded simulation: equal inputs must give equal
#: values, bit for bit, in any two runs of one commit.
SIM_METRICS = ("msgs_per_op", "sim_latency_p50", "sim_latency_tail")
#: Allowed gap between the profile's attributed self time and the traced wall.
PROFILE_COVERAGE_TOLERANCE = 0.05


class BenchError(Exception):
    """A child failed or printed something unreadable."""


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, seconds: float, mode: str, smoke: bool,
          out: Optional[str] = None) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if out:
        command += ["--out", out]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}/{mode}: no result in {CHILD_TIMEOUT_S}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
        raise BenchError(
            f"{workload}/{mode}: exit {done.returncode}: " + " | ".join(tail)
        )
    report = json.loads(lines[-1])
    if "error" in report:
        raise BenchError(f"{workload}/{mode}: {report['error']}")
    return report


def run_checks(workload: Workload, report: Dict[str, Any], smoke: bool,
               whole_run: bool = True) -> List[str]:
    """Workload-level checks on one child's report; returns the violations.

    The on-path share is only judged on a whole run: the few leading trials
    a traced run repeats are too few to hold a share against.
    """
    problems = [
        f"trial {f['trial']} failed: {f['why']}" for f in report["failures"]
    ]
    if report["failed"] > len(report["failures"]):
        problems.append(f"... and {report['failed'] - len(report['failures'])} more")
    if report["backpressure_retries"]:
        # The generator stamps submitted_at on *accepted* submit, so a
        # retried request would understate its latency.
        problems.append(
            f"{report['backpressure_retries']} backpressure retries: "
            "latencies are understated"
        )
    if whole_run and not smoke and report["on_path_share"] < MIN_ON_PATH_SHARE:
        problems.append(
            f"only {report['on_path_share']:.2f} of the trials stayed on the "
            "workload's path: the run measured another one"
        )
    if workload.view1_share is not None and not smoke:
        low, high = workload.view1_share
        if not low <= report["view1_share"] <= high:
            problems.append(
                f"view-1 share {report['view1_share']:.3f} outside "
                f"[{low}, {high}]: the run measured another path"
            )
    return problems


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       smoke: bool):
    """One end-to-end run; returns (result, the measuring child's report)."""
    probes = [
        spawn(workload.name, seed, seconds, "setup", smoke)["setup_s"]
        for _ in range(0 if smoke else SETUP_PROBES)
    ]
    full = spawn(workload.name, seed, seconds, "full", smoke)
    metrics = dict(full["metrics"])
    metrics["setup_s"] = statistics.median(probes + [full["setup_s"]])
    result = {
        "metrics": metrics,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "problems": run_checks(workload, full, smoke),
        "notes": {
            "trials": full["attempted"],
            "on_path_share": full["on_path_share"],
            "setup_samples": len(probes) + 1,
            **full["notes"],
        },
        "versions": full["versions"],
    }
    return result, full


def _rows_agree(direct: List[Dict[str, float]], reported: List[Dict[str, float]]) -> bool:
    """run_matrix rounds its report columns; compare at that precision."""
    if len(direct) != len(reported):
        return False
    for mine, theirs in zip(direct, reported):
        for key, value in theirs.items():
            if not math.isclose(mine[key], value, rel_tol=1e-9, abs_tol=0.051):
                return False
    return True


def measure_layers(workload: Workload, seed: int, seconds: float, smoke: bool,
                   out: Optional[str], head: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The traced run: the leading trials untraced, then again under the
    profile hook in another cold child; the two walls give the overhead."""
    if head is None:
        head = spawn(workload.name, seed, seconds, "head", smoke)
    traced = spawn(workload.name, seed, seconds, "traced", smoke, out)
    problems = run_checks(workload, traced, smoke, whole_run=False)
    count = traced["attempted"]
    if head["fingerprints"][:count] != traced["fingerprints"]:
        problems.append("traced and untraced runs of the same seeds disagree")
    layers = dict(traced["layers"])
    profiled = layers.pop("trace.profiled_s")
    traced_wall = sum(traced["trial_walls"])
    if not smoke and abs(profiled - traced_wall) > PROFILE_COVERAGE_TOLERANCE * traced_wall:
        problems.append(
            f"layer self times sum to {profiled:.3f}s, traced wall is "
            f"{traced_wall:.3f}s"
        )
    # Ratios of walls from different children are taken at reference speed
    # (wall / calibration kernel, see worker.py): the box may have changed
    # speed between the two.
    def at_speed(report: Dict[str, Any], trials: int) -> float:
        return sum(
            w / k for w, k in
            zip(report["trial_walls"][:trials], report["trial_speeds"][:trials])
        )

    layers["trace.overhead_ratio"] = at_speed(traced, count) / at_speed(head, count)
    # Wall spread comes from the untraced side: the hook distorts it.
    layers["harness.trial_wall_p90_s"] = head["notes"]["trial_wall_p90_s"]
    layers["harness.trial_wall_drift"] = head["notes"]["trial_wall_drift"]
    layers["harness.matrix_overhead_share"] = 0.0
    if workload.kind == "matrix":
        matrix = spawn(workload.name, seed, seconds, "matrix", smoke)
        rows = matrix["matrix_rows"]
        through_matrix = matrix["matrix_wall_s"] / matrix["matrix_speed"]
        layers["harness.matrix_overhead_share"] = (
            through_matrix - at_speed(head, len(rows))
        ) / through_matrix
        if not _rows_agree(head["direct_rows"], rows):
            problems.append("run_matrix report rows disagree with direct trials")
    return {
        "metrics": layers,
        "attempted": count,
        "failed": traced["failed"],
        "problems": problems,
        "notes": {"trials": count},
        "versions": traced["versions"],
    }


def name_mismatch(printed, declared, what: str) -> List[str]:
    printed, declared = set(printed), set(declared)
    problems = []
    if printed - declared:
        problems.append(f"{what} not in BENCHMARK.json: {sorted(printed - declared)}")
    if declared - printed:
        problems.append(f"{what} in BENCHMARK.json but not measured: {sorted(declared - printed)}")
    return problems


def print_metrics(title: str, metrics: Dict[str, float], units: Dict[str, str],
                  notes: Dict[str, Any]) -> None:
    print(f"== {title}  ({', '.join(f'{k}={v}' for k, v in notes.items())})")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f}  {units.get(name, '?')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=2024, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=float(REFERENCE_SECONDS),
        help="timed work per run; scales every workload's trial count",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run instead",
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, end-to-end and traced, for the tier-1 test")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument(
        "--out",
        help="write the traced run's span log here (with several workloads, "
        "one file each: OUT.<workload>)",
    )
    args = parser.parse_args(argv)

    contract = load_contract()
    kind = "per_layer" if args.trace else "end_to_end"
    kinds = ("end_to_end", "per_layer") if args.smoke else (kind,)
    units = {
        m["name"]: m["unit"] for k in ("end_to_end", "per_layer") for m in contract[k]
    }
    declared = {k: [m["name"] for m in contract[k]] for k in ("end_to_end", "per_layer")}
    selected = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    problems = name_mismatch(
        [w.name for w in WORKLOADS], [w["name"] for w in contract["workloads"]], "workloads"
    )

    # passes[workload][kind] = per-pass results; workloads interleaved, never
    # K back-to-back runs of one workload.
    passes: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        w.name: {k: [] for k in kinds} for w in selected
    }
    for _ in range(max(1, args.repeats)):
        for workload in selected:
            whole = None
            if "end_to_end" in kinds:
                result, whole = measure_end_to_end(
                    workload, args.seed, args.seconds, args.smoke
                )
                passes[workload.name]["end_to_end"].append(result)
            if "per_layer" in kinds:
                # At smoke size the whole run *is* the leading trials.
                out = args.out
                if out and len(selected) > 1:
                    out = f"{out}.{workload.name}"
                passes[workload.name]["per_layer"].append(
                    measure_layers(workload, args.seed, args.seconds, args.smoke,
                                   out, head=whole)
                )

    report: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": max(1, args.repeats),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    attempted = failed = 0
    for workload in selected:
        entry: Dict[str, Any] = {}
        for which, results in passes[workload.name].items():
            names = list(results[0]["metrics"])
            problems += [
                f"{workload.name}: {p}"
                for p in name_mismatch(names, declared[which], f"{which} metrics")
            ]
            values = {n: [r["metrics"][n] for r in results] for n in names}
            for name in SIM_METRICS:
                if name in values and len(set(values[name])) > 1:
                    problems.append(
                        f"{workload.name}: {name} differs between passes of one "
                        f"commit: {values[name]}"
                    )
            medians = {n: statistics.median(v) for n, v in values.items()}
            for result in results:
                problems += [f"{workload.name}: {p}" for p in result["problems"]]
            if which == kind:
                attempted += sum(r["attempted"] for r in results)
                failed += sum(r["failed"] for r in results)
            print_metrics(f"{workload.name} [{which}]", medians, units, results[0]["notes"])
            entry[which] = {"median": medians, "values": values, "notes": results[0]["notes"]}
            report["versions"] = results[0]["versions"]
        report["workloads"][workload.name] = entry

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    report.update(correct=correct, problems=problems, claim=None)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.workload:
        medians = report["workloads"][args.workload][kind]["median"]
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": medians[name], "unit": units[name]}
                for name in declared[kind] if name in medians
            },
        }))
    else:
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "claim": None}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(2)
