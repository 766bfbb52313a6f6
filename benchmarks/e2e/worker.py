"""One workload, one fresh process: set up, run the trials, report as JSON.

``run.py`` starts this file as a child per workload so that every workload
meets a cold interpreter, a cold crypto pool and its own ``ru_maxrss``.  The
last line of standard output is one JSON object; nothing else is parsed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from hashlib import sha256
from operator import itemgetter
from typing import Any, Dict, List

from tracing import GcWatch, LayerProfile, Spans, calls_of, layer_seconds
from workloads import BY_NAME, WARMUP_PARAMS, WARMUP_SEED_INDEX

#: Candidate tail percentiles, highest first; the reported tail is the
#: highest with at least this many samples beyond it.  Twenty, not the usual
#: ten: on the 252-trial matrix p95 has 12 samples beyond it, all from the
#: two equivocation cells, and spreads 28% over seeds; p90 spreads 10%.
_TAILS = (0.99, 0.95, 0.90)
_TAIL_MIN_BEYOND = 20


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_quantile(samples: int) -> float:
    for q in _TAILS:
        if samples * (1.0 - q) >= _TAIL_MIN_BEYOND:
            return q
    return 0.5


def calibration_kernel() -> float:
    """Seconds one pass of a fixed, program-independent kernel takes now.

    Bytecode dispatch and int arithmetic, C hashing, allocation and dict
    churn, a sort: the ingredients of a trial, none of the program's code.
    The collector is paused meanwhile, or the kernel's allocations would
    trigger scans of the program's heap and a change to what the program
    retains would move the yardstick.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        digest = b"e2e" * 21
        for _ in range(5_000):
            digest = sha256(digest).digest()
        table = {}
        for i in range(12_000):
            table[i] = (i, str(i), [i])
        sorted(table.values(), key=itemgetter(1))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def sample_speed() -> float:
    """The box's speed now: the smaller of two kernel passes."""
    return min(calibration_kernel(), calibration_kernel())


#: What ``calibration_kernel`` takes on the undisturbed reference box; it
#: only fixes the scale of the reference-speed metrics.
REFERENCE_KERNEL_S = 0.007
#: The kernel is timed again before a trial once this much time has passed.
CALIBRATION_INTERVAL_S = 0.25


def run_trials(trials, spans: Spans, profile=None):
    """Run each trial's build/execute/check; returns (outcomes, walls, speeds).

    A trial's wall covers everything a sweep pays for it: spec generation
    and build, the run, the summary, the checks, any collector pause, and
    freeing the previous trial's deployment.  ``speeds[i]`` is the
    calibration kernel's time sampled just before trial ``i`` (the smaller
    of two passes, at most every CALIBRATION_INTERVAL_S), outside the
    trial's wall and outside the profile.
    """
    outcomes, walls, speeds = [], [], []
    sampled_at = float("-inf")
    for index, (build, execute, check) in enumerate(trials):
        if time.perf_counter() - sampled_at >= CALIBRATION_INTERVAL_S:
            speed = sample_speed()
            sampled_at = time.perf_counter()
        speeds.append(speed)
        start = time.perf_counter()
        with spans.span("trial", index):
            if profile is not None:
                with profile.recording():
                    outcome = _run_one(build, execute, check, spans, index)
            else:
                outcome = _run_one(build, execute, check, spans, index)
        walls.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return outcomes, walls, speeds


def _run_one(build, execute, check, spans: Spans, index: int):
    with spans.span("harness.build", index):
        built = build()
    with spans.span("harness.execute", index):
        result = execute(built)
    with spans.span("harness.check", index):
        return check(built, result)


def end_to_end(measured, setup_s: float):
    """``(metrics, notes)`` over ``measured``: (outcome, wall, speed) of each
    on-path trial.

    The reference box flips between its floor speed and ~1.5x slower every
    few seconds (a fixed spin loop shows it), which put the plain
    ``trials / total wall`` of ten runs of one commit 11-34% apart.  Host-time
    metrics are therefore taken at *reference speed*: each trial's wall is
    divided by what the calibration kernel took right before it and
    multiplied by the kernel's reference time (4-10% apart on the same runs).
    The plain figures stay in the notes.

    Like trials are grouped (a matrix cell; else the whole run) and medians
    are taken per group, then over groups: on the matrix a pooled median sits
    between clusters of unlike cells and flips with the seed.
    """
    outcomes = [o for o, _, _ in measured]
    walls = [w for _, w, _ in measured]
    at_reference = [w * REFERENCE_KERNEL_S / k for _, w, k in measured]
    groups: Dict[Any, List[int]] = {}
    for index, outcome in enumerate(outcomes):
        groups.setdefault(outcome.group, []).append(index)

    def median_of_group_medians(samples_of) -> float:
        return statistics.median(
            statistics.median(x for i in idx for x in samples_of(i))
            for idx in groups.values()
        )

    latencies = sorted(x for o in outcomes for x in o.latencies)
    tail_q = tail_quantile(len(latencies))
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": len(walls) / sum(at_reference),
        "trial_wall_s": median_of_group_medians(lambda i: (at_reference[i],)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "msgs_per_op": sum(o.messages for o in outcomes) / sum(o.ops for o in outcomes),
        "sim_latency_p50": median_of_group_medians(lambda i: outcomes[i].latencies),
        "sim_latency_tail": percentile(latencies, tail_q),
    }
    third = max(1, len(walls) // 3)
    notes = {
        "latency_samples": len(latencies),
        "tail_quantile": tail_q,
        # Plain host time, not end-to-end: kept to explain a moved metric.
        "plain_trials_per_s": len(walls) / sum(walls),
        "plain_trial_wall_p50_s": statistics.median(walls),
        "kernel_p50_s": statistics.median(k for _, _, k in measured),
        "trial_wall_p90_s": percentile(sorted(walls), 0.9),
        "trial_wall_drift": statistics.median(walls[-third:])
        / statistics.median(walls[:third]),
    }
    return metrics, notes


def counter_total(outcomes, key: str) -> float:
    return sum(o.counters.get(key, 0) for o in outcomes)


def _ratio(useful: float, attempts: float) -> float:
    return useful / attempts if attempts else 0.0


def per_layer(outcomes, profile, spans, gc_watch, pool) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json; 0.0 where a workload never
    enters the layer."""
    self_s, calls = profile.attribute()
    trials = len(outcomes)

    def total(key: str) -> float:
        return counter_total(outcomes, key)

    def sec(layer: str, module: str = "") -> float:
        return layer_seconds(self_s, layer, module)

    kernel_calls = calls_of(calls, "core", "columnar", "__call__")
    return {
        "crypto.self_s": sec("crypto"),
        "crypto.vrf_self_s": sec("crypto", "vrf"),
        "crypto.hashing_self_s": sec("crypto", "hashing"),
        "crypto.signatures_self_s": sec("crypto", "signatures"),
        "crypto.vrf_samples_expanded": total("vrf_sample_misses"),
        "crypto.encode_calls": calls_of(calls, "crypto", "hashing", "stable_encode"),
        "crypto.vrf_sample_hit_ratio": _ratio(
            total("vrf_sample_hits"),
            total("vrf_sample_hits") + total("vrf_sample_misses"),
        ),
        "crypto.vrf_verify_hit_ratio": _ratio(
            total("vrf_verify_hits"), total("vrf_verify_attempts")
        ),
        "crypto.sig_verify_hit_ratio": _ratio(
            total("sig_verify_hits"), total("sig_verify_attempts")
        ),
        "crypto.pool_hit_ratio": _ratio(pool["hits"], pool["hits"] + pool["misses"]),
        "crypto.pool_entries": pool["size"],
        "crypto.memo_evictions": total("memo_evictions"),
        "core.self_s": sec("core"),
        "core.columnar_self_s": sec("core", "columnar"),
        "core.replica_self_s": sec("core", "replica"),
        "core.observation_self_s": sec("core", "observation"),
        "core.vote_kernel_calls": kernel_calls,
        "core.votes_per_kernel_call": _ratio(total("delivered_votes"), kernel_calls),
        "core.per_message_calls": calls_of(calls, "core", "replica", "on_message"),
        "sync.self_s": sec("sync"),
        "sync.wish_msgs_per_trial": total("wish_msgs") / trials,
        "sync.view_changes_per_trial": total("view_changes") / trials,
        "sync.view1_share": total("view1") / trials,
        "net.self_s": sec("net"),
        "net.simulator_self_s": sec("net", "simulator"),
        "net.network_self_s": sec("net", "network"),
        "net.events_per_trial": total("events") / trials,
        "net.msgs_per_event": _ratio(total("delivered"), total("events")),
        "net.ring_share": total("ring") / trials,
        "quorum.self_s": sec("quorum"),
        "messages.self_s": sec("messages"),
        "baselines.self_s": sec("baselines"),
        "adversary.self_s": sec("adversary"),
        "smr.self_s": sec("smr"),
        "smr.requests_per_slot": _ratio(total("requests"), total("slots_applied")),
        "smr.slots_applied": total("slots_applied"),
        "smr.backpressure_retries": total("backpressure_retries"),
        "harness.build_s": spans.total("harness.build"),
        "harness.execute_s": spans.total("harness.execute"),
        "harness.self_s": sec("harness"),
        "harness.gc_pause_s": gc_watch.pause_s,
        "harness.gc_collections": gc_watch.collections,
        "trace.other_self_s": sec("other"),
        "trace.profiled_s": sum(self_s.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--mode",
        choices=("full", "setup", "head", "traced", "matrix"),
        default="full",
        help="full: every trial, untraced; setup: stop after set-up; head: "
        "the leading traced_count trials, untraced; traced: the same "
        "trials under the profile hook; matrix: block 0 through run_matrix",
    )
    parser.add_argument("--out", help="write the span log here (traced mode)")
    args = parser.parse_args(argv)

    # ---- set-up: imports, trial list, one warm-up trial -------------------
    import adapter

    workload = BY_NAME[args.workload]
    params = workload.smoke_params if args.smoke else workload.params
    count = workload.count(args.seconds, args.smoke)
    if args.mode in ("head", "traced"):
        count = workload.traced_count(count)
    make = {
        "single": adapter.single_shot_trials,
        "matrix": adapter.matrix_trials,
        "serving": adapter.serving_trials,
    }[workload.kind]
    trials = make(params, args.seed, count)
    warmup = adapter.single_shot_trials(
        WARMUP_PARAMS, adapter.derive_seed(args.seed, WARMUP_SEED_INDEX), 1
    )
    warm_outcomes, _, _ = run_trials(warmup, Spans(False))
    del warmup
    gc.collect()
    setup_s = time.time() - args.spawned_at
    report: Dict[str, Any] = {"mode": args.mode, "setup_s": setup_s}
    if not warm_outcomes[0].ok:
        report["error"] = f"warm-up trial failed: {warm_outcomes[0].why_failed}"
        print(json.dumps(report))
        return 1
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    if args.mode == "matrix":
        before = sample_speed()
        wall, rows = adapter.run_matrix_serial(params, args.seed)
        speed = (before + sample_speed()) / 2
        report.update(matrix_wall_s=wall, matrix_speed=speed, matrix_rows=rows)
        print(json.dumps(report))
        return 0

    # ---- the timed region -------------------------------------------------
    traced = args.mode == "traced"
    spans = Spans(traced)
    if traced:
        profile = LayerProfile(adapter.PACKAGE_DIR, adapter.LAYERS)
        with GcWatch() as gc_watch:
            outcomes, walls, speeds = run_trials(trials, spans, profile)
    else:
        outcomes, walls, speeds = run_trials(trials, spans)
    del trials

    failures = [
        {"trial": i, "why": o.why_failed} for i, o in enumerate(outcomes) if not o.ok
    ]
    measured = [
        (o, w, k) for o, w, k in zip(outcomes, walls, speeds) if o.on_path
    ]
    if not measured:
        report["error"] = f"no correct on-path trial: {failures[:3]}"
        print(json.dumps(report))
        return 1
    metrics, notes = end_to_end(measured, setup_s)
    report.update(
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures[:10],
        metrics=metrics,
        notes=notes,
        trial_walls=walls,
        trial_on_path=[o.on_path for o in outcomes],
        trial_speeds=speeds,
        on_path_share=len(measured) / len(outcomes),
        fingerprints=[list(o.fingerprint) for o in outcomes],
        view1_share=counter_total(outcomes, "view1") / len(outcomes),
        backpressure_retries=counter_total(outcomes, "backpressure_retries"),
        versions=adapter.versions(),
    )
    if workload.kind == "matrix":
        report["direct_rows"] = adapter.matrix_rows_from_fingerprints(
            [o.fingerprint for o in outcomes], params
        )
    if traced:
        report["layers"] = per_layer(
            outcomes, profile, spans, gc_watch, adapter.pool_stats()
        )
        if args.out:
            spans.write(args.out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
