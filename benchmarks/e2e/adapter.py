"""The benchmark's only binding to the program under test.

Every other file in this directory is program-agnostic: it sees trials as
opaque callables and results as the plain records defined here.  This file
imports ``repro`` through the same public entry points a ``repro sweep`` /
``repro serve`` user reaches (``cell_deployment_spec`` + ``TrialContext``,
``run_matrix``, ``build_serving_deployment`` + ``WorkloadGenerator``) and
reads only counters the program already exposes.

The "scale stack" (sparse delivery + columnar vote state) is selected by
*feature detection*: if ``DeploymentSpec`` still has ``sparse``/``columnar``
fields they are set; once a later change makes that stack the only path and
drops the fields, the same workload definitions keep running unedited.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_SRC = os.path.join(_REPO_ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    # Never fall back to a copy installed elsewhere: the benchmark measures
    # the checkout it sits in or nothing.
    raise SystemExit(f"no program to measure: {_SRC}/repro is missing")
sys.path.insert(0, _SRC)

import numpy  # noqa: E402  (the scale stack needs it; fail loudly at set-up)
import repro  # noqa: E402
from repro.crypto.context import crypto_pool_stats  # noqa: E402
from repro.harness.parallel import derive_seed  # noqa: E402
from repro.harness.registry import (  # noqa: E402
    ScenarioMatrix,
    cell_deployment_spec,
    run_matrix,
)
from repro.harness.trial import DeploymentSpec, TrialContext  # noqa: E402
from repro.smr.workload import (  # noqa: E402
    ServingSpec,
    WorkloadGenerator,
    build_serving_deployment,
)

__all__ = [
    "LAYERS",
    "PACKAGE_DIR",
    "TrialOutcome",
    "derive_seed",
    "matrix_rows_from_fingerprints",
    "matrix_trials",
    "pool_stats",
    "run_matrix_serial",
    "serving_trials",
    "single_shot_trials",
    "versions",
]

#: Directory of the ``repro`` package: frames under ``<here>/<layer>/`` are
#: charged to ``<layer>`` by the profile hook.
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: The packages on the benchmarked path, in dependency order.
LAYERS = (
    "crypto",
    "messages",
    "quorum",
    "core",
    "sync",
    "net",
    "adversary",
    "baselines",
    "smr",
    "harness",
)

_SPEC_FIELDS = {f.name for f in dataclasses.fields(DeploymentSpec)}
_SCALE_STACK = {k: True for k in ("sparse", "columnar") if k in _SPEC_FIELDS}


def versions() -> Dict[str, str]:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
    }


@dataclasses.dataclass
class TrialOutcome:
    """What one finished trial tells the runner; all sim-side, no host time.

    ``ops`` is the number of decisions the trial's messages are divided by
    (1 for a single-shot trial, completed requests for serving) and
    ``latencies`` the sim-time samples it contributes to the latency
    percentiles (one per single-shot trial, one per request for serving).
    """

    ok: bool
    why_failed: str
    #: Whether the trial took the path its workload is here to measure (see
    #: ``workloads.py``); only on-path trials feed time, message and latency
    #: metrics.  Always true for a correct trial of an unlabelled workload.
    on_path: bool
    #: Label shared by like trials (a matrix cell), or None when every trial
    #: of the workload is alike.
    group: Optional[str]
    ops: int
    messages: int
    latencies: List[float]
    counters: Dict[str, float]
    #: Comparable summary for determinism and ``run_matrix`` agreement checks.
    fingerprint: Tuple[Any, ...]


Phases = Tuple[Callable[[], Any], Callable[[Any], Any], Callable[[Any, Any], TrialOutcome]]


def _memo_counters(deployment) -> Dict[str, float]:
    """Crypto memo counters of one finished deployment (0 when absent)."""
    vrf = getattr(deployment.crypto.vrf, "cache_stats", dict)()
    sig = getattr(deployment.crypto.signatures, "cache_stats", dict)()
    return {
        "vrf_sample_hits": vrf.get("hits", 0),
        "vrf_sample_misses": vrf.get("misses", 0),
        "vrf_verify_hits": vrf.get("verify_hits", 0)
        + vrf.get("prove_identity_hits", 0),
        "vrf_verify_attempts": vrf.get("verify_hits", 0)
        + vrf.get("verify_misses", 0),
        "sig_verify_hits": sig.get("hits", 0) + sig.get("tag_hits", 0),
        "sig_verify_attempts": sig.get("hits", 0) + sig.get("misses", 0),
        "memo_evictions": vrf.get("evictions", 0) + sig.get("evictions", 0),
    }


def _network_counters(deployment) -> Dict[str, float]:
    stats = deployment.network.stats
    sent = stats.sent_by_type
    delivered = stats.delivered_by_type
    return {
        "events": deployment.sim.events_processed,
        "ring": 1.0 if getattr(deployment.sim, "queue_mode", "") == "ring" else 0.0,
        "delivered": stats.delivered_total,
        "delivered_votes": delivered.get("Prepare", 0) + delivered.get("Commit", 0),
        "wish_msgs": sent.get("Wish", 0),
    }


pool_stats = crypto_pool_stats


# ----------------------------------------------------------------------
# Single-shot trials: what every `repro sweep` backend executes per trial
# ----------------------------------------------------------------------
def _single_shot_phases(
    cell,
    seed: int,
    max_time: float,
    scale_stack: bool,
    path_view: Optional[int],
    group: Optional[str] = None,
) -> Phases:
    def build():
        spec = cell_deployment_spec(cell, seed, max_time)
        if scale_stack and _SCALE_STACK:
            spec = dataclasses.replace(spec, **_SCALE_STACK)
        context = TrialContext(spec)
        context.build()
        return context

    def execute(context):
        return context.execute()

    def check(context, result) -> TrialOutcome:
        why = ""
        if not result.agreement_ok:
            why = "agreement violated"
        elif path_view is None and not result.all_decided:
            why = f"{result.decided}/{result.n_correct} decided by {max_time}"
        # A path-labelled workload stops each trial before the *next* view
        # timer fires: a trial still undecided then has left the path (ProBFT
        # terminates in a view only with high probability) and is off-path,
        # not failed; recovery is checked where budgets are long.
        on_path = not why and (
            path_view is None
            or (result.all_decided and result.max_view == path_view)
        )
        counters = _memo_counters(context.deployment)
        counters.update(_network_counters(context.deployment))
        counters["view_changes"] = max(result.max_view - 1, 0)
        counters["view1"] = (
            1.0 if result.all_decided and result.max_view == 1 else 0.0
        )
        return TrialOutcome(
            ok=not why,
            why_failed=why,
            on_path=on_path,
            group=group,
            ops=1,
            messages=result.total_messages,
            latencies=[result.last_decision_time],
            counters=counters,
            fingerprint=(
                result.decided,
                result.n_correct,
                result.agreement_ok,
                result.max_view,
                result.last_decision_time,
                result.total_messages,
            ),
        )

    return build, execute, check


def _matrix(params: Dict[str, Any]) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="e2e",
        protocols=tuple(params["protocols"]),
        adversaries=tuple(params["adversaries"]),
        latencies=tuple(params["latencies"]),
        n=params["n"],
    )


def single_shot_trials(params: Dict[str, Any], workload_seed: int, trials: int):
    """``trials`` cold trials of one cell: seeds ``derive_seed(seed, index)``."""
    (cell,) = _matrix(params).cells()
    return [
        _single_shot_phases(
            cell,
            derive_seed(workload_seed, i),
            params["max_time"],
            params["scale_stack"],
            params["path_view"],
        )
        for i in range(trials)
    ]


def matrix_trials(params: Dict[str, Any], workload_seed: int, blocks: int):
    """The sweep workload: ``blocks`` blocks of one seed per cell.

    Block ``b`` is exactly the trial set of ``run_matrix(matrix, trials=1,
    master_seed=derive_seed(workload_seed, b))`` — same cells, same seeds —
    run here directly, so a cell's trials never sit together on one stretch
    of heap growth.
    """
    cells = _matrix(params).cells()
    return [
        _single_shot_phases(
            cell,
            derive_seed(derive_seed(workload_seed, b), c),
            params["max_time"],
            False,
            None,
            cell.label,
        )
        for b in range(blocks)
        for c, cell in enumerate(cells)
    ]


#: The report columns compared between ``run_matrix`` and direct trials.
_ROW_KEYS = (
    "decide_rate",
    "agreement_rate",
    "mean_max_view",
    "mean_decision_time",
    "mean_messages",
)


def run_matrix_serial(params: Dict[str, Any], workload_seed: int):
    """Block 0 through ``run_matrix`` on the serial backend.

    Returns ``(wall_s, rows)`` with one comparable row per cell, in the
    order of a :func:`matrix_trials` block.
    """
    start = time.perf_counter()
    report = run_matrix(
        _matrix(params),
        trials=1,
        master_seed=derive_seed(workload_seed, 0),
        backend="serial",
        max_time=params["max_time"],
    )
    wall = time.perf_counter() - start
    return wall, [{key: row[key] for key in _ROW_KEYS} for row in report.rows]


def matrix_rows_from_fingerprints(
    fingerprints: List[Tuple[Any, ...]], params: Dict[str, Any]
) -> List[Dict[str, float]]:
    """Block 0's direct results as the one-trial rows ``run_matrix`` reports."""
    cells = len(_matrix(params).cells())
    return [
        dict(zip(_ROW_KEYS, (f[0] / f[1], 1.0 if f[2] else 0.0, f[3], f[4], f[5])))
        for f in fingerprints[:cells]
    ]


# ----------------------------------------------------------------------
# Serving trials: what `repro serve` / run_serving_trial does per trial
# ----------------------------------------------------------------------
def _serving_phases(params: Dict[str, Any], seed: int) -> Phases:
    spec = ServingSpec(seed=seed, **params)
    workload = spec.workload()

    def build():
        deployment = build_serving_deployment(spec)
        return deployment, WorkloadGenerator(deployment, workload, seed=spec.seed)

    def execute(built):
        built[1].run(max_time=spec.max_time, max_events=spec.max_events)
        return built[1]

    def check(built, generator) -> TrialOutcome:
        deployment = built[0]
        budgeted = workload.total_requests
        timed_out = generator.latency_accumulator().incomplete
        why = ""
        if not deployment.logs_consistent():
            why = "replica logs diverged"
        elif not generator.completed == generator.issued == budgeted:
            why = (
                f"completed {generator.completed} / issued {generator.issued}"
                f" / budgeted {budgeted}"
            )
        elif timed_out:
            why = f"{timed_out} requests timed out"
        latencies = generator.latencies()
        counters = _memo_counters(deployment)
        counters.update(_network_counters(deployment))
        witness = deployment.replicas[min(deployment.correct_ids)]
        slots = witness.log.applied_up_to
        views = [
            witness.slot_replica(s).decision.view for s in range(1, slots + 1)
        ]
        counters["slots_applied"] = slots
        counters["requests"] = generator.completed
        counters["backpressure_retries"] = generator.retries
        counters["view_changes"] = sum(v - 1 for v in views)
        counters["view1"] = (
            sum(1 for v in views if v == 1) / slots if slots else 0.0
        )
        return TrialOutcome(
            ok=not why,
            why_failed=why,
            on_path=not why,
            group=None,
            ops=generator.completed,
            messages=deployment.network.stats.sent_total,
            latencies=latencies,
            counters=counters,
            fingerprint=(
                generator.completed,
                deployment.network.stats.sent_total,
                deployment.sim.now,
                sum(latencies),
            ),
        )

    return build, execute, check


def serving_trials(params: Dict[str, Any], workload_seed: int, trials: int):
    return [
        _serving_phases(params, derive_seed(workload_seed, i)) for i in range(trials)
    ]
